import numpy as np
import pytest

from deepreservoir.harness import emit_reports
from deepreservoir.numerics import RngStream, operator_norm_2, spectral_radius
from deepreservoir.reservoir import (
    DeepReservoir,
    Layer,
    LayerConfig,
    ResidualKind,
    build_deep_reservoir,
    build_layer,
    step,
)
from deepreservoir.stability import (
    contraction_coefficients,
    eigenspectrum_report,
    esp_convergence_test,
    global_jacobian,
    layer_block_jacobian,
    max_metric,
    random_probe,
    stability_report,
)


def _config(n=10, rho=0.9, wx=1.0, wb=0.1, alpha=0.5, beta=0.5,
            kind=ResidualKind.RANDOM_ORTHOGONAL):
    return LayerConfig(hidden_size=n, spectral_radius=rho, input_scaling=wx,
                       bias_scaling=wb, alpha=alpha, beta=beta, residual=kind)


def fd_layer_jacobian(layer, h, x, eps=1e-6):
    """Central finite differences of one layer's step with respect to the state."""
    deep = DeepReservoir(layers=[layer])
    n = layer.size
    jac = np.empty((n, n))
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = eps
        jac[:, j] = (step(deep, [h + bump], x)[0] - step(deep, [h - bump], x)[0]) / (2 * eps)
    return jac


def fd_global_jacobian(deep, h, x, eps=1e-6):
    """Central finite differences of the one-step global map."""
    sizes = [layer.size for layer in deep.layers]
    total = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def pack(state):
        return np.concatenate(state)

    def unpack(flat):
        return [flat[offsets[l]:offsets[l + 1]] for l in range(len(sizes))]

    base = pack(h)
    jac = np.empty((total, total))
    for j in range(total):
        bump = np.zeros(total)
        bump[j] = eps
        fwd = pack(step(deep, unpack(base + bump), x))
        bwd = pack(step(deep, unpack(base - bump), x))
        jac[:, j] = (fwd - bwd) / (2 * eps)
    return jac


def scale_layer_to_norms(layer, w_h_norm, w_x_norm=None):
    """Rescale weights so operator norms hit exact targets (in place)."""
    layer.w_h *= w_h_norm / operator_norm_2(layer.w_h)
    if w_x_norm is not None:
        layer.w_x *= w_x_norm / operator_norm_2(layer.w_x)


def build_contractive_stack(target_c, n_layers=3, n=10, alpha=0.2, beta=0.5, seed=0,
                            kind=ResidualKind.RANDOM_ORTHOGONAL):
    """Stack whose per-layer contraction coefficients all equal target_c.

    Layer 1 needs alpha + beta ||W_h|| = C; deeper layers split the slack
    between ||W_h|| and C ||W_x||.
    """
    assert target_c > alpha
    configs = [_config(n=n, alpha=alpha, beta=beta, kind=kind) for _ in range(n_layers)]
    deep = build_deep_reservoir(configs, 1, RngStream(seed))
    slack = (target_c - alpha) / beta
    scale_layer_to_norms(deep.layers[0], slack)
    for layer in deep.layers[1:]:
        scale_layer_to_norms(layer, slack / 2.0, (slack / 2.0) / target_c)
    return deep


# ---------------------------------------------------------------------------
# layer block Jacobian


def test_block_at_origin_is_alpha_o_plus_beta_wh():
    layer = build_layer(_config(wb=0.0), 2, RngStream(1))
    block = layer_block_jacobian(layer, np.zeros(10), np.zeros(2))
    expected = layer.alpha * layer.o + layer.beta * layer.w_h
    assert np.array_equal(block, expected)


def test_block_saturates_to_alpha_o():
    layer = build_layer(_config(wb=0.0), 2, RngStream(2))
    # preactivations of magnitude ~20 kill the tanh derivative
    h = np.full(10, 20.0) @ np.linalg.inv(layer.w_h)
    block = layer_block_jacobian(layer, h, np.zeros(2))
    assert np.linalg.norm(block - layer.alpha * layer.o) < 1e-6


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_block_matches_finite_differences(kind):
    # step applies identity and cyclic residuals without o, the
    # Jacobian through the dense o: the two must describe the same map
    layer = build_layer(_config(kind=kind), 3, RngStream(3))
    h = RngStream(4).uniform(-1, 1, 10)
    x = RngStream(5).uniform(-1, 1, 3)
    analytic = layer_block_jacobian(layer, h, x)
    fd = fd_layer_jacobian(layer, h, x)
    assert np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)) < 1e-6


# ---------------------------------------------------------------------------
# global Jacobian


def test_global_jacobian_upper_blocks_exactly_zero():
    deep = build_deep_reservoir([_config(n=6), _config(n=6), _config(n=6)], 1, RngStream(6))
    h, x = random_probe(deep, RngStream(7))
    jac = global_jacobian(deep, h, x)
    assert np.array_equal(jac[:6, 6:], np.zeros((6, 12)))
    assert np.array_equal(jac[6:12, 12:], np.zeros((6, 6)))


def test_global_jacobian_single_layer_equals_block():
    deep = build_deep_reservoir([_config()], 2, RngStream(8))
    h = RngStream(9).uniform(-1, 1, 10)
    x = RngStream(10).uniform(-1, 1, 2)
    jac = global_jacobian(deep, [h], x)
    block = layer_block_jacobian(deep.layers[0], h, x)
    assert np.max(np.abs(jac - block)) < 1e-14


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_global_jacobian_matches_finite_differences(kind):
    deep = build_deep_reservoir([_config(kind=kind) for _ in range(3)], 1, RngStream(11))
    h, x = random_probe(deep, RngStream(12))
    analytic = global_jacobian(deep, h, x)
    fd = fd_global_jacobian(deep, h, x)
    assert np.linalg.norm(analytic - fd) / np.linalg.norm(analytic) < 1e-5


def test_global_jacobian_spectrum_is_union_of_diagonal_blocks():
    deep = build_deep_reservoir([_config(n=8) for _ in range(4)], 1, RngStream(13))
    h, x = random_probe(deep, RngStream(14))
    jac = global_jacobian(deep, h, x)
    whole = np.sort_complex(np.linalg.eigvals(jac))
    union = np.sort_complex(np.concatenate(eigenspectrum_report(deep, h, x)))
    assert np.max(np.abs(whole - union)) < 1e-8


# ---------------------------------------------------------------------------
# necessary condition (zero-state spectral radius)


def test_necessary_esp_alpha_zero_reduces_to_recurrent_radius():
    configs = [_config(rho=0.9, alpha=0.0, beta=1.0) for _ in range(3)]
    deep = build_deep_reservoir(configs, 1, RngStream(15))
    report = stability_report(deep)
    assert report.global_rho == pytest.approx(0.9, abs=1e-8)
    assert report.esp_necessary_ok


def test_necessary_esp_identity_alpha_one_is_marginal():
    layer = Layer(w_x=np.zeros((4, 1)), w_h=np.zeros((4, 4)), b=np.zeros(4),
                  o=np.eye(4), alpha=1.0, beta=0.5, kind=ResidualKind.IDENTITY)
    report = stability_report(DeepReservoir(layers=[layer]))
    assert report.global_rho == pytest.approx(1.0, abs=1e-12)
    assert not report.esp_necessary_ok


def test_necessary_esp_matches_jacobian_radius_at_origin():
    for seed in range(3):
        configs = [_config(n=8, wb=0.0, rho=1.1, alpha=0.4, beta=0.8) for _ in range(3)]
        deep = build_deep_reservoir(configs, 1, RngStream(20 + seed))
        rho = stability_report(deep).global_rho
        jac = global_jacobian(deep, deep.zero_state(), np.zeros(1))
        assert rho == pytest.approx(spectral_radius(jac), abs=1e-8)


# ---------------------------------------------------------------------------
# contraction coefficients


def test_first_layer_coefficient_ignores_input_weights():
    layer = build_layer(_config(), 3, RngStream(30))
    layer.w_x *= 1e6  # must not matter for layer 1
    deep = DeepReservoir(layers=[layer])
    per_layer, _ = contraction_coefficients(deep)
    expected = layer.alpha + layer.beta * operator_norm_2(layer.w_h)
    assert per_layer[0] == pytest.approx(expected, rel=1e-12)


def test_single_layer_coefficient_arithmetic():
    layer = build_layer(_config(alpha=0.2, beta=0.5), 1, RngStream(31))
    scale_layer_to_norms(layer, 1.0)
    _, global_c = contraction_coefficients(DeepReservoir(layers=[layer]))
    assert global_c == pytest.approx(0.7, abs=1e-12)


def test_contraction_bound_holds_empirically():
    deep = build_contractive_stack(0.9, seed=32)
    _, global_c = contraction_coefficients(deep)
    assert global_c == pytest.approx(0.9, abs=1e-9)
    rng = RngStream(33)
    worst = 0.0
    for _ in range(200):
        ha, x = random_probe(deep, rng)
        hb, _ = random_probe(deep, rng)
        before = max_metric(ha, hb)
        after = max_metric(step(deep, ha, x), step(deep, hb, x))
        worst = max(worst, after / before)
    assert worst <= 0.9 + 1e-12


def test_gap_between_necessary_and_sufficient_conditions():
    # a plain random reservoir with rho < 1 usually has operator norm > 1
    configs = [_config(rho=0.9, alpha=0.0, beta=1.0)]
    deep = build_deep_reservoir(configs, 1, RngStream(34))
    report = stability_report(deep)
    assert report.esp_necessary_ok
    assert not report.contractive
    assert report.global_rho < 1.0 < report.global_c


# ---------------------------------------------------------------------------
# convergence of initial conditions


def test_identical_initial_states_stay_identical():
    deep = build_deep_reservoir([_config(), _config()], 1, RngStream(40))
    h = [RngStream(41).child(l).uniform(-1, 1, 10) for l in range(2)]
    inputs = RngStream(42).uniform(-1, 1, (50, 1))
    trace = esp_convergence_test(deep, inputs, h, [v.copy() for v in h])
    assert np.array_equal(trace, np.zeros(51))


def test_convergence_bounded_by_geometric_envelope():
    deep = build_contractive_stack(0.8, seed=43)
    rng = RngStream(44)
    h, _ = random_probe(deep, rng)
    h_prime, _ = random_probe(deep, rng)
    inputs = rng.uniform(-1, 1, (100, 1))
    trace = esp_convergence_test(deep, inputs, h, h_prime)
    envelope = trace[0] * 0.8 ** np.arange(101)
    assert np.all(trace <= envelope + 1e-12)


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_convergence_trace_matches_step_loop(kind):
    # oracle: both trajectories advanced one global step at a time, from
    # starting states that differ in every layer, over more than one chunk
    deep = build_deep_reservoir([_config(n=n, kind=kind) for n in (10, 7, 12)], 2,
                                RngStream(47))
    rng = RngStream(48)
    h, _ = random_probe(deep, rng)
    h_prime, _ = random_probe(deep, rng)
    inputs = rng.uniform(-1, 1, (300, 2))
    a, b = h, h_prime
    want = [max_metric(a, b)]
    for x in inputs:
        a, b = step(deep, a, x), step(deep, b, x)
        want.append(max_metric(a, b))
    trace = esp_convergence_test(deep, inputs, h, h_prime)
    assert trace.shape == (301,)
    assert np.max(np.abs(trace - want)) < 1e-12


def test_convergence_below_threshold_within_500_steps():
    deep = build_contractive_stack(0.9, seed=45)
    rng = RngStream(46)
    h, _ = random_probe(deep, rng)
    h_prime, _ = random_probe(deep, rng)
    inputs = rng.uniform(-1, 1, (500, 1))
    trace = esp_convergence_test(deep, inputs, h, h_prime)
    assert trace[500] < 1e-8


# ---------------------------------------------------------------------------
# eigenspectrum reporting


def test_eigenspectrum_at_origin_no_bias():
    deep = build_deep_reservoir([_config(wb=0.0), _config(wb=0.0)], 1, RngStream(50))
    eigs = eigenspectrum_report(deep, deep.zero_state(), np.zeros(1))
    for layer, got in zip(deep.layers, eigs):
        expected = np.linalg.eigvals(layer.alpha * layer.o + layer.beta * layer.w_h)
        assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(expected))) < 1e-10


def test_driven_unstable_first_layer_stabilizes_deeper():
    # strong recurrent gain: the first layer block exceeds the unit circle
    # while saturation tames deeper layers in most draws
    hits = 0
    for seed in range(10):
        configs = [_config(n=50, rho=2.0, alpha=0.5, beta=1.0, wb=0.0)
                   for _ in range(3)]
        deep = build_deep_reservoir(configs, 1, RngStream(60 + seed))
        h, x = random_probe(deep, RngStream(160 + seed))
        eigs = eigenspectrum_report(deep, h, x)
        radii = [np.max(np.abs(e)) for e in eigs]
        if radii[0] > 1.0 and max(radii[1:]) < radii[0]:
            hits += 1
    assert hits >= 7


def test_eigenvalue_rows_layout(tmp_path):
    deep = build_deep_reservoir([_config(n=3), _config(n=3)], 1, RngStream(70))
    h, x = random_probe(deep, RngStream(71))
    emit_reports(tmp_path, eigen={"probe": eigenspectrum_report(deep, h, x)})
    rows = np.loadtxt(tmp_path / "eigen" / "probe.csv", delimiter=",", skiprows=1)
    assert len(rows) == 6
    assert set(rows[:, 2]) == {1, 2}


def test_stability_report_consistency():
    deep = build_deep_reservoir([_config() for _ in range(3)], 1, RngStream(80))
    report = stability_report(deep)
    assert report.global_rho == max(report.per_layer_rho)
    assert report.global_c == max(report.per_layer_c)
    assert report.esp_necessary_ok == (report.global_rho < 1)
    assert report.contractive == (report.global_c < 1)
    d = report.to_dict()
    assert set(d) == {"per_layer_rho", "global_rho", "per_layer_c", "global_c",
                      "esp_necessary_ok", "contractive"}
