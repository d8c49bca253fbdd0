import numpy as np
import pytest

from deepreservoir import numerics, reservoir
from deepreservoir.numerics import RngStream, spectral_radius
from deepreservoir.reservoir import (
    DeepReservoir,
    Layer,
    LayerConfig,
    ResidualKind,
    StateOverflowError,
    StateTrajectory,
    allocate_units,
    build_deep_reservoir,
    build_layer,
    build_residual,
    forward,
    readout_features,
    run_states,
    step,
)

# ---------------------------------------------------------------------------
# independent reference dynamics, written directly from the update equations


def leaky_esn_trajectory(w_h, w_x, b, tau, inputs, h0=None):
    """h(t) = (1 - tau) h(t-1) + tau tanh(W_h h + W_x x + b)."""
    h = np.zeros(w_h.shape[0]) if h0 is None else h0.copy()
    out = []
    for x in np.atleast_2d(inputs):
        h = (1 - tau) * h + tau * np.tanh(w_h @ h + w_x @ x + b)
        out.append(h.copy())
    return np.asarray(out)


def residual_esn_trajectory(w_h, w_x, b, o, alpha, beta, inputs, h0=None):
    """h(t) = alpha O h(t-1) + beta tanh(W_h h + W_x x + b)."""
    h = np.zeros(w_h.shape[0]) if h0 is None else h0.copy()
    out = []
    for x in np.atleast_2d(inputs):
        h = alpha * (o @ h) + beta * np.tanh(w_h @ h + w_x @ x + b)
        out.append(h.copy())
    return np.asarray(out)


def deep_leaky_trajectory(layers_whxb, taus, inputs):
    """Stacked leaky updates; layer l > 1 eats layer l-1's fresh state."""
    states = [np.zeros(w_h.shape[0]) for w_h, _, _ in layers_whxb]
    per_layer = [[] for _ in layers_whxb]
    for x in np.atleast_2d(inputs):
        drive = x
        for l, ((w_h, w_x, b), tau) in enumerate(zip(layers_whxb, taus)):
            h = (1 - tau) * states[l] + tau * np.tanh(w_h @ states[l] + w_x @ drive + b)
            states[l] = h
            per_layer[l].append(h.copy())
            drive = h
    return [np.asarray(seq) for seq in per_layer]


def deep_residual_trajectory(layers, inputs):
    """Stacked residual updates with the dense O of every kind; layer l > 1
    eats layer l-1's fresh state."""
    states = [np.zeros(layer.size) for layer in layers]
    per_layer = [[] for _ in layers]
    for x in inputs:
        drive = x
        for l, layer in enumerate(layers):
            states[l] = (layer.alpha * (layer.o @ states[l])
                         + layer.beta * np.tanh(layer.w_h @ states[l] + layer.w_x @ drive
                                                + layer.b))
            per_layer[l].append(states[l].copy())
            drive = states[l]
    return [np.asarray(seq) for seq in per_layer]


def _config(n=10, rho=0.9, wx=1.0, wb=0.1, alpha=0.5, beta=0.5,
            kind=ResidualKind.RANDOM_ORTHOGONAL):
    return LayerConfig(hidden_size=n, spectral_radius=rho, input_scaling=wx,
                       bias_scaling=wb, alpha=alpha, beta=beta, residual=kind)


# ---------------------------------------------------------------------------
# build_residual


def test_cyclic_residual_structure():
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(build_residual(ResidualKind.CYCLIC, 3), expected)


def test_identity_residual():
    assert np.array_equal(build_residual(ResidualKind.IDENTITY, 4), np.eye(4))


def test_random_orthogonal_residual_unit_radius():
    o = build_residual(ResidualKind.RANDOM_ORTHOGONAL, 10, RngStream(2))
    assert spectral_radius(o) == pytest.approx(1.0, abs=1e-8)


def test_build_residual_rejects_zero_dim():
    with pytest.raises(ValueError):
        build_residual(ResidualKind.CYCLIC, 0)


# ---------------------------------------------------------------------------
# build_layer


def test_zero_bias_scaling_gives_zero_bias():
    layer = build_layer(_config(wb=0.0), 3, RngStream(1))
    assert np.array_equal(layer.b, np.zeros(10))


def test_recurrent_matrix_hits_target_radius():
    layer = build_layer(_config(rho=1.1), 2, RngStream(5))
    assert spectral_radius(layer.w_h) == pytest.approx(1.1, abs=1e-8)


def test_build_layer_radius_at_full_size():
    layer = build_layer(_config(n=100, rho=1.1), 1, RngStream(8))
    assert spectral_radius(layer.w_h) == pytest.approx(1.1, abs=1e-8)


def test_build_layer_one_eigendecomposition_per_draw(monkeypatch):
    calls = []
    original = numerics.eigenvalues

    def counted(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(numerics, "eigenvalues", counted)
    build_layer(_config(), 2, RngStream(5))
    assert calls == [(10, 10)]


def test_build_layer_rejects_zero_radius_draw(monkeypatch):
    # every square draw comes out all zeros: the first W_h draw fails the
    # build, with no redraw
    draws = []
    original = reservoir.uniform_matrix

    def zero_square(rows, cols, lo, hi, rng):
        m = original(rows, cols, lo, hi, rng)
        if rows == cols:
            draws.append(m)
            return np.zeros_like(m)
        return m

    monkeypatch.setattr(reservoir, "uniform_matrix", zero_square)
    with pytest.raises(ValueError, match="zero spectral radius"):
        build_layer(_config(n=6), 2, RngStream(3))
    assert len(draws) == 1


def test_build_layer_deterministic():
    a = build_layer(_config(), 4, RngStream(9))
    b = build_layer(_config(), 4, RngStream(9))
    for x, y in ((a.w_x, b.w_x), (a.w_h, b.w_h), (a.b, b.b), (a.o, b.o)):
        assert np.array_equal(x, y)


def test_layer_weight_ranges_and_orthogonality():
    layer = build_layer(_config(wx=0.3, wb=0.05), 4, RngStream(12))
    assert np.all(np.abs(layer.w_x) < 0.3)
    assert np.all(np.abs(layer.b) < 0.05)
    n = layer.size
    assert np.linalg.norm(layer.o.T @ layer.o - np.eye(n)) < 1e-10


def test_layer_config_validation():
    with pytest.raises(ValueError):
        _config(alpha=1.5)
    with pytest.raises(ValueError):
        _config(beta=0.0)
    with pytest.raises(ValueError):
        _config(n=0)
    with pytest.raises(ValueError):
        _config(rho=0.0)


# ---------------------------------------------------------------------------
# step on a one-layer stack


def _one_layer_step(layer, h_prev, x):
    return step(DeepReservoir(layers=[layer]), [h_prev], x)[0]


def test_step_zero_everything_stays_zero():
    layer = build_layer(_config(wb=0.0), 2, RngStream(3))
    h = _one_layer_step(layer, np.zeros(10), np.zeros(2))
    assert np.array_equal(h, np.zeros(10))


def test_step_alpha_zero_is_plain_esn():
    layer = build_layer(_config(alpha=0.0, beta=1.0), 2, RngStream(4))
    h_prev = RngStream(8).uniform(-1, 1, 10)
    x = RngStream(9).uniform(-1, 1, 2)
    expected = np.tanh(layer.w_h @ h_prev + layer.w_x @ x + layer.b)
    assert np.max(np.abs(_one_layer_step(layer, h_prev, x) - expected)) < 1e-15


def test_identity_kind_step_matches_leaky_step():
    tau = 0.3
    layer = build_layer(_config(alpha=1 - tau, beta=tau, kind=ResidualKind.IDENTITY),
                        2, RngStream(6))
    h_prev = RngStream(10).uniform(-1, 1, 10)
    x = RngStream(11).uniform(-1, 1, 2)
    expected = (1 - tau) * h_prev + tau * np.tanh(layer.w_h @ h_prev + layer.w_x @ x + layer.b)
    assert np.max(np.abs(_one_layer_step(layer, h_prev, x) - expected)) < 1e-12


def test_step_dimension_mismatch():
    layer = build_layer(_config(), 2, RngStream(3))
    deep = DeepReservoir(layers=[layer])
    with pytest.raises(ValueError):
        step(deep, [np.zeros(9)], np.zeros(2))
    with pytest.raises(ValueError):
        step(deep, [np.zeros(10)], np.zeros(3))
    with pytest.raises(ValueError):
        step(deep, [np.zeros((4, 10))], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        step(deep, [np.zeros((4, 10))], np.zeros(2))
    for count in (0, 2):
        with pytest.raises(ValueError, match=f"h0 has {count} initial states, the stack has 1"):
            step(deep, [np.zeros(10)] * count, np.zeros(2))


def test_step_names_non_finite_state_and_rejects_non_finite_input():
    deep = build_deep_reservoir([_config(), _config(), _config()], 1, RngStream(59))
    h = [np.zeros(10), np.full(10, np.nan), np.zeros(10)]
    with pytest.raises(StateOverflowError, match=r"^non-finite state at step 0 in layer 2$"):
        step(deep, h, np.zeros(1))
    with pytest.raises(ValueError, match=r"^non-finite input at step 0$"):
        step(deep, deep.zero_state(), np.array([np.nan]))


# ---------------------------------------------------------------------------
# forward and reductions


def test_single_layer_forward_matches_shallow_residual_loop():
    rng = RngStream(20)
    deep = build_deep_reservoir([_config()], 2, rng)
    inputs = RngStream(21).uniform(-1, 1, (100, 2))
    traj = forward(deep, inputs)
    layer = deep.layers[0]
    expected = residual_esn_trajectory(layer.w_h, layer.w_x, layer.b, layer.o,
                                       layer.alpha, layer.beta, inputs)
    assert np.max(np.abs(traj.states[0] - expected)) < 1e-12


def test_identity_stack_matches_deep_leaky_loop():
    taus = (0.7, 0.2, 1.0)
    for seed in range(5):
        configs = [_config(alpha=1 - t, beta=t, kind=ResidualKind.IDENTITY) for t in taus]
        deep = build_deep_reservoir(configs, 1, RngStream(seed))
        inputs = RngStream(1000 + seed).uniform(-1, 1, (100, 1))
        traj = forward(deep, inputs)
        ref = deep_leaky_trajectory(
            [(l.w_h, l.w_x, l.b) for l in deep.layers], taus, inputs)
        for got, want in zip(traj.states, ref):
            assert np.max(np.abs(got - want)) < 1e-12


def test_single_layer_identity_matches_shallow_leaky_loop():
    tau = 0.4
    deep = build_deep_reservoir(
        [_config(alpha=1 - tau, beta=tau, kind=ResidualKind.IDENTITY)], 1, RngStream(30))
    inputs = RngStream(31).uniform(-1, 1, (100, 1))
    traj = forward(deep, inputs)
    layer = deep.layers[0]
    expected = leaky_esn_trajectory(layer.w_h, layer.w_x, layer.b, tau, inputs)
    assert np.max(np.abs(traj.states[0] - expected)) < 1e-12


def test_forward_decays_to_zero_without_input():
    # global spectral radius < 1 and no bias: the origin is attracting
    configs = [_config(rho=0.5, wb=0.0, alpha=0.3, beta=0.6) for _ in range(2)]
    deep = build_deep_reservoir(configs, 1, RngStream(40))
    h0 = [RngStream(41).child(l).uniform(-1, 1, 10) for l in range(2)]
    traj = forward(deep, np.zeros((1000, 1)), h0=h0)
    assert np.linalg.norm(traj.states[-1][-1]) < 1e-6
    assert np.linalg.norm(traj.states[0][-1]) < 1e-6


def test_forward_deterministic():
    deep = build_deep_reservoir([_config(), _config()], 1, RngStream(50))
    inputs = RngStream(51).uniform(-1, 1, (50, 1))
    a = forward(deep, inputs)
    b = forward(deep, inputs)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)


def test_forward_bounded_states_alpha_zero():
    deep = build_deep_reservoir([_config(alpha=0.0, beta=1.0)], 1, RngStream(52))
    traj = forward(deep, RngStream(53).uniform(-5, 5, (200, 1)))
    assert np.all(np.abs(traj.states[0]) < 1.0)


def test_state_sup_norm_recursion_bound():
    # ||h(t)||_inf <= alpha ||O||_inf ||h(t-1)||_inf + beta, since tanh is
    # bounded by one
    deep = build_deep_reservoir([_config(alpha=0.8, beta=0.9)], 1, RngStream(58))
    layer = deep.layers[0]
    o_inf = np.max(np.sum(np.abs(layer.o), axis=1))
    traj = forward(deep, RngStream(59).uniform(-3, 3, (300, 1)))
    states = traj.states[0]
    prev = 0.0
    for t in range(300):
        now = np.max(np.abs(states[t]))
        assert now <= 0.8 * o_inf * prev + 0.9 + 1e-12
        prev = now


def test_weight_draw_order_is_pinned():
    # W_x, then W_h, then b, then O, consumed from one stream
    cfg = _config(n=6, wx=0.5, wb=0.2)
    layer = build_layer(cfg, 3, RngStream(99))
    manual = RngStream(99)
    w_x_raw = manual.uniform(-1.0, 1.0, (6, 3))
    assert np.array_equal(layer.w_x, w_x_raw * 0.5)
    w_h_raw = manual.uniform(-1.0, 1.0, (6, 6))
    assert np.allclose(layer.w_h, w_h_raw * (0.9 / spectral_radius(w_h_raw)))
    b_raw = manual.uniform(-1.0, 1.0, 6)
    assert np.array_equal(layer.b, b_raw * 0.2)


def test_forward_rejects_bad_inputs():
    deep = build_deep_reservoir([_config()], 1, RngStream(54))
    with pytest.raises(ValueError):
        forward(deep, np.zeros((0, 1)))
    with pytest.raises(ValueError):
        forward(deep, np.zeros((10, 3)))
    with pytest.raises(ValueError):
        forward(deep, np.zeros((10, 1)), washout=10)


def test_forward_names_non_finite_input_step():
    deep = build_deep_reservoir([_config()], 1, RngStream(54))
    inputs = RngStream(55).uniform(-1, 1, (400, 1))
    inputs[250, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite input at step 250$"):
        forward(deep, inputs)


def test_forward_flags_non_finite_states():
    deep = build_deep_reservoir([_config()], 1, RngStream(55))
    h0 = [np.full(10, np.inf)]
    with np.errstate(invalid="ignore"), pytest.raises(StateOverflowError):
        forward(deep, np.zeros((5, 1)), h0=h0)


def test_forward_names_layer_and_step_of_non_finite_state():
    deep = build_deep_reservoir([_config(), _config()], 1, RngStream(58))
    h0 = [np.zeros(10), np.full(10, np.nan)]
    with pytest.raises(StateOverflowError, match=r"at step 0 in layer 2$"):
        forward(deep, np.zeros((5, 1)), h0=h0)


def test_forward_rejects_wrong_number_of_initial_states():
    configs = [_config(kind=ResidualKind.CYCLIC), _config(kind=ResidualKind.CYCLIC)]
    deep = build_deep_reservoir(configs, 1, RngStream(60))
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"h0 has {count} initial states, the stack has 2"):
            forward(deep, np.zeros((5, 1)), h0=[np.zeros(10)] * count)


def test_step_chains_layers_like_forward():
    deep = build_deep_reservoir([_config(), _config()], 1, RngStream(56))
    inputs = RngStream(57).uniform(-1, 1, (20, 1))
    traj = forward(deep, inputs)
    h = deep.zero_state()
    for t in range(20):
        h = step(deep, h, inputs[t])
    for l in range(2):
        assert np.max(np.abs(h[l] - traj.states[l][-1])) < 1e-12


# ---------------------------------------------------------------------------
# the chunked state loop


CHUNK = reservoir._CHUNK


@pytest.mark.parametrize("kind", list(ResidualKind))
@pytest.mark.parametrize("t_total, washout", [(2 * CHUNK + 37, CHUNK + 5), (17, 3)])
def test_run_states_matches_scalar_loop(kind, t_total, washout):
    # T not a multiple of the chunk with the washout inside the second
    # chunk, and T shorter than one chunk; three reservoirs run together,
    # each against its own scalar loop
    configs = [_config(n=n, kind=kind) for n in (12, 8, 10)]
    deeps = [build_deep_reservoir(configs, 2, RngStream(seed)) for seed in (70, 71, 72)]
    inputs = RngStream(73).uniform(-1, 1, (t_total, 2))
    for concat in (False, True):
        states, errors = run_states(deeps, inputs, washout, concat)
        assert errors == [None] * 3
        for deep, got in zip(deeps, states):
            want = deep_residual_trajectory(deep.layers, inputs)
            want = np.hstack([w[washout:] for w in (want if concat else want[-1:])])
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_run_states_batch_matches_per_sequence_loop(kind):
    # 3 sequences per step advance CHUNK // 3 steps per chunk: 2 full chunks
    # and a short one, with the washout inside the second
    configs = [_config(n=n, kind=kind) for n in (12, 8)]
    deeps = [build_deep_reservoir(configs, 1, RngStream(seed)) for seed in (74, 75)]
    t_total, washout = 2 * (CHUNK // 3) + 11, CHUNK // 3 + 4
    batch = RngStream(76).uniform(-1, 1, (t_total, 3, 1))
    states, errors = run_states(deeps, batch, washout)
    assert errors == [None, None]
    for deep, got in zip(deeps, states):
        assert got.shape == (t_total - washout, 3, 20)
        for b in range(3):
            want = np.hstack(deep_residual_trajectory(deep.layers, batch[:, b]))[washout:]
            assert np.max(np.abs(got[:, b] - want)) < 1e-12


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_run_states_stack_equals_each_reservoir_alone(kind):
    configs = [_config(n=n, kind=kind) for n in (13, 7)]
    deeps = [build_deep_reservoir(configs, 2, RngStream(seed)) for seed in (77, 78, 79)]
    rng = RngStream(80)
    for inputs, washout in ((rng.uniform(-1, 1, (CHUNK + 9, 2)), 5),
                            (rng.uniform(-1, 1, (30, 4, 2)), 29)):
        together, _ = run_states(deeps, inputs, washout)
        for deep, got in zip(deeps, together):
            alone, _ = run_states([deep], inputs, washout)
            assert np.array_equal(got, alone[0])


def test_run_states_prefix_is_bit_identical():
    # every chunk's drive product spans the whole chunk, so a step's state
    # does not depend on where the sequence ends
    deep = build_deep_reservoir([_config(n=40), _config(n=40)], 1, RngStream(88))
    inputs = RngStream(89).uniform(-1, 1, (2 * CHUNK + 5, 1))
    short, _ = run_states([deep], inputs[:CHUNK + 10])
    full, _ = run_states([deep], inputs)
    assert np.array_equal(short[0], full[0][:CHUNK + 10])


def test_run_states_fails_only_the_non_finite_reservoir():
    deeps = [build_deep_reservoir([_config(), _config()], 1, RngStream(seed))
             for seed in (81, 82, 83)]
    deeps[1].layers[1].b[0] = np.nan
    inputs = RngStream(84).uniform(-1, 1, (40, 1))
    together, errors = run_states(deeps, inputs)
    assert errors == [None, "non-finite state at step 0 in layer 2", None]
    for deep, got, error in zip(deeps, together, errors):
        alone, alone_errors = run_states([deep], inputs)
        assert alone_errors == [error]
        if error is None:
            assert np.array_equal(got, alone[0])


def test_run_states_names_non_finite_input_of_a_batch():
    # the lowest sequence with a non-finite input is named, not the earliest step
    deep = build_deep_reservoir([_config()], 1, RngStream(85))
    batch = RngStream(86).uniform(-1, 1, (4, 400, 1)).transpose(1, 0, 2)  # (T, B, N_x)
    batch[250, 2, 0] = np.inf
    batch[100, 3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite input at step 250 of sequence 2$"):
        run_states([deep], batch)


def test_run_states_rejects_reservoirs_of_different_shapes():
    a = build_deep_reservoir([_config(n=10)], 1, RngStream(85))
    b = build_deep_reservoir([_config(n=11)], 1, RngStream(86))
    c = build_deep_reservoir([_config(n=10, alpha=0.3)], 1, RngStream(87))
    for other in (b, c):
        with pytest.raises(ValueError, match="share"):
            run_states([a, other], np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# unit allocation and feature assembly


def test_allocate_units_even_split():
    assert allocate_units(100, 4, True) == [25, 25, 25, 25]


def test_allocate_units_remainder_to_first_layer():
    assert allocate_units(100, 3, True) == [34, 33, 33]


def test_allocate_units_no_concat_full_budget():
    assert allocate_units(100, 3, False) == [100, 100, 100]


def test_allocate_units_rejects_insufficient_budget():
    with pytest.raises(ValueError):
        allocate_units(3, 4, True)


def test_readout_features_single_layer_concat_irrelevant():
    deep = build_deep_reservoir([_config()], 1, RngStream(60))
    traj = forward(deep, RngStream(61).uniform(-1, 1, (30, 1)), washout=5)
    assert np.array_equal(readout_features(traj, True), readout_features(traj, False))


def test_readout_features_row_count():
    deep = build_deep_reservoir([_config()], 1, RngStream(62))
    traj = forward(deep, RngStream(63).uniform(-1, 1, (1000, 1)), washout=200)
    assert readout_features(traj, False).shape[0] == 800


def test_readout_features_concat_width_matches_unit_budget():
    sizes = allocate_units(100, 3, True)
    configs = [_config(n=s) for s in sizes]
    deep = build_deep_reservoir(configs, 1, RngStream(64), concat=True)
    traj = forward(deep, RngStream(65).uniform(-1, 1, (50, 1)), washout=10)
    assert readout_features(traj, True).shape == (40, 100)


def test_trajectory_validates_washout():
    with pytest.raises(ValueError):
        StateTrajectory(states=[np.zeros((10, 3))], washout=10)


# ---------------------------------------------------------------------------
# stack construction details


def test_deep_reservoir_checks_layer_chaining():
    a = build_layer(_config(n=8), 1, RngStream(70))
    b = build_layer(_config(n=5), 9, RngStream(71))  # expects input dim 9, not 8
    with pytest.raises(ValueError):
        DeepReservoir(layers=[a, b])


@pytest.mark.parametrize("kind", list(ResidualKind))
def test_layer_rejects_residual_that_contradicts_kind(kind):
    # forward applies identity and cyclic without o, stability reads o:
    # a layer whose o disagrees with its kind would give two answers
    layer = build_layer(_config(n=6, kind=kind), 1, RngStream(74))
    fields = dict(w_x=layer.w_x, w_h=layer.w_h, b=layer.b, alpha=layer.alpha,
                  beta=layer.beta, kind=kind)
    Layer(o=layer.o.copy(), **fields)
    with pytest.raises(ValueError):
        Layer(o=np.eye(7), **fields)
    if kind is not ResidualKind.RANDOM_ORTHOGONAL:
        other = (ResidualKind.IDENTITY if kind is ResidualKind.CYCLIC
                 else ResidualKind.CYCLIC)
        with pytest.raises(ValueError):
            Layer(o=build_residual(other, 6), **fields)
