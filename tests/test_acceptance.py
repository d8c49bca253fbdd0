"""Acceptance gate.

Every test here pins one acceptance criterion at its stated tolerance and
prints a `[acceptance] criterion N: PASS/FAIL` line (visible with
`pytest -s` or in the captured output). The two desk-scale benchmark
searches are marked slow; they still run by default.
"""

import functools
import time

import numpy as np
import pytest

from deepreservoir.analysis import (
    band_energy_ratio,
    band_split_bin,
    layerwise_spectra,
    multisine,
)
from deepreservoir.cli import build_parser
from deepreservoir.harness import (
    ExperimentConfig,
    HyperGrid,
    ModelClass,
    make_task,
    random_search,
    sample_config,
)
from deepreservoir.numerics import RngStream, ridge_solve, spectral_radius, uniform_matrix
from deepreservoir.numerics import fft_magnitudes, operator_norm_2
from deepreservoir.reservoir import (
    LayerConfig,
    ResidualKind,
    build_deep_reservoir,
    forward,
    step,
)
from deepreservoir.stability import (
    contraction_coefficients,
    eigenspectrum_report,
    esp_convergence_test,
    global_jacobian,
    max_metric,
    random_probe,
    stability_report,
)
from deepreservoir.tasks import (
    ctxor_targets,
    load_sequence_classification,
    lorenz96_trajectory,
    narma_targets,
    sinmem_targets,
    write_sequence_classification,
)


def criterion(label, limit_seconds):
    """Print the pass/fail line and enforce the stated runtime limit."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {label}: FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[acceptance] {label}: PASS ({elapsed:.1f}s)")
            assert elapsed < limit_seconds, f"runtime {elapsed:.1f}s over {limit_seconds}s limit"
        return wrapper
    return deco


def _cfg(n, rho, wx, wb, alpha, beta, kind):
    return LayerConfig(hidden_size=n, spectral_radius=rho, input_scaling=wx,
                       bias_scaling=wb, alpha=alpha, beta=beta, residual=kind)


# ---------------------------------------------------------------------------
# 1. reduction suite


@criterion("criterion 1 (reduction suite)", 5.0)
def test_criterion_01_reductions():
    steps, n_h, tol = 100, 50, 1e-12

    for seed in range(5):
        inputs = RngStream(9000 + seed).uniform(-1, 1, (steps, 1))

        # leaky network as a single identity-residual layer with 1-a = b = tau
        tau = (0.25, 0.5, 0.9, 0.99, 1.0)[seed]
        deep = build_deep_reservoir(
            [_cfg(n_h, 0.9, 1.0, 0.1, 1 - tau, tau, ResidualKind.IDENTITY)],
            1, RngStream(seed))
        layer = deep.layers[0]
        h = np.zeros(n_h)
        reference = []
        for x in inputs:
            h = (1 - tau) * h + tau * np.tanh(layer.w_h @ h + layer.w_x @ x + layer.b)
            reference.append(h.copy())
        got = forward(deep, inputs).states[0]
        assert np.max(np.abs(got - np.asarray(reference))) < tol

        # one-layer stack against the shallow residual update
        deep = build_deep_reservoir(
            [_cfg(n_h, 1.1, 1.0, 0.1, 0.6, 0.7, ResidualKind.RANDOM_ORTHOGONAL)],
            1, RngStream(100 + seed))
        layer = deep.layers[0]
        h = np.zeros(n_h)
        reference = []
        for x in inputs:
            h = 0.6 * (layer.o @ h) + 0.7 * np.tanh(layer.w_h @ h + layer.w_x @ x + layer.b)
            reference.append(h.copy())
        got = forward(deep, inputs).states[0]
        assert np.max(np.abs(got - np.asarray(reference))) < tol

        # identity-residual stack against stacked leaky updates
        taus = (0.3, 0.8, 1.0)
        deep = build_deep_reservoir(
            [_cfg(n_h, 0.9, 1.0, 0.1, 1 - t, t, ResidualKind.IDENTITY) for t in taus],
            1, RngStream(200 + seed))
        states = [np.zeros(n_h) for _ in taus]
        reference_layers = [[] for _ in taus]
        for x in inputs:
            drive = x
            for l, (layer, t) in enumerate(zip(deep.layers, taus)):
                states[l] = (1 - t) * states[l] + t * np.tanh(
                    layer.w_h @ states[l] + layer.w_x @ drive + layer.b)
                reference_layers[l].append(states[l].copy())
                drive = states[l]
        traj = forward(deep, inputs)
        for got, want in zip(traj.states, reference_layers):
            assert np.max(np.abs(got - np.asarray(want))) < tol


# ---------------------------------------------------------------------------
# 2. zero-state spectral radius formula


@criterion("criterion 2 (global spectral radius formula)", 30.0)
def test_criterion_02_global_radius_matches_jacobian():
    kinds = list(ResidualKind)
    rng = RngStream(333)
    for case in range(50):
        n_layers = 1 + case % 4
        kind = kinds[case % 3]
        # zero bias keeps the origin a fixed point, the formula's setting
        configs = [
            _cfg(20, float(rng.uniform(0.5, 1.5, None)), float(rng.uniform(0.1, 2.0, None)),
                 0.0, float(rng.uniform(0.0, 1.0, None)),
                 float(rng.uniform(0.05, 1.0, None)), kind)
            for _ in range(n_layers)
        ]
        deep = build_deep_reservoir(configs, 1, rng.child(("build", case)))
        formula = stability_report(deep).global_rho
        assembled = spectral_radius(global_jacobian(deep, deep.zero_state(), np.zeros(1)))
        assert abs(formula - assembled) < 1e-8, case


# ---------------------------------------------------------------------------
# 3. analytic vs finite-difference Jacobian


@criterion("criterion 3 (Jacobian vs finite differences)", 10.0)
def test_criterion_03_jacobian_finite_differences():
    configs = [_cfg(10, 1.0, 1.0, 0.2, 0.5, 0.8, ResidualKind.RANDOM_ORTHOGONAL)
               for _ in range(3)]
    deep = build_deep_reservoir(configs, 1, RngStream(404))
    eps = 1e-6
    sizes = [layer.size for layer in deep.layers]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def unpack(flat):
        return [flat[offsets[l]:offsets[l + 1]] for l in range(len(sizes))]

    probe_rng = RngStream(405)
    for point in range(10):
        h, x = random_probe(deep, probe_rng)
        analytic = global_jacobian(deep, h, x)
        flat = np.concatenate(h)
        fd = np.empty_like(analytic)
        for j in range(len(flat)):
            bump = np.zeros_like(flat)
            bump[j] = eps
            up = np.concatenate(step(deep, unpack(flat + bump), x))
            dn = np.concatenate(step(deep, unpack(flat - bump), x))
            fd[:, j] = (up - dn) / (2 * eps)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        assert rel < 1e-5, (point, rel)


# ---------------------------------------------------------------------------
# 4. contraction bounds


def _contractive_stack(target_c, seed, n_layers=3, n=10, alpha=0.2, beta=0.5):
    configs = [_cfg(n, 0.9, 1.0, 0.1, alpha, beta, ResidualKind.RANDOM_ORTHOGONAL)
               for _ in range(n_layers)]
    deep = build_deep_reservoir(configs, 1, RngStream(seed))
    slack = (target_c - alpha) / beta
    first = deep.layers[0]
    first.w_h *= slack / operator_norm_2(first.w_h)
    for layer in deep.layers[1:]:
        layer.w_h *= (slack / 2.0) / operator_norm_2(layer.w_h)
        layer.w_x *= (slack / 2.0) / (target_c * operator_norm_2(layer.w_x))
    return deep


@criterion("criterion 4 (contraction coefficients)", 60.0)
def test_criterion_04_contraction():
    for target in (0.5, 0.8, 0.95):
        deep = _contractive_stack(target, seed=int(target * 100))
        per_layer, global_c = contraction_coefficients(deep)
        assert global_c == pytest.approx(target, abs=1e-9)

        rng = RngStream(7000 + int(target * 100))
        for _ in range(1000):
            ha, x = random_probe(deep, rng)
            hb, _ = random_probe(deep, rng)
            before = max_metric(ha, hb)
            after = max_metric(step(deep, ha, x), step(deep, hb, x))
            assert after <= (target + 1e-12) * before

        h, _ = random_probe(deep, rng)
        h_prime, _ = random_probe(deep, rng)
        inputs = rng.uniform(-1, 1, (500, 1))
        trace = esp_convergence_test(deep, inputs, h, h_prime)
        envelope = trace[0] * np.power(target, np.arange(501))
        assert np.all(trace <= envelope + 1e-12)
        if target <= 0.9:
            assert trace[500] < 1e-8


# ---------------------------------------------------------------------------
# 5. oracle equivalences


@criterion("criterion 5 (oracle equivalences)", 60.0)
def test_criterion_05_oracles():
    # ridge vs dense normal equations
    rng = RngStream(550)
    h = uniform_matrix(50, 10, -1, 1, rng)
    y = uniform_matrix(50, 4, -1, 1, rng)
    for lam in (0.0, 0.1, 10.0):
        reference = np.linalg.solve(h.T @ h + lam * np.eye(10) if lam else h.T @ h,
                                    h.T @ y).T
        assert np.max(np.abs(ridge_solve(h, y, lam) - reference)) < 1e-8

    # one-sided FFT vs direct DFT summation for every length up to 1024
    for t in range(2, 1025):
        x = RngStream(t).uniform(-1, 1, t)
        n = np.arange(t)
        w = np.exp(-2j * np.pi * np.outer(np.arange(t // 2 + 1), n) / t)
        assert np.max(np.abs(fft_magnitudes(x) - np.abs(w @ x))) < 1e-9, t

    # generator recurrences against plain scalar loops, exact equality
    x = RngStream(551).uniform(-0.8, 0.8, 300)
    expected = []
    for t in range(300):
        a = x[t - 6] if t >= 6 else 0.0
        b = x[t - 5] if t >= 5 else 0.0
        r = a * b
        expected.append(r ** 2 * (1.0 if r > 0 else (-1.0 if r < 0 else 0.0)))
    assert np.array_equal(ctxor_targets(x, 5, 2.0), np.asarray(expected))

    expected = [np.sin(np.pi * x[t - 10]) if t >= 10 else 0.0 for t in range(300)]
    assert np.array_equal(sinmem_targets(x, 10), np.asarray(expected))

    u = RngStream(552).uniform(0.0, 0.5, 300)
    ref = [0.0] * 300
    for t in range(300):
        acc = sum(ref[t - i] for i in range(1, 31) if t - i >= 0)
        prev = ref[t - 1] if t >= 1 else 0.0
        ref[t] = (0.3 * prev + 0.01 * prev * acc
                  + 1.5 * (u[t - 30] if t >= 30 else 0.0) * (u[t - 1] if t >= 1 else 0.0)
                  + 0.1)
    assert np.array_equal(narma_targets(u, 30), np.asarray(ref))

    # fourth-order convergence of the chaotic-flow integrator over ten time
    # units; dt = 0.01 keeps the halving errors in the linear regime
    x0 = np.full(5, 8.0) + RngStream(553).uniform(-0.5, 0.5, 5)
    settle = lorenz96_trajectory(x0, 10000, 0.01)[-1]
    coarse = lorenz96_trajectory(settle, 1000, 0.01)[-1]
    half = lorenz96_trajectory(settle, 2000, 0.005)[-1]
    quarter = lorenz96_trajectory(settle, 4000, 0.0025)[-1]
    ratio = np.linalg.norm(coarse - half) / np.linalg.norm(half - quarter)
    assert 12.0 <= ratio <= 20.0, ratio


# ---------------------------------------------------------------------------
# 6. depth-dependent frequency filtering


def _band_fractions(kind, seed, signal):
    configs = [_cfg(100, 1.0, 1.0, 0.0, 0.9, 0.1, kind) for _ in range(5)]
    spectra = layerwise_spectra(configs, signal, trials=10, seed=seed)
    split = band_split_bin(len(signal))
    return [band_energy_ratio(s, split) for s in spectra]


@criterion("criterion 6 (spectral filtering by depth)", 300.0)
def test_criterion_06_spectral_trends():
    signal = multisine(1000)

    high = _band_fractions(ResidualKind.IDENTITY, 0, signal)
    assert all(a > b for a, b in zip(high, high[1:])), high

    cyc = _band_fractions(ResidualKind.CYCLIC, 0, signal)
    assert (max(cyc) - min(cyc)) / min(cyc) <= 0.2, cyc

    net_decreasing = 0
    for seed in range(10):
        fractions = _band_fractions(ResidualKind.RANDOM_ORTHOGONAL, 100 + seed, signal)
        low = [1.0 - f for f in fractions]
        net_decreasing += low[0] > low[-1]
    assert net_decreasing >= 6, net_decreasing


# ---------------------------------------------------------------------------
# 7. stabilization of deeper layers in the strong-gain regime


@criterion("criterion 7 (layer eigenspectra, strong gain)", 120.0)
def test_criterion_07_eigenspectrum_stabilization():
    hits = 0
    for seed in range(10):
        configs = [_cfg(100, 2.0, 1.0, 0.0, 0.5, 1.0, ResidualKind.RANDOM_ORTHOGONAL)
                   for _ in range(5)]
        deep = build_deep_reservoir(configs, 1, RngStream(seed))
        h, x = random_probe(deep, RngStream(1000 + seed))
        radii = [float(np.max(np.abs(e))) for e in eigenspectrum_report(deep, h, x)]
        if radii[0] > 1.0 and radii[1] < 1.0 and radii[4] < 1.0:
            hits += 1
    assert hits >= 7, hits


# ---------------------------------------------------------------------------
# 8. memory-task benchmark separation


@pytest.mark.slow
@criterion("criterion 8 (memory benchmark separation)", 1800.0)
def test_criterion_08_sinmem_benchmark():
    master = 2026
    dataset, task_class = make_task("sinmem10", master)

    best_leaky, table_leaky = random_search(
        HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10", task_class,
        budget=100, n_seeds=10, master_seed=master)
    leaky_row = next(r for r in table_leaky.rows if r["config_id"] == best_leaky.config_id)

    best_cyc, table_cyc = random_search(
        HyperGrid(), ModelClass.DEEP_RES_ESN_C, dataset, "sinmem10", task_class,
        budget=100, n_seeds=10, master_seed=master)
    cyc_row = next(r for r in table_cyc.rows if r["config_id"] == best_cyc.config_id)

    print(f"\n  LeakyESN best test NRMSE {leaky_row['test_mean']:.4f}, "
          f"DeepResESN_C best test NRMSE {cyc_row['test_mean']:.4f}")
    assert leaky_row["test_mean"] >= 0.25
    assert cyc_row["test_mean"] <= 0.05


# ---------------------------------------------------------------------------
# 9. forecasting benchmark ballpark


@pytest.mark.slow
@criterion("criterion 9 (forecasting benchmark ballpark)", 1800.0)
def test_criterion_09_narma_benchmark():
    master = 2027
    dataset, task_class = make_task("narma30", master)
    best, table = random_search(
        HyperGrid(), ModelClass.DEEP_RES_ESN_C, dataset, "narma30", task_class,
        budget=100, n_seeds=10, master_seed=master)
    row = next(r for r in table.rows if r["config_id"] == best.config_id)
    print(f"\n  DeepResESN_C best test NRMSE {row['test_mean']:.4f}")
    assert 0.08 <= row["test_mean"] <= 0.18


# ---------------------------------------------------------------------------
# 10. full-budget configuration and classification loaders


@criterion("criterion 10 (full budget config + loaders)", 60.0)
def test_criterion_10_scale_and_loaders(tmp_path):
    # the CLI accepts the full search budget
    args = build_parser().parse_args(
        ["search", "--task", "sinmem10", "--model", "DeepResESN_R",
         "--budget", "1000", "--seeds", "10"])
    assert args.budget == 1000 and args.seeds == 10

    # the sampler sustains a 1000-configuration draw, every draw valid
    rng = RngStream(88)
    for i in range(1000):
        cfg = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_R, "sinmem10",
                            "memory", rng, config_id=i)
        assert len(cfg.layer_configs()) == cfg.n_layers

    # classification ingestion round-trips both formats
    rng = RngStream(89)
    seqs = [rng.uniform(-1, 1, (16, 1)) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    path = tmp_path / "seqs.txt"
    write_sequence_classification(path, seqs, labels)
    back = load_sequence_classification(path)
    assert np.array_equal(back.targets, np.asarray(labels))
    for got, want in zip(back.inputs, seqs):
        assert np.array_equal(got, want)

    pix = [np.round(rng.uniform(0, 255, (12, 1))) for _ in range(4)]
    img_path = tmp_path / "img.csv"
    write_sequence_classification(img_path, [p / 255.0 for p in pix], [0, 1, 0, 1],
                                  fmt="flattened-image-csv")
    back = load_sequence_classification(img_path, fmt="flattened-image-csv")
    for got, want in zip(back.inputs, pix):
        assert np.max(np.abs(got - want / 255.0)) < 1e-12

    permuted = load_sequence_classification(img_path, fmt="flattened-image-csv",
                                            permutation_seed=5)
    again = load_sequence_classification(img_path, fmt="flattened-image-csv",
                                         permutation_seed=5)
    for a, b in zip(permuted.inputs, again.inputs):
        assert np.array_equal(a, b)
