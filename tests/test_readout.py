import re

import numpy as np
import pytest

from deepreservoir import harness
from deepreservoir.harness import HyperGrid, ModelClass
from deepreservoir.numerics import RngStream
from deepreservoir.readout import RIDGE_CUTOFF, accuracy, fit, nrmse, one_hot, predict
from deepreservoir.reservoir import build_deep_reservoir, run_states


def test_fit_recovers_exact_linear_map():
    rng = RngStream(1)
    features = rng.uniform(-1, 1, (60, 8))
    g = rng.uniform(-1, 1, (3, 8))
    w_o = fit(features, features @ g.T, 0.0)
    assert w_o.shape == (3, 8)
    assert np.max(np.abs(w_o - g)) < 1e-8


def test_fit_interpolates_underdetermined_system():
    rng = RngStream(2)
    features = rng.uniform(-1, 1, (10, 40))  # fewer samples than features
    targets = rng.uniform(-1, 1, (10, 2))
    w_o = fit(features, targets, 0.0)
    assert np.linalg.norm(predict(w_o, features) - targets) < 1e-8


def test_fit_huge_penalty_shrinks_predictions():
    rng = RngStream(3)
    features = rng.uniform(-1, 1, (50, 6))
    targets = rng.uniform(-1, 1, (50, 1))
    w_o = fit(features, targets, 1e12)
    assert np.max(np.abs(predict(w_o, features))) < 1e-9


def test_predict_zero_features_zero_output():
    assert np.array_equal(predict(np.ones((2, 5)), np.zeros((4, 5))), np.zeros((4, 2)))


def test_predict_identity_readout_passes_features_through():
    feats = RngStream(4).uniform(-1, 1, (7, 3))
    assert np.array_equal(predict(np.eye(3), feats), feats)


def test_predict_rejects_width_mismatch():
    with pytest.raises(ValueError, match=r"feature width 5 does not match readout \(3\)"):
        predict(np.eye(3), np.zeros((4, 5)))


def test_fit_predict_roundtrip_on_interpolating_problem():
    rng = RngStream(5)
    features = rng.uniform(-1, 1, (20, 20))
    targets = rng.uniform(-1, 1, (20, 4))
    w_o = fit(features, targets, 0.0)
    assert np.max(np.abs(predict(w_o, features) - targets)) < 1e-8


def test_feature_scaling_invariance():
    # scaling features by c rescales the fitted weights by 1/c, predictions
    # are unchanged (lam = 0)
    rng = RngStream(6)
    features = rng.uniform(-1, 1, (30, 5))
    targets = rng.uniform(-1, 1, (30, 2))
    c = 37.5
    m1 = fit(features, targets, 0.0)
    m2 = fit(c * features, targets, 0.0)
    assert np.max(np.abs(predict(m1, features) - predict(m2, c * features))) < 1e-9


@pytest.mark.parametrize("bad, at", [("features", 3), ("targets", 0), ("features", 59)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [60, 400])
def test_fit_refuses_a_non_finite_value_by_row(rows, value, bad, at):
    # a NaN feature used to fail as "SVD did not converge" and an inf target
    # to give NaN weights; both are refused before any factorization
    rng = RngStream(13)
    block = {"features": rng.uniform(-1, 1, (rows, 20)), "targets": rng.uniform(-1, 1, (rows, 2))}
    block[bad][at, 1] = value
    with pytest.raises(ValueError, match=rf"^{bad} hold a non-finite value at row {at}$"):
        fit(block["features"], block["targets"], 0.0)


# ---------------------------------------------------------------------------
# the QR route: a block with at least int(cols * 11 / 6) rows is reduced to
# the R of its QR, as LAPACK's dgesdd reduces it, and Q is never formed


def _svd_calls(monkeypatch) -> list:
    """Record the matrix and the result of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        calls.append((np.array(a), out))
        return out

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _svd_solve(features, targets, lam):
    """The ridge weights written out from the features' own SVD."""
    u, s, vt = np.linalg.svd(features, full_matrices=False)
    if lam == 0.0:
        filt = np.where(s > RIDGE_CUTOFF * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    else:
        filt = s / (s * s + lam)
    return (vt.T @ (filt[:, None] * (u.T @ targets))).T


@pytest.mark.parametrize("rows", [183, 184, 3800])
def test_tall_block_takes_the_singular_values_of_its_r_bit_for_bit(monkeypatch, rows):
    # 183 = int(100 * 11 / 6) is the first block dgesdd itself reduces by QR
    for seed in range(3):
        rng = RngStream(seed)
        # column scales from 1 down to 1e-11 make the block ill-conditioned
        features = rng.uniform(-1, 1, (rows, 100)) * np.logspace(0, -11 * (seed > 0), 100)
        _, s, vt = np.linalg.svd(features, full_matrices=False)
        calls = _svd_calls(monkeypatch)
        fit(features, rng.uniform(-1, 1, (rows, 1)), 0.0)
        (r, (_, s_r, vt_r)), = calls
        assert r.shape == (100, 100) and np.array_equal(r, np.triu(r))
        assert np.array_equal(s_r, s) and np.array_equal(vt_r, vt)
        monkeypatch.undo()


@pytest.mark.parametrize("rows", [150, 182])
def test_block_below_lapacks_threshold_keeps_the_svd_of_the_features(monkeypatch, rows):
    # there dgesdd bidiagonalizes the block itself, so a QR first would
    # change s and vt
    for seed in range(3):
        rng = RngStream(seed)
        features = rng.uniform(-1, 1, (rows, 100))
        calls = _svd_calls(monkeypatch)
        fit(features, rng.uniform(-1, 1, (rows, 1)), 0.0)
        (seen, _), = calls
        assert np.array_equal(seen, features)
        monkeypatch.undo()


def test_tall_block_ridge_matches_the_svd_solve_with_a_penalty():
    for seed in range(4):
        rng = RngStream(seed)
        rows = (183, 400, 3800, 500)[seed]
        features = rng.uniform(-1, 1, (rows, 100))
        targets = rng.uniform(-1, 1, (rows, 2))
        for lam in (1e-6, 0.1, 10.0):
            w_o = fit(features, targets, lam)
            want = _svd_solve(features, targets, lam)
            assert np.max(np.abs(w_o - want)) <= 1e-12 * np.max(np.abs(want))


def test_tall_rank_deficient_block_drops_the_same_singular_values(monkeypatch):
    # duplicated columns give singular values at rounding level, which the
    # lam = 0 cutoff drops on both routes: the minimum-norm solution then
    # splits a weight evenly between a column and its copy; a zero column
    # (a reflector with tau = 0) gets no weight
    for seed in range(4):
        rng = RngStream(seed)
        base = rng.uniform(-1, 1, (800, 60))
        copies = rng.permutation(60)[:39]
        features = np.hstack([base, base[:, copies], np.zeros((800, 1))])
        targets = rng.uniform(-1, 1, (800, 1))
        s = np.linalg.svd(features, full_matrices=False)[1]
        calls = _svd_calls(monkeypatch)
        w_o = fit(features, targets, 0.0)
        (_, (_, s_r, _)), = calls
        monkeypatch.undo()
        assert np.array_equal(s_r, s)
        assert np.sum(s > RIDGE_CUTOFF * s[0]) == 60
        want = (np.linalg.pinv(features, rcond=RIDGE_CUTOFF) @ targets).T
        assert np.max(np.abs(w_o - want)) < 1e-10
        assert np.max(np.abs(w_o[0, copies] - w_o[0, 60:99])) < 1e-10
        assert w_o[0, 99] == 0.0


def test_tall_block_fits_many_outputs_as_one_each():
    # lz25's readout: 200 train rows past the washout, 25 outputs
    for seed in range(3):
        rng = RngStream(seed)
        features = rng.uniform(-1, 1, (200, 100))
        targets = rng.uniform(-1, 1, (200, 25))
        for lam in (0.0, 0.1):
            w_o = fit(features, targets, lam)
            assert w_o.shape == (25, 100)
            each = np.vstack([fit(features, targets[:, [d]], lam) for d in range(25)])
            assert np.max(np.abs(w_o - each)) < 1e-12
            assert np.max(np.abs(w_o - _svd_solve(features, targets, lam))) < 1e-10


def test_ill_conditioned_readout_scores_as_the_pseudo_inverse_does():
    # the narma30 benchmark's first trial (master seed 2027, config 0, seed
    # index 0): bench/run.py holds its scores to a np.linalg.pinv solve at
    # 1e-6 relative, and this holds them at 1e-7; a QR solve that does not
    # round as the SVD does is 4e-7 to 2.6e-6 away on these blocks
    for data_seed in (1, 2, 3, 4):
        dataset, task_class = harness.make_task("narma30", data_seed)
        config = harness.sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_C, "narma30",
                                       task_class, RngStream(2027).child("sampler"))
        deep = build_deep_reservoir(config.layer_configs(), dataset.input_dim,
                                    RngStream(harness.trial_seed(2027, 0, 0)),
                                    concat=config.concat)
        (states,), _, _ = run_states([deep], dataset.inputs, config.washout, config.concat)
        sp, first = dataset.split, config.washout
        train = sp.train[sp.train >= first]
        features, targets = states[train - first], dataset.targets[train]
        assert np.linalg.cond(features) >= 1e11
        w_o = fit(features, targets, 0.0)
        w_ref = (np.linalg.pinv(features, rcond=RIDGE_CUTOFF) @ targets).T
        for rows in (sp.val, sp.test):
            got, want = (nrmse(predict(w, states[rows - first]), dataset.targets[rows])
                         for w in (w_o, w_ref))
            assert abs(got - want) <= 1e-7 * want


# ---------------------------------------------------------------------------
# nrmse


def test_nrmse_zero_for_perfect_prediction():
    target = RngStream(7).uniform(-1, 1, (50, 1))
    assert nrmse(target, target) == 0.0


def test_nrmse_one_for_zero_prediction():
    target = RngStream(8).uniform(-1, 1, (100, 1))
    assert nrmse(np.zeros((100, 1)), target) == pytest.approx(1.0, abs=1e-12)


def test_nrmse_matches_hand_computation():
    pred = np.array([0.1, 0.4, -0.2, 0.9, 1.1, -0.5, 0.3, 0.0, 0.7, -0.1])
    target = np.array([0.0, 0.5, -0.1, 1.0, 1.0, -0.4, 0.2, 0.1, 0.8, 0.0])
    rmse = np.sqrt(sum((p - t) ** 2 for p, t in zip(pred, target)) / 10.0)
    rms = np.sqrt(sum(t * t for t in target) / 10.0)
    assert abs(nrmse(pred[:, None], target[:, None]) - rmse / rms) < 1e-12


def test_nrmse_multivariate_averages_dimensions():
    rng = RngStream(9)
    pred = rng.uniform(-1, 1, (40, 2))
    target = rng.uniform(-1, 1, (40, 2))
    per_dim = [nrmse(pred[:, [d]], target[:, [d]]) for d in range(2)]
    assert nrmse(pred, target) == pytest.approx(np.mean(per_dim), abs=1e-12)


def test_nrmse_scale_invariance():
    rng = RngStream(10)
    pred = rng.uniform(-1, 1, (60, 1))
    target = rng.uniform(-1, 1, (60, 1))
    assert nrmse(3.7 * pred, 3.7 * target) == pytest.approx(nrmse(pred, target), rel=1e-12)


def test_nrmse_zero_target_rejected():
    with pytest.raises(ValueError, match="target is all zero"):
        nrmse(np.ones((10, 1)), np.zeros((10, 1)))


def test_nrmse_rms_normalizer():
    # a constant non-zero target has RMS |c| and scores like any other
    pred = np.array([-2.0, -1.0, -3.0, -2.5])
    target = np.full(4, -2.0)
    rmse = np.sqrt(np.mean((pred - target) ** 2))
    assert nrmse(pred[:, None], target[:, None]) == pytest.approx(rmse / 2.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(10,), (10, 1, 1)])
def test_nrmse_refuses_arrays_that_are_not_samples_by_outputs(shape):
    # a 1-D pair used to be read as one output
    with pytest.raises(ValueError, match=rf"^nrmse expects \(samples x outputs\) arrays, "
                                         rf"got pred shape {re.escape(str(shape))}$"):
        nrmse(np.ones(shape), np.ones(shape))


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_all_correct():
    logits = np.eye(4)
    assert accuracy(logits, np.arange(4)) == 1.0


def test_accuracy_one_hot_targets():
    labels = np.array([2, 0, 1, 2, 1])
    assert accuracy(one_hot(labels, 3), labels) == 1.0


def test_accuracy_random_binary_near_half():
    n = 10000
    logits = RngStream(11).uniform(0, 1, (n, 2))
    labels = RngStream(12).permutation(n) % 2
    assert accuracy(logits, labels) == pytest.approx(0.5, abs=0.02)


def test_accuracy_tie_breaks_to_lowest_class():
    logits = np.array([[0.5, 0.5], [0.3, 0.3]])
    assert accuracy(logits, np.array([0, 0])) == 1.0
    assert accuracy(logits, np.array([1, 1])) == 0.0


def test_accuracy_bounds():
    for seed in range(5):
        logits = RngStream(seed).uniform(-1, 1, (50, 3))
        labels = RngStream(seed + 100).permutation(50) % 3
        assert 0.0 <= accuracy(logits, labels) <= 1.0


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        accuracy(np.zeros((0, 2)), np.array([]))


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_hot(np.array([0, 3]), 3)
