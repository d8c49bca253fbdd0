import re

import numpy as np
import pytest

from deepreservoir.numerics import RngStream
from deepreservoir.readout import accuracy, fit, nrmse, one_hot, predict


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
