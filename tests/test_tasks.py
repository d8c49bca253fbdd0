import json
import re

import numpy as np
import pytest

from deepreservoir import tasks
from deepreservoir.numerics import RngStream
from deepreservoir.tasks import (
    Dataset,
    GenerationError,
    Split,
    ctxor_targets,
    gen_ctxor,
    gen_lorenz96,
    gen_mackey_glass,
    gen_narma,
    gen_sinmem,
    load_dataset,
    load_sequence_classification,
    lorenz96_trajectory,
    mackey_glass_series,
    merge_train_test,
    narma_targets,
    save_dataset,
    sinmem_targets,
    split,
    write_sequence_classification,
)

# ---------------------------------------------------------------------------
# direct scalar-loop oracles (independent of the vector implementations)


def ctxor_oracle(x, d, p):
    y = []
    for t in range(len(x)):
        a = x[t - d - 1] if t - d - 1 >= 0 else 0.0
        b = x[t - d] if t - d >= 0 else 0.0
        r = a * b
        s = 1.0 if r > 0 else (-1.0 if r < 0 else 0.0)
        y.append((r ** int(p)) * s)
    return np.array(y)


def narma_oracle(x, d):
    y = [0.0] * len(x)
    for t in range(len(x)):
        total = sum(y[t - i] for i in range(1, d + 1) if t - i >= 0)
        y_prev = y[t - 1] if t >= 1 else 0.0
        x_d = x[t - d] if t - d >= 0 else 0.0
        x_1 = x[t - 1] if t >= 1 else 0.0
        y[t] = 0.3 * y_prev + 0.01 * y_prev * total + 1.5 * x_d * x_1 + 0.1
    return np.array(y)


# ---------------------------------------------------------------------------
# ctXOR


def test_ctxor_constant_input_power_identity():
    c, d, p = 0.6, 5, 2.0
    y = ctxor_targets(np.full(50, c), d, p)
    assert np.allclose(y[d + 1:], c ** (2 * p))


def test_ctxor_p_one_is_absolute_value():
    x = RngStream(1).uniform(-0.8, 0.8, 40)
    y = ctxor_targets(x, 3, 1.0)
    r = np.array([x[t - 4] * x[t - 3] if t >= 4 else 0.0 for t in range(40)])
    assert np.allclose(y, np.abs(r))


def test_ctxor_matches_scalar_oracle_exactly():
    x = RngStream(2).uniform(-0.8, 0.8, 50)
    assert np.array_equal(ctxor_targets(x, 5, 2.0), ctxor_oracle(x, 5, 2.0))


def test_gen_ctxor_shapes_and_range():
    ds = gen_ctxor(200, 5, 2.0, RngStream(3))
    assert ds.inputs.shape == (200, 1)
    assert ds.targets.shape == (200, 1)
    assert np.all(np.abs(ds.inputs) < 0.8)
    assert ds.kind == "regression"


def test_gen_ctxor_rejects_short_series():
    with pytest.raises(ValueError):
        gen_ctxor(6, 5, 2.0, RngStream(0))


# ---------------------------------------------------------------------------
# SinMem


def test_sinmem_zero_past_gives_zero():
    x = np.zeros(30)
    assert np.array_equal(sinmem_targets(x, 10), np.zeros(30))


def test_sinmem_half_gives_one():
    x = np.full(30, 0.5)
    y = sinmem_targets(x, 10)
    assert np.allclose(y[10:], 1.0)


def test_sinmem_matches_direct_evaluation():
    x = RngStream(4).uniform(-0.8, 0.8, 60)
    y = sinmem_targets(x, 7)
    expected = np.array([np.sin(np.pi * x[t - 7]) if t >= 7 else 0.0 for t in range(60)])
    assert np.array_equal(y, expected)


# ---------------------------------------------------------------------------
# chaotic flow


def test_lorenz96_equilibrium_stays_constant():
    x0 = np.full(5, 8.0)
    traj = lorenz96_trajectory(x0, 100, 0.05)
    assert np.array_equal(traj, np.tile(x0, (101, 1)))


def test_lorenz96_step_halving_fourth_order():
    x0 = np.full(5, 8.0) + RngStream(0).uniform(-0.5, 0.5, 5)
    settle = lorenz96_trajectory(x0, 10000, 0.01)[-1]
    n = 1000  # ten time units at dt = 0.01
    coarse = lorenz96_trajectory(settle, n, 0.01)[-1]
    half = lorenz96_trajectory(settle, 2 * n, 0.005)[-1]
    quarter = lorenz96_trajectory(settle, 4 * n, 0.0025)[-1]
    ratio = np.linalg.norm(coarse - half) / np.linalg.norm(half - quarter)
    assert 12.0 <= ratio <= 20.0


def test_lorenz96_trajectory_stays_bounded():
    ds = gen_lorenz96(10000, horizon=25, rng=RngStream(5))
    assert np.max(np.abs(ds.inputs)) < 20.0


def test_gen_lorenz96_horizon_alignment():
    ds = gen_lorenz96(300, horizon=25, rng=RngStream(6))
    assert ds.inputs.shape == (300, 5)
    # the target at t is the input trajectory 25 steps later
    assert np.array_equal(ds.targets[:-25], ds.inputs[25:])


# ---------------------------------------------------------------------------
# delay oscillator


def test_mackey_glass_zero_history_is_fixed_point(monkeypatch):
    monkeypatch.setattr(tasks, "_MG_TRANSIENT", 0)
    monkeypatch.setattr(tasks, "_MG_INITIAL", 0.0)
    s = mackey_glass_series(20)
    assert np.array_equal(s, np.zeros(20))


def test_mackey_glass_unit_history_is_fixed_point(monkeypatch):
    # 0.2 * 1 / (1 + 1) - 0.1 * 1 = 0
    monkeypatch.setattr(tasks, "_MG_TRANSIENT", 0)
    monkeypatch.setattr(tasks, "_MG_INITIAL", 1.0)
    s = mackey_glass_series(20)
    assert np.allclose(s, 1.0)


def test_mackey_glass_attractor_range():
    s = mackey_glass_series(500)
    assert 0.2 < s.min() and s.max() < 1.5


def test_mackey_glass_euler_step_halving_first_order(monkeypatch):
    monkeypatch.setattr(tasks, "_MG_TRANSIENT", 0)
    runs = []
    for dt in (0.1, 0.05, 0.025):
        monkeypatch.setattr(tasks, "_MG_DT", dt)
        runs.append(mackey_glass_series(50))
    a, b, c = runs
    ratio = np.linalg.norm(a - b) / np.linalg.norm(b - c)
    assert 1.5 <= ratio <= 2.8


def test_gen_mackey_glass_horizon_alignment():
    ds = gen_mackey_glass(200, horizon=84)
    assert ds.inputs.shape == (200, 1)
    assert np.array_equal(ds.targets[:-84, 0], ds.inputs[84:, 0])


# ---------------------------------------------------------------------------
# NARMA


def test_narma_zero_input_converges_to_fixed_point():
    y = narma_targets(np.zeros(400), 30)
    yfp = 0.0
    for _ in range(10000):
        yfp = 0.3 * yfp + 0.01 * yfp * (30 * yfp) + 0.1
    assert y[-1] == pytest.approx(yfp, abs=1e-12)


def test_narma_first_step_from_zero_history():
    y = narma_targets(RngStream(7).uniform(0, 0.5, 50), 30)
    assert y[0] == pytest.approx(0.1)


def test_narma_matches_scalar_oracle_exactly():
    x = RngStream(8).uniform(0, 0.5, 200)
    assert np.array_equal(narma_targets(x, 30), narma_oracle(x, 30))
    x = RngStream(8).uniform(0, 0.2, 200)
    assert np.array_equal(narma_targets(x, 60), narma_oracle(x, 60))
    short = RngStream(8).uniform(0, 0.5, 20)  # every step inside the zero history
    assert np.array_equal(narma_targets(short, 30), narma_oracle(short, 30))


def test_narma_divergence_guard_raises():
    x = np.full(300, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle has no guard
        first = int(np.argmax(np.abs(narma_oracle(x, 30)) > 1e3))
    with pytest.raises(GenerationError, match=f"diverged at step {first}$"):
        narma_targets(x, 30)


def test_gen_narma_deterministic_and_finite():
    a = gen_narma(500, 30, RngStream(9))
    b = gen_narma(500, 30, RngStream(9))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.all(np.isfinite(a.targets))
    assert np.all((a.inputs >= 0) & (a.inputs <= 0.5))


# ---------------------------------------------------------------------------
# splits


def test_contiguous_split_memory_scheme():
    ds = gen_sinmem(6000, 10, RngStream(10))
    ds = split(ds, (4000, 1000, 1000))
    assert np.array_equal(ds.split.train, np.arange(0, 4000))
    assert np.array_equal(ds.split.val, np.arange(4000, 5000))
    assert np.array_equal(ds.split.test, np.arange(5000, 6000))


def test_contiguous_split_forecast_scheme():
    ds = gen_lorenz96(1200, horizon=25, rng=RngStream(11))
    ds = split(ds, (400, 400, 400))
    assert len(ds.split.train) == len(ds.split.val) == len(ds.split.test) == 400
    assert ds.split.train[-1] < ds.split.val[0] <= ds.split.val[-1] < ds.split.test[0]


def test_contiguous_split_rejects_overrun():
    ds = gen_sinmem(100, 10, RngStream(12))
    with pytest.raises(ValueError):
        split(ds, (80, 20, 20))


def test_dataset_refuses_targets_that_do_not_match_its_samples():
    with pytest.raises(ValueError, match=r"^500 targets for 600 steps$"):
        Dataset(inputs=np.zeros((600, 1)), targets=np.zeros((500, 1)), kind="regression")
    with pytest.raises(ValueError, match=r"^2 targets for 3 sequences$"):
        Dataset(inputs=[np.zeros((4, 1))] * 3, targets=np.array([0, 1]), kind="classification")


@pytest.mark.parametrize("part, idx, span", [
    ("test", np.arange(500, 601), r"\[500, 600\]"),
    ("train", np.arange(-1, 400), r"\[-1, 399\]"),
], ids=["test-past-end", "train-negative"])
def test_dataset_refuses_split_indices_outside_its_samples(part, idx, span):
    parts = dict(train=np.arange(400), val=np.arange(400, 500), test=np.arange(500, 600))
    parts[part] = idx
    with pytest.raises(ValueError, match=rf"^{part} split indices span {span}, "
                                         r"outside \[0, 600\) of the steps$"):
        Dataset(inputs=np.zeros((600, 1)), targets=np.zeros((600, 1)), kind="regression",
                split=Split(**parts))


@pytest.mark.parametrize("parts, message", [
    (dict(train=np.arange(400), val=np.arange(300, 500), test=np.arange(300, 600)),
     "the train and val split parts share index 300"),
    (dict(train=np.arange(300), val=np.arange(300, 500), test=np.arange(450, 600)),
     "the val and test split parts share index 450"),
    (dict(train=np.arange(400), val=np.arange(400, 500), test=np.array([10, 550])),
     "the train and test split parts share index 10"),
    (dict(train=np.array([0, 1, 1]), val=np.arange(400, 500), test=np.arange(500, 600)),
     "the train split part holds index 1 twice"),
], ids=["all-three", "val-test", "train-test", "repeat"])
def test_dataset_refuses_split_parts_that_overlap(parts, message):
    # rows of one part would leak into another's fit or score
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(inputs=np.zeros((600, 1)), targets=np.zeros((600, 1)), kind="regression",
                split=Split(**parts))


def test_dataset_refuses_split_indices_that_are_not_integers():
    parts = dict(train=np.arange(400) + 0.5, val=np.arange(400, 500), test=np.arange(500, 600))
    with pytest.raises(ValueError, match=r"^train split indices must be integers, got float64$"):
        Dataset(inputs=np.zeros((600, 1)), targets=np.zeros((600, 1)), kind="regression",
                split=Split(**parts))


def test_dataset_accepts_an_empty_split_part_of_any_dtype():
    for empty in (np.arange(0), np.array([]), np.zeros(0, dtype=np.int32)):
        ds = Dataset(inputs=np.zeros((600, 1)), targets=np.zeros((600, 1)), kind="regression",
                     split=Split(train=np.arange(400), val=empty, test=np.arange(500, 600)))
        assert len(ds.split.val) == 0


def test_dataset_reads_a_one_dimensional_series_as_one_channel_without_a_copy():
    x, y = np.linspace(0, 1, 40), np.linspace(1, 2, 40)
    ds = Dataset(inputs=x, targets=y, kind="regression")
    assert ds.inputs.shape == ds.targets.shape == (40, 1) and ds.input_dim == 1
    assert np.shares_memory(ds.inputs, x) and np.shares_memory(ds.targets, y)
    ints = Dataset(inputs=np.arange(5), targets=np.arange(5), kind="regression")
    assert ints.inputs.dtype == ints.targets.dtype == np.float64
    seqs = [np.zeros(3), np.ones((4, 1))]
    ds = Dataset(inputs=seqs, targets=np.array([0, 1]), kind="classification")
    assert [seq.shape for seq in ds.inputs] == [(3, 1), (4, 1)] and ds.input_dim == 1
    assert all(np.shares_memory(a, b) for a, b in zip(ds.inputs, seqs))


def test_dataset_refuses_sequences_whose_channel_counts_differ():
    seqs = [np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 1))]
    with pytest.raises(ValueError, match=r"^sequence 2 has 1 input channels, sequence 0 has 2$"):
        Dataset(inputs=seqs, targets=np.array([0, 1, 0]), kind="classification")


@pytest.mark.parametrize("kind, inputs, message", [
    ("regression", np.zeros((6, 2, 1)), r"^input must be \(T,\) or \(T, N\), got shape \(6, 2, 1\)$"),
    ("classification", [np.zeros(3), np.zeros(())],
     r"^input of sequence 1 must be \(T,\) or \(T, N\), got shape \(\)$"),
], ids=["regression", "classification"])
def test_dataset_refuses_inputs_that_are_not_steps(kind, inputs, message):
    with pytest.raises(ValueError, match=message):
        Dataset(inputs=inputs, targets=np.zeros(len(inputs)), kind=kind)


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_dataset_refuses_a_non_finite_input_by_its_step(kind):
    x = np.zeros((30, 2))
    x[17, 1] = np.inf
    if kind == "regression":
        with pytest.raises(ValueError, match=r"^non-finite input at step 17$"):
            Dataset(inputs=x, targets=np.zeros(30), kind=kind)
    else:
        with pytest.raises(ValueError, match=r"^non-finite input at step 17 of sequence 1$"):
            Dataset(inputs=[np.zeros((5, 2)), x], targets=np.array([0, 1]), kind=kind)


def test_dataset_refuses_a_non_finite_target_by_its_step():
    y = np.zeros(30)
    y[12] = np.nan
    with pytest.raises(ValueError, match=r"^non-finite target at step 12$"):
        Dataset(inputs=np.zeros((30, 1)), targets=y, kind="regression")


@pytest.mark.parametrize("labels, message", [
    ([0.0, 0.5, 1.5], r"^label 0\.5 of sequence 1 is not a whole number >= 0$"),
    ([0, 1, -1], r"^label -1 of sequence 2 is not a whole number >= 0$"),
    ([0.0, np.nan, 1.0], r"^label nan of sequence 1 is not a whole number >= 0$"),
    ([[0], [1], [1]], r"^labels must be \(n,\), one per sequence, got shape \(3, 1\)$"),
], ids=["half", "negative", "nan", "column"])
def test_dataset_refuses_labels_that_are_not_class_codes(labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(inputs=[np.zeros((4, 1))] * 3, targets=np.array(labels), kind="classification")


def test_dataset_stores_whole_float_labels_as_ints():
    ds = Dataset(inputs=[np.zeros((4, 1))] * 3, targets=np.array([2.0, 0.0, 1.0]),
                 kind="classification")
    assert ds.targets.dtype.kind == "i" and ds.targets.tolist() == [2, 0, 1]
    assert ds.n_classes == 3


def _toy_classification(n_per_class=50, t=20, classes=2, seed=13):
    rng = RngStream(seed)
    seqs, labels = [], []
    for c in range(classes):
        for _ in range(n_per_class):
            seqs.append(rng.uniform(-1, 1, (t, 1)) + c)
            labels.append(c)
    return Dataset(inputs=seqs, targets=np.asarray(labels), kind="classification")


def test_stratified_split_balanced_two_class():
    ds = _toy_classification()
    ds = split(ds, 0.7, seed=3)
    labels = ds.targets
    for c in (0, 1):
        assert np.sum(labels[ds.split.train] == c) == 35
        assert np.sum(labels[ds.split.val] == c) == 15
    assert len(np.intersect1d(ds.split.train, ds.split.val)) == 0


def test_stratified_split_respects_existing_test_block():
    train = _toy_classification(n_per_class=20, seed=14)
    test = _toy_classification(n_per_class=10, seed=15)
    merged = merge_train_test(train, test)
    assert len(merged.split.test) == 20
    resplit = split(merged, 0.7, seed=1)
    assert np.array_equal(resplit.split.test, merged.split.test)
    assert len(resplit.split.train) + len(resplit.split.val) == 40
    # stratification keeps class proportions within one sequence
    for c in (0, 1):
        assert abs(np.sum(resplit.targets[resplit.split.train] == c) - 14) <= 1


# ---------------------------------------------------------------------------
# classification loading


def test_sequence_file_roundtrip(tmp_path):
    rng = RngStream(16)
    seqs = [rng.uniform(-2, 2, (8, 1)) for _ in range(3)]
    labels = [0, 1, 0]
    path = tmp_path / "tiny.txt"
    write_sequence_classification(path, seqs, labels)
    ds = load_sequence_classification(path)
    assert np.array_equal(ds.targets, np.array(labels))
    for got, want in zip(ds.inputs, seqs):
        assert np.array_equal(got, want)


def test_loader_without_permutation_keeps_order(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n")
    ds = load_sequence_classification(path)
    assert np.array_equal(ds.inputs[0][:, 0], [1.0, 2.0, 3.0])


def test_loader_permutation_deterministic(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0,1.0,2.0,3.0,4.0\n1,5.0,6.0,7.0,8.0\n")
    a = load_sequence_classification(path, permutation_seed=9)
    b = load_sequence_classification(path, permutation_seed=9)
    for x, y in zip(a.inputs, b.inputs):
        assert np.array_equal(x, y)
    ident = load_sequence_classification(path)
    same = all(np.array_equal(x, y) for x, y in zip(a.inputs, ident.inputs))
    assert not same  # the draw for 4 positions under this seed moves something


def test_loader_flattened_image_scaling(tmp_path):
    path = tmp_path / "img.csv"
    path.write_text("7,0,127.5,255\n")
    ds = load_sequence_classification(path, fmt="flattened-image-csv")
    assert np.allclose(ds.inputs[0][:, 0], [0.0, 0.5, 1.0])


def test_loader_reports_line_number_on_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_sequence_classification(path)


def test_loader_whitespace_separated(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("2 0.5 0.25\n1 0.1 0.9\n")
    ds = load_sequence_classification(path)
    # labels remap to contiguous 0-based codes sorted by value
    assert np.array_equal(ds.targets, np.array([1, 0]))


# ---------------------------------------------------------------------------
# dataset cache


def test_regression_cache_roundtrip(tmp_path):
    ds = split(gen_sinmem(120, 10, RngStream(17)), (80, 20, 20))
    save_dataset(ds, tmp_path / "cache", meta={"generator": "sinmem", "d": 10})
    back = load_dataset(tmp_path / "cache")
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.split.train, ds.split.train)
    assert back.kind == "regression"


def test_classification_cache_roundtrip(tmp_path):
    ds = split(_toy_classification(n_per_class=4, t=6), 0.5, seed=0)
    save_dataset(ds, tmp_path / "cache")
    back = load_dataset(tmp_path / "cache")
    assert back.kind == "classification"
    assert np.array_equal(back.targets, ds.targets)
    for got, want in zip(back.inputs, ds.inputs):
        assert np.array_equal(got, want)
    assert np.array_equal(back.split.val, ds.split.val)


def _assert_exact(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def _assert_same_split(got, want):
    assert (got.split is None) == (want.split is None)
    if want.split is not None:
        for part in ("train", "val", "test"):
            _assert_exact(getattr(got.split, part), getattr(want.split, part))


@pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 3)])
@pytest.mark.parametrize("with_split", [True, False])
def test_regression_cache_keeps_shape_and_dtype(tmp_path, shape, with_split):
    rng = RngStream(18)
    ds = Dataset(inputs=rng.uniform(-1, 1, shape), targets=rng.uniform(-1, 1, (50, 2)),
                 kind="regression")
    if with_split:
        ds = split(ds, (30, 10, 10))
    save_dataset(ds, tmp_path / "cache")
    back = load_dataset(tmp_path / "cache")
    assert back.kind == "regression"
    _assert_exact(back.inputs, ds.inputs)
    _assert_exact(back.targets, ds.targets)
    _assert_same_split(back, ds)


@pytest.mark.parametrize("with_split", [True, False])
def test_classification_cache_keeps_mixed_lengths_channels_and_labels(tmp_path, with_split):
    rng = RngStream(19)
    seqs = [rng.uniform(-1, 1, (t, 2)) for t in (5, 9, 1, 7, 9, 3)]
    ds = Dataset(inputs=seqs, targets=np.array([0, 2, 1, 0, 1, 2]), kind="classification")
    if with_split:
        ds = split(ds, 0.5, seed=4)
    save_dataset(ds, tmp_path / "cache")
    back = load_dataset(tmp_path / "cache")
    assert back.kind == "classification"
    _assert_exact(back.targets, ds.targets)
    assert back.targets.dtype.kind == "i"
    assert len(back.inputs) == len(seqs)
    for got, want in zip(back.inputs, seqs):
        _assert_exact(got, want)
    _assert_same_split(back, ds)


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_cache_round_trip_of_one_dimensional_sequences_is_exact(tmp_path, kind):
    rng = RngStream(20)
    if kind == "regression":
        ds = Dataset(inputs=rng.uniform(-1, 1, 40), targets=rng.uniform(-1, 1, 40), kind=kind)
    else:
        ds = Dataset(inputs=[rng.uniform(-1, 1, t) for t in (5, 9, 1, 7)],
                     targets=np.array([0, 1, 1, 0]), kind=kind)
    save_dataset(ds, tmp_path / "cache")
    back = load_dataset(tmp_path / "cache")
    if kind == "regression":
        _assert_exact(back.inputs, ds.inputs)
    else:
        assert len(back.inputs) == len(ds.inputs)
        for got, want in zip(back.inputs, ds.inputs):
            _assert_exact(got, want)
    _assert_exact(back.targets, ds.targets)


def test_cache_rejects_old_csv_layout(tmp_path):
    old = tmp_path / "cache"
    old.mkdir()
    (old / "inputs.csv").write_text("0.5\n0.25\n")
    (old / "targets.csv").write_text("1.0\n0.0\n")
    (old / "manifest.json").write_text('{"kind": "regression", "split": null, "meta": {}}')
    with pytest.raises(ValueError, match="regenerate it with `deepreservoir generate-data`") as err:
        load_dataset(old)
    assert str(old) in str(err.value)


@pytest.mark.parametrize("kind, dropped", [
    ("regression", "targets"), ("regression", "inputs"), ("classification", "sequences"),
    ("classification", "lengths"), ("classification", "targets")])
def test_cache_refuses_an_array_its_kind_needs_by_name(tmp_path, kind, dropped):
    # a cache without targets used to raise the bare KeyError: 'targets'
    ds = (split(gen_sinmem(120, 10, RngStream(17)), (80, 20, 20)) if kind == "regression"
          else split(_toy_classification(n_per_class=4, t=6), 0.5, seed=0))
    cache = tmp_path / "cache"
    save_dataset(ds, cache)
    with np.load(cache / "arrays.npz") as z:
        arrays = {name: z[name] for name in z.files if name != dropped}
    np.savez(cache / "arrays.npz", **arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(cache))}: arrays.npz lacks "
                                         f"{dropped}, which a {kind} cache needs$"):
        load_dataset(cache)


def test_cache_refuses_a_manifest_without_its_kind(tmp_path):
    cache = tmp_path / "cache"
    save_dataset(split(gen_sinmem(120, 10, RngStream(17)), (80, 20, 20)), cache)
    manifest = json.loads((cache / "manifest.json").read_text())
    del manifest["kind"]
    (cache / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{re.escape(str(cache))}: manifest.json lacks kind$"):
        load_dataset(cache)
