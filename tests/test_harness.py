import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from deepreservoir import harness
from deepreservoir.harness import (
    ExperimentConfig,
    HyperGrid,
    ModelClass,
    ResultsTable,
    TrialResult,
    aggregate,
    emit_reports,
    make_task,
    random_search,
    read_results_csv,
    run_trial,
    sample_config,
    trial_seed,
)
from deepreservoir.numerics import RngStream
from deepreservoir.readout import fit, nrmse, predict
from deepreservoir.reservoir import (
    LayerConfig,
    ResidualKind,
    build_deep_reservoir,
    forward,
    run_states,
)
from deepreservoir.tasks import (
    Dataset,
    Split,
    load_dataset,
    load_sequence_classification,
    merge_train_test,
    save_dataset,
    split,
    write_sequence_classification,
)


def _tiny_task(name="sinmem10", seed=0, length=600):
    return make_task(name, seed, length=length)


def _leaky_config(**overrides):
    base = dict(model_class=ModelClass.LEAKY_ESN, task="sinmem10",
                total_units=30, tau=0.5, washout=50)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config sampling


def test_leaky_draw_has_tau_and_no_mixing_coefficients():
    rng = RngStream(1)
    for i in range(20):
        cfg = sample_config(HyperGrid(), ModelClass.LEAKY_ESN, "sinmem10", "memory", rng)
        assert cfg.tau is not None
        assert cfg.alpha is None and cfg.beta is None
        assert cfg.n_layers == 1 and not cfg.concat
        assert cfg.inter_rho is None


def test_residual_draw_has_mixing_and_no_tau():
    rng = RngStream(2)
    cfg = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_C, "narma30", "forecasting", rng)
    assert cfg.tau is None
    assert cfg.alpha is not None and cfg.beta is not None
    assert cfg.n_layers in (2, 3, 4, 5)
    assert cfg.inter_alpha is not None and cfg.inter_rho is not None


def test_memory_only_values_gated_by_task_class():
    grid = HyperGrid()
    rng = RngStream(3)
    memory_draws = {sample_config(grid, ModelClass.DEEP_RES_ESN_R, "sinmem10", "memory",
                                  rng).alpha for _ in range(300)}
    assert 0.99 in memory_draws or 0.0001 in memory_draws
    rng = RngStream(4)
    for _ in range(300):
        cfg = sample_config(grid, ModelClass.DEEP_RES_ESN_R, "narma30", "forecasting", rng)
        assert cfg.alpha not in (0.0001, 0.99)
        assert cfg.beta not in (0.0001, 0.99)
        assert cfg.inter_alpha not in (0.0001, 0.99)


def test_grid_values_are_class_constants():
    grid = HyperGrid()
    assert grid.rho == HyperGrid.rho == (0.9, 1.0, 1.1)
    with pytest.raises(TypeError):
        HyperGrid(rho=(1.0,))
    with pytest.raises(AttributeError):
        grid.rho = (1.0,)


def test_classification_draw_uses_wider_penalty_grid():
    grid = HyperGrid()
    rng = RngStream(5)
    lams = {sample_config(grid, ModelClass.RES_ESN_I, "toy", "classification", rng).lam
            for _ in range(200)}
    assert lams - set(grid.lam_classification) == set()
    assert len(lams) > 1
    rng = RngStream(6)
    for _ in range(20):
        assert sample_config(grid, ModelClass.RES_ESN_I, "sinmem10", "memory", rng).lam == 0.0


def test_consecutive_draws_differ():
    rng = RngStream(7)
    a = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_R, "sinmem10", "memory", rng)
    b = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_R, "sinmem10", "memory", rng)
    assert a.to_dict() != b.to_dict()


def test_config_roundtrips_through_dict():
    cfg = sample_config(HyperGrid(), ModelClass.DEEP_ESN, "mg", "forecasting", RngStream(8))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="t",
                         tau=0.5, n_layers=2)
    with pytest.raises(ValueError):
        ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="t",
                         alpha=0.5, beta=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(model_class=ModelClass.RES_ESN_R, task="t",
                         tau=0.5)
    with pytest.raises(ValueError, match="washout must be >= 0, got -5$"):
        _leaky_config(washout=-5)
    # a JSON config can hold any type; a truthy string used to run as concat
    for field, value, kind in [("concat", "false", "a bool"), ("concat", 1, "a bool"),
                               ("n_layers", 2.0, "an integer"), ("total_units", "30", "an integer"),
                               ("total_units", True, "an integer"), ("washout", True, "an integer"),
                               ("config_id", 1.5, "an integer")]:
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {kind}, got {value!r}")):
            _leaky_config(**{field: value})
    with pytest.raises(ValueError, match="cannot split 3 units across 4 layers"):
        ExperimentConfig(model_class=ModelClass.DEEP_RES_ESN_C, task="t",
                         total_units=3, n_layers=4, concat=True, alpha=0.5, beta=0.5,
                         inter_rho=1.0, inter_omega_x=1.0, inter_omega_b=0.0,
                         inter_alpha=0.5, inter_beta=0.5)


OPTIONAL_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None]
SHAPES = [(model, n) for model in ModelClass for n in ((1, 2) if model.is_deep else (1,))]


@pytest.mark.parametrize("model, n_layers", SHAPES,
                         ids=[f"{model.value}-{n}" for model, n in SHAPES])
def test_config_refuses_each_optional_field_it_does_not_read(model, n_layers):
    read = ExperimentConfig.optional_fields(model, n_layers)
    values = {name: 0.5 for name in read}

    def build(**fields):
        return ExperimentConfig(model_class=model, task="t",
                                n_layers=n_layers, **fields)

    assert build(**values).layer_configs()[-1].beta == 0.5
    for name in OPTIONAL_FIELDS:
        if name in read:
            fields = {k: v for k, v in values.items() if k != name}
            message = f"missing: {name}; set but unused: none$"
        else:
            fields = dict(values, **{name: 0.5})
            message = f"missing: none; set but unused: {name}$"
        with pytest.raises(ValueError, match=message):
            build(**fields)


def test_config_refusal_names_the_fields_its_class_reads():
    with pytest.raises(ValueError, match=r"^a 1-layer LeakyESN config reads tau; missing: none; "
                                         r"set but unused: inter_rho$"):
        ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="t",
                         tau=0.5, inter_rho=7.0)
    cfg = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_C, "sinmem10", "memory",
                        RngStream(3))
    with pytest.raises(ValueError, match=r"reads alpha, beta, inter_alpha, inter_beta, "
                                         r"inter_rho, inter_omega_x, inter_omega_b; "
                                         r"missing: none; set but unused: inter_tau$"):
        dataclasses.replace(cfg, inter_tau=0.5)


# The interval each hyperparameter of a config must lie in (README, `harness`).
INTERVALS = {"rho": "(0, inf)", "omega_x": "[0, inf)", "omega_b": "[0, inf)",
             "tau": "(0, 1]", "alpha": "[0, 1]", "beta": "(0, 1]", "lam": "[0, inf)"}


def _edges(interval):
    """An interval's edges, each end itself if closed and the float next to
    it inside if open, and the values just outside it: NaN, both infinities,
    the float next to a closed finite end outside, and an open end itself."""
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    closed_lo, closed_hi = interval[0] == "[", interval[-1] == "]"
    edges = [lo if closed_lo else float(np.nextafter(lo, np.inf)),
             hi if closed_hi else float(np.nextafter(hi, -np.inf))]
    outside = [float("nan"), float("inf"), -float("inf"),
               float(np.nextafter(lo, -np.inf)) if closed_lo else lo]
    if closed_hi:
        outside.append(float(np.nextafter(hi, np.inf)))
    return edges, outside


@pytest.mark.parametrize("model, n_layers, field, value", [
    (ModelClass.LEAKY_ESN, 1, "tau", 1.5),
    (ModelClass.LEAKY_ESN, 1, "tau", 0.0),
    (ModelClass.DEEP_ESN, 3, "inter_tau", float("nan")),
    (ModelClass.RES_ESN_R, 1, "alpha", -0.1),
    (ModelClass.DEEP_RES_ESN_C, 2, "inter_alpha", 1.2),
    (ModelClass.RES_ESN_C, 1, "beta", 0.0),
    (ModelClass.DEEP_RES_ESN_I, 2, "inter_beta", float("nan")),
    (ModelClass.LEAKY_ESN, 1, "rho", float("nan")),
    (ModelClass.RES_ESN_I, 1, "rho", 0.0),
    (ModelClass.DEEP_ESN, 2, "inter_rho", -1.0),
    (ModelClass.RES_ESN_C, 1, "omega_x", -0.5),
    (ModelClass.DEEP_RES_ESN_R, 3, "inter_omega_x", float("nan")),
    (ModelClass.LEAKY_ESN, 1, "omega_b", float("inf")),
    (ModelClass.DEEP_RES_ESN_C, 2, "inter_omega_b", float("inf")),
])
def test_config_names_the_mixing_field_it_refuses(model, n_layers, field, value):
    # rho, the scalings and their inter_ twins used to pass the config and
    # be refused only by the LayerConfig a trial builds, under its own names
    fields = {name: 0.5 for name in ExperimentConfig.optional_fields(model, n_layers)}
    fields[field] = value
    with pytest.raises(ValueError) as refused:
        ExperimentConfig(model_class=model, task="t", n_layers=n_layers, **fields)
    interval = INTERVALS[field.removeprefix("inter_")]
    assert str(refused.value) == f"{field} must lie in {interval}, got {value}"
    for edge in _edges(interval)[0]:
        fields[field] = edge
        ExperimentConfig(model_class=model, task="t", n_layers=n_layers, **fields).layer_configs()


@pytest.mark.parametrize("model, n_layers, field, value", [
    (ModelClass.LEAKY_ESN, 1, "rho", "0.9"),
    (ModelClass.LEAKY_ESN, 1, "lam", "0"),
    (ModelClass.LEAKY_ESN, 1, "tau", [0.5]),
    (ModelClass.DEEP_RES_ESN_C, 2, "inter_alpha", "1"),
    (ModelClass.RES_ESN_R, 1, "omega_x", True),
    (ModelClass.DEEP_ESN, 3, "inter_omega_b", complex(0.5, 0.0)),
])
def test_config_names_a_hyperparameter_that_is_not_a_real_number(model, n_layers, field, value):
    # these used to fail comparing against the interval, with a message
    # such as "'<' not supported between instances of 'float' and 'str'"
    fields = {name: 0.5 for name in ExperimentConfig.optional_fields(model, n_layers)}
    fields[field] = value
    with pytest.raises(ValueError) as refused:
        ExperimentConfig(model_class=model, task="t", n_layers=n_layers, **fields)
    assert str(refused.value) == f"{field} must be a real number, got {value!r}"


@pytest.mark.parametrize("model, n_layers", SHAPES,
                         ids=[f"{model.value}-{n}" for model, n in SHAPES])
def test_config_holds_every_hyperparameter_to_its_interval(model, n_layers):
    grid = HyperGrid()
    rng = RngStream(SHAPES.index((model, n_layers)))
    read = ["rho", "omega_x", "omega_b", "lam"] + ExperimentConfig.optional_fields(model, n_layers)
    for _ in range(3):
        base = {name: rng.choice(getattr(grid, name.removeprefix("inter_"))) for name in read}

        def build(name, value):
            return ExperimentConfig(model_class=model, task="t", n_layers=n_layers,
                                    **dict(base, **{name: value}))

        for name in read:
            interval = INTERVALS[name.removeprefix("inter_")]
            edges, outside = _edges(interval)
            for value in outside:
                with pytest.raises(ValueError) as refused:
                    build(name, value)
                assert str(refused.value) == f"{name} must lie in {interval}, got {value}"
            for value in edges:
                layers = build(name, value).layer_configs()
                assert len(layers) == n_layers


def test_each_model_class_is_one_row():
    identity, cyclic = ResidualKind.IDENTITY, ResidualKind.CYCLIC
    random = ResidualKind.RANDOM_ORTHOGONAL
    rows = {model.value: (model.is_deep, model.is_leaky, model.residual_kind)
            for model in ModelClass}
    assert rows == {
        "LeakyESN": (False, True, identity),
        "ResESN_R": (False, False, random),
        "ResESN_C": (False, False, cyclic),
        "ResESN_I": (False, False, identity),
        "DeepESN": (True, True, identity),
        "DeepResESN_R": (True, False, random),
        "DeepResESN_C": (True, False, cyclic),
        "DeepResESN_I": (True, False, identity),
    }
    assert [ModelClass(value) for value in rows] == list(ModelClass)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_config_refuses_a_lam_that_is_not_finite_and_non_negative(lam):
    with pytest.raises(ValueError) as refused:
        _leaky_config(lam=lam)
    assert str(refused.value) == f"lam must lie in [0, inf), got {lam}"


def test_config_is_frozen():
    cfg = _leaky_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_layers = 3
    assert cfg.n_layers == 1


@pytest.mark.parametrize("model, kwargs, message", [
    (ModelClass.LEAKY_ESN, dict(washout=-5), "washout must be >= 0, got -5$"),
    (ModelClass.DEEP_RES_ESN_C, dict(total_units=3, master_seed=3),
     "cannot split 3 units across 5 layers"),
    # refused whether or not the draw holds a stack too deep for the units
    *[(ModelClass.DEEP_RES_ESN_C, dict(total_units=4, budget=2, master_seed=seed),
       "cannot split 4 units across 5 layers") for seed in range(6)],
], ids=["negative-washout", "unsplittable-budget",
        *[f"unsplittable-budget-seed{seed}" for seed in range(6)]])
def test_search_refuses_a_bad_config_before_any_trial(model, kwargs, message, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_config", no_trial)
    dataset, task_class = _tiny_task()
    with pytest.raises(ValueError, match=message):
        random_search(HyperGrid(), model, dataset, "sinmem10", task_class,
                      **{"budget": 4, "n_seeds": 1, "master_seed": 0, **kwargs})


def test_layer_configs_leaky_mapping():
    cfg = ExperimentConfig(model_class=ModelClass.DEEP_ESN, task="t",
                           total_units=60, n_layers=3, concat=True, tau=0.2, inter_tau=0.9,
                           rho=1.0, inter_rho=0.9, omega_x=1.0, inter_omega_x=0.1,
                           omega_b=0.0, inter_omega_b=0.01)
    layers = cfg.layer_configs()
    assert [l.hidden_size for l in layers] == [20, 20, 20]
    assert layers[0].alpha == pytest.approx(0.8) and layers[0].beta == 0.2
    assert layers[1].alpha == pytest.approx(0.1) and layers[1].beta == 0.9
    assert layers[0].spectral_radius == 1.0 and layers[1].spectral_radius == 0.9
    assert all(l.residual is ResidualKind.IDENTITY for l in layers)


def test_layer_configs_concat_remainder():
    cfg = ExperimentConfig(model_class=ModelClass.DEEP_RES_ESN_R, task="t",
                           total_units=100, n_layers=3, concat=True,
                           alpha=0.5, beta=0.5, inter_alpha=0.1, inter_beta=0.9,
                           inter_rho=1.0, inter_omega_x=1.0, inter_omega_b=0.0)
    assert [l.hidden_size for l in cfg.layer_configs()] == [34, 33, 33]


# ---------------------------------------------------------------------------
# trials


def test_run_trial_deterministic():
    dataset, _ = _tiny_task()
    cfg = _leaky_config()
    a = run_trial(cfg, dataset, seed=123)
    b = run_trial(cfg, dataset, seed=123)
    assert a.val_metric == b.val_metric
    assert a.test_metric == b.test_metric
    assert not a.failed


def test_run_trial_different_seeds_differ():
    dataset, _ = _tiny_task()
    cfg = _leaky_config()
    a = run_trial(cfg, dataset, seed=1)
    b = run_trial(cfg, dataset, seed=2)
    assert a.val_metric != b.val_metric


def test_single_layer_identity_reduction_end_to_end():
    # the same seed must give bit-identical metrics for the leaky model and
    # its single-layer identity-residual counterpart
    dataset, _ = _tiny_task()
    tau = 0.5
    leaky = _leaky_config(tau=tau)
    residual = ExperimentConfig(model_class=ModelClass.DEEP_RES_ESN_I, task="sinmem10",
                                total_units=30, n_layers=1,
                                alpha=1 - tau, beta=tau, washout=50)
    shallow_residual = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="sinmem10",
                                        total_units=30, n_layers=1,
                                        alpha=1 - tau, beta=tau, washout=50)
    a = run_trial(leaky, dataset, seed=77)
    b = run_trial(residual, dataset, seed=77)
    c = run_trial(shallow_residual, dataset, seed=77)
    assert abs(a.val_metric - b.val_metric) < 1e-12
    assert abs(a.test_metric - b.test_metric) < 1e-12
    assert abs(a.val_metric - c.val_metric) < 1e-12


def test_run_trial_classification_path():
    from deepreservoir.tasks import Dataset, merge_train_test, split

    def block(seed, n_per_class):
        rng = RngStream(seed)
        seqs, labels = [], []
        for c in range(2):
            for _ in range(n_per_class):
                base = rng.uniform(-0.2, 0.2, (15, 1))
                seqs.append(base + (0.8 if c else -0.8))
                labels.append(c)
        return Dataset(inputs=seqs, targets=np.asarray(labels), kind="classification")

    ds = split(merge_train_test(block(30, 12), block(31, 5)), 0.7, seed=1)
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="toy",
                           total_units=20, alpha=0.5,
                           beta=0.5, washout=0, lam=0.1)
    result = run_trial(cfg, ds, seed=5)
    assert not result.failed
    assert result.test_metric == 1.0  # trivially separable
    assert 0.0 <= result.val_metric <= 1.0


def _toy_classification(seed, n_per_class, lengths):
    """Two offset-noise classes; sequence i has length lengths[i % len(lengths)]."""
    rng = RngStream(seed)
    seqs, labels = [], []
    for c in range(2):
        for _ in range(n_per_class):
            t = lengths[len(seqs) % len(lengths)]
            seqs.append(rng.uniform(-0.2, 0.2, (t, 1)) + (0.8 if c else -0.8))
            labels.append(c)
    return Dataset(inputs=seqs, targets=np.asarray(labels), kind="classification")


@pytest.mark.parametrize("kind", list(ResidualKind))
@pytest.mark.parametrize("concat", [False, True])
def test_last_state_features_match_per_sequence_forward(kind, concat, monkeypatch):
    # oracle: one forward call per sequence and reservoir, last row of each
    # kept layer; two reservoirs run together, over whole length groups and
    # over batches of two sequences
    configs = [LayerConfig(hidden_size=n, spectral_radius=0.9, input_scaling=1.0,
                           bias_scaling=0.1, alpha=0.5, beta=0.5, residual=kind)
               for n in (12, 8, 10)]
    deeps = [build_deep_reservoir(configs, 1, RngStream(seed), concat=concat)
             for seed in (90, 92)]
    sequences = _toy_classification(91, 5, lengths=(15, 22, 9)).inputs
    for max_batch in (harness._MAX_BATCH, 2):
        monkeypatch.setattr(harness, "_MAX_BATCH", max_batch)
        feats, errors = harness._last_state_features(deeps, sequences, concat)
        assert errors == [None, None]
        for deep, deep_feats in zip(deeps, feats):
            for seq, row in zip(sequences, deep_feats):
                states = forward(deep, seq)
                want = np.concatenate([s[-1] for s in (states if concat else states[-1:])])
                assert row.shape == want.shape
                assert np.max(np.abs(row - want)) < 1e-12


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_run_trial_accepts_one_dimensional_inputs(kind):
    # a (T,) series is one input channel, as forward reads it
    if kind == "regression":
        ds, _ = _tiny_task()
        flat = Dataset(inputs=ds.inputs.ravel(), targets=ds.targets, kind=kind,
                       split=ds.split)
        cfg = _leaky_config()
    else:
        ds = split(merge_train_test(_toy_classification(35, 15, (20,)),
                                    _toy_classification(36, 5, (20,))), 0.7, seed=1)
        flat = Dataset(inputs=[seq.ravel() for seq in ds.inputs], targets=ds.targets,
                       kind=kind, split=ds.split)
        cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="toy",
                               total_units=10, alpha=0.5,
                               beta=0.5, washout=0, lam=0.1)
    want = run_trial(cfg, ds, seed=3)
    got = run_trial(cfg, flat, seed=3)
    assert not got.failed, got.error
    assert (got.val_metric, got.test_metric) == (want.val_metric, want.test_metric)


def test_run_trial_reads_one_dimensional_targets_as_one_output():
    ds, _ = _tiny_task()
    flat = Dataset(inputs=ds.inputs, targets=ds.targets.ravel(), kind="regression",
                   split=ds.split)
    assert flat.targets.shape == ds.targets.shape
    got, want = run_trial(_leaky_config(), flat, seed=3), run_trial(_leaky_config(), ds, seed=3)
    assert not got.failed, got.error
    assert (got.val_metric, got.test_metric) == (want.val_metric, want.test_metric)


def _producers(tmp_path):
    """(name, dataset) from every function that builds a Dataset."""
    for name in harness.TASK_SPECS:
        yield f"make_task {name}", make_task(name, 3, length=300)[0]
    seqs = _toy_classification(40, 6, (9, 12))
    for fmt in ("ucr-ts", "flattened-image-csv"):
        path = tmp_path / f"{fmt}.txt"
        write_sequence_classification(path, [seq.ravel() for seq in seqs.inputs], seqs.targets,
                                      fmt=fmt)
        yield fmt, load_sequence_classification(path, fmt=fmt)
    merged = merge_train_test(seqs, _toy_classification(41, 3, (9, 12)))
    yield "merge_train_test", merged
    yield "split fraction", split(merged, 0.5, seed=1)
    regression = make_task("sinmem10", 1, length=300)[0]
    yield "split lengths", split(regression, (100, 100, 100))
    for name, ds in (("regression", regression), ("classification", merged)):
        save_dataset(ds, tmp_path / name)
        yield f"load_dataset {name}", load_dataset(tmp_path / name)


def test_every_dataset_producer_holds_float_steps_of_one_width(tmp_path):
    for name, ds in _producers(tmp_path):
        sequences = [ds.inputs] if ds.kind == "regression" else ds.inputs
        assert {(seq.dtype, seq.ndim, seq.shape[1]) for seq in sequences} == \
            {(np.dtype(np.float64), 2, ds.input_dim)}, name
        if ds.kind == "regression":
            assert ds.targets.dtype == np.float64 and ds.targets.ndim == 2, name
        else:
            assert ds.targets.dtype.kind == "i" and ds.targets.ndim == 1, name


def test_cached_one_dimensional_sequences_score_as_the_original(tmp_path):
    # a (T,) sequence is one input channel after a cache round trip too
    rng = RngStream(37)
    seqs = [rng.uniform(-0.2, 0.2, 20) + (0.8 if i % 2 else -0.8) for i in range(30)]
    ds = split(Dataset(inputs=seqs, targets=np.arange(30) % 2, kind="classification"),
               0.8, seed=1)
    ds = dataclasses.replace(ds, split=Split(ds.split.train[:-4], ds.split.val,
                                              ds.split.train[-4:]))
    save_dataset(ds, tmp_path / "cache")
    back = load_dataset(tmp_path / "cache")
    assert [seq.shape for seq in back.inputs] == [(20, 1)] * 30
    assert all(np.array_equal(b, a[:, None]) for b, a in zip(back.inputs, seqs))
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="toy",
                           total_units=10, alpha=0.5,
                           beta=0.5, washout=0, lam=0.1)
    want = run_trial(cfg, ds, seed=3)
    got = run_trial(cfg, back, seed=3)
    assert not got.failed, got.error
    assert (got.val_metric, got.test_metric) == (want.val_metric, want.test_metric)


def test_classification_search_parallelism_invariant():
    ds = split(merge_train_test(_toy_classification(32, 8, (12, 17)),
                                _toy_classification(33, 4, (12, 17))), 0.7, seed=2)
    kwargs = dict(budget=3, n_seeds=2, master_seed=5, total_units=12)
    best1, t1 = random_search(HyperGrid(), ModelClass.DEEP_RES_ESN_C, ds, "toy",
                              "classification", jobs=1, **kwargs)
    best2, t2 = random_search(HyperGrid(), ModelClass.DEEP_RES_ESN_C, ds, "toy",
                              "classification", jobs=2, **kwargs)
    assert best1 == best2
    assert t1.to_csv_lines() == t2.to_csv_lines()


def test_empty_test_split_rejected_before_any_trial(tmp_path, monkeypatch):
    seqs = _toy_classification(34, 15, (20,))
    path = tmp_path / "train.csv"
    write_sequence_classification(path, seqs.inputs, seqs.targets)
    ds = split(load_sequence_classification(path), 0.8)
    assert len(ds.split.test) == 0

    def no_trial(*args):
        raise AssertionError("a trial ran")

    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="toy",
                           total_units=10, alpha=0.5,
                           beta=0.5, washout=0, lam=0.1)
    with pytest.raises(ValueError, match="empty test split"):
        run_trial(cfg, ds, seed=1)
    monkeypatch.setattr(harness, "run_config", no_trial)
    with pytest.raises(ValueError, match="empty test split"):
        random_search(HyperGrid(), ModelClass.RES_ESN_I, ds, "toy", "classification",
                      budget=2, n_seeds=1, master_seed=0)


@pytest.mark.parametrize("empty", ["train", "val"])
def test_empty_train_or_val_split_rejected_before_any_trial(empty, monkeypatch):
    # a merged train/test pair has no val split until it is re-split; moving
    # its train sequences to val leaves train empty instead
    ds = merge_train_test(_toy_classification(32, 8, (12,)), _toy_classification(33, 4, (12,)))
    assert len(ds.split.val) == 0
    if empty == "train":
        ds = dataclasses.replace(ds, split=Split(np.arange(0), ds.split.train, ds.split.test))

    def no_trial(*args):
        raise AssertionError("a trial ran")

    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_I, task="toy",
                           total_units=10, alpha=0.5,
                           beta=0.5, washout=0, lam=0.1)
    message = {"train": "empty train split: no samples to fit a readout on",
               "val": r"empty val split.*re-split .* with tasks\.split\(dataset, fraction\)"}[empty]
    with pytest.raises(ValueError, match=message):
        run_trial(cfg, ds, seed=1)
    monkeypatch.setattr(harness, "run_config", no_trial)
    with pytest.raises(ValueError, match=message):
        random_search(HyperGrid(), ModelClass.RES_ESN_I, ds, "toy", "classification",
                      budget=2, n_seeds=1, master_seed=0)


def test_run_config_rejects_no_seeds():
    ds, _ = _tiny_task()
    with pytest.raises(ValueError, match="no seeds to run"):
        harness.run_config(_leaky_config(), ds, [])


def test_run_config_hands_a_run_of_rows_on_as_a_view(monkeypatch):
    # a regression split is one run of steps, so fit and predict read views
    # of each seed's states; rows that are not one run are copied out
    ds, _ = _tiny_task()
    fit, predict = harness.fit, harness.predict
    copied = []
    monkeypatch.setattr(harness, "fit",
                        lambda f, *args: copied.append(f.flags.owndata) or fit(f, *args))
    monkeypatch.setattr(harness, "predict",
                        lambda w, f: copied.append(f.flags.owndata) or predict(w, f))
    one_run = harness.run_config(_leaky_config(), ds, [1, 2])
    assert copied == [False] * 6
    copied.clear()
    sp = ds.split
    gapped = dataclasses.replace(ds, split=Split(np.delete(sp.train, 100), sp.val, sp.test))
    gapped_trial, = harness.run_config(_leaky_config(), gapped, [1])
    assert copied == [True, False, False]
    assert gapped_trial.val_metric != one_run[0].val_metric
    assert np.isfinite(gapped_trial.val_metric)


def test_non_finite_input_names_its_dataset_sequence():
    # lengths alternate, so sequence 17 would be the ninth of a 30-step batch
    ds = _toy_classification(39, 20, (20, 30))
    ds.inputs[17][5, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite input at step 5 of sequence 17$"):
        split(ds, (24, 8, 8))


def test_washout_that_leaves_no_scorable_rows_rejected_before_any_trial(monkeypatch):
    ds, task_class = make_task("sinmem10", 1, length=250)
    sizes = (len(ds.split.train), len(ds.split.val), len(ds.split.test))
    assert sizes == (166, 41, 43)
    assert not run_trial(_leaky_config(washout=165), ds, seed=1).failed  # 1 train row left
    with pytest.raises(ValueError, match="washout 166 leaves 0/41/43 train/val/test rows "
                                         "of the 166/41/43 split"):
        run_trial(_leaky_config(washout=166), ds, seed=1)
    short_val = dataclasses.replace(ds, split=Split(np.arange(100), np.arange(100, 101),
                                                    np.arange(101, 250)))
    with pytest.raises(ValueError, match="leaves 100/1/149 train/val/test rows"):
        run_trial(_leaky_config(washout=0), short_val, seed=1)

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_config", no_trial)
    with pytest.raises(ValueError, match="washout 200 leaves 0/7/43 train/val/test rows"):
        random_search(HyperGrid(), ModelClass.LEAKY_ESN, ds, "sinmem10", task_class,
                      budget=2, n_seeds=1, master_seed=0, washout=200)


@pytest.mark.parametrize("task, part, output, washout", [
    ("sinmem10", "val", 0, 200), ("lz25", "test", 3, 50)])
def test_all_zero_val_or_test_targets_rejected_before_any_trial(task, part, output, washout,
                                                                 monkeypatch):
    ds, task_class = make_task(task, 0, length=600)
    targets = ds.targets.copy()
    targets[getattr(ds.split, part), output] = 0.0
    ds = dataclasses.replace(ds, targets=targets)

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_config", no_trial)
    message = f"^{part} targets of output {output} are all zero: NRMSE is undefined$"
    with pytest.raises(ValueError, match=message):
        random_search(HyperGrid(), ModelClass.LEAKY_ESN, ds, task, task_class,
                      budget=2, n_seeds=1, master_seed=0, washout=washout)


def _without_wall_time(trial):
    return dataclasses.replace(trial, wall_time=0.0)


def _search_dataset(task_class):
    if task_class == "memory":
        return _tiny_task(length=300)[0]
    return split(merge_train_test(_toy_classification(37, 8, (12, 17)),
                                  _toy_classification(38, 4, (12, 17))), 0.7, seed=2)


@pytest.mark.parametrize("model", [ModelClass.DEEP_RES_ESN_I, ModelClass.DEEP_RES_ESN_C,
                                   ModelClass.DEEP_RES_ESN_R])
@pytest.mark.parametrize("task_class", ["memory", "classification"])
def test_search_trials_equal_seeds_run_alone(model, task_class):
    # a search runs the seeds of a configuration together, in process and
    # in a pool; each trial still equals its seed run alone, bit for bit
    dataset = _search_dataset(task_class)
    kwargs = dict(total_units=12, washout=20)
    for jobs in (1, 2):
        _, table = random_search(HyperGrid(), model, dataset, "toy", task_class, budget=2,
                                 n_seeds=3, master_seed=4, jobs=jobs, **kwargs)
        sampler = RngStream(4).child("sampler")
        for i in range(2):
            config = sample_config(HyperGrid(), model, "toy", task_class, sampler,
                                   config_id=i, **kwargs)
            for j in range(3):
                seed = trial_seed(4, i, j)
                got, = [t for t in table.trials if (t.config_id, t.seed) == (i, seed)]
                assert not got.failed
                assert _without_wall_time(got) == _without_wall_time(run_trial(config, dataset,
                                                                             seed))


@pytest.mark.parametrize("task_class", ["memory", "classification"])
def test_non_finite_seed_fails_alone_with_its_own_message(task_class, monkeypatch):
    # seed 7's first layer gets an infinite input weight, so its state turns
    # NaN where the input is exactly 0 (0 * inf): step 270 of the series, or
    # step 5 of one sequence; the other seeds of the configuration score as
    # they do alone
    dataset = _search_dataset(task_class)
    zero_step = 270 if task_class == "memory" else 5
    if task_class == "memory":
        dataset.inputs[zero_step] = 0.0
    else:
        dataset.inputs[3][zero_step] = 0.0
    build = harness.build_deep_reservoir

    def poisoned(configs, input_dim, rng, concat=False):
        deep = build(configs, input_dim, rng, concat=concat)
        if rng.seed == 7:
            deep.layers[0].w_x[0, 0] = np.inf
        return deep

    monkeypatch.setattr(harness, "build_deep_reservoir", poisoned)
    config = ExperimentConfig(model_class=ModelClass.DEEP_RES_ESN_C, task="toy",
                              total_units=12, n_layers=2, alpha=0.5,
                              beta=0.5, inter_alpha=0.5, inter_beta=0.5, inter_rho=1.0,
                              inter_omega_x=1.0, inter_omega_b=0.1, washout=20,
                              lam=0.1 if task_class == "classification" else 0.0)
    with np.errstate(invalid="ignore"):
        together = harness.run_config(config, dataset, [5, 7, 9])
        alone = [run_trial(config, dataset, seed) for seed in (5, 7, 9)]
    assert [t.failed for t in together] == [False, True, False]
    assert together[1].error == alone[1].error
    assert alone[1].error == f"non-finite state at step {zero_step} in layer 1"
    for a, b in zip(together, alone):
        assert _without_wall_time(a) == _without_wall_time(b) or a.failed


def test_readout_failure_fails_its_own_seed_alone(monkeypatch):
    # the second seed's readout solve raises; the other seeds of the
    # configuration score as they do alone
    dataset = _search_dataset("memory")
    config = _leaky_config(total_units=12, washout=20)
    alone = [run_trial(config, dataset, seed) for seed in (5, 7, 9)]
    solves, real_fit = [], harness.fit

    def failing_fit(features, targets, lam):
        solves.append(lam)
        if len(solves) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_fit(features, targets, lam)

    monkeypatch.setattr(harness, "fit", failing_fit)
    together = harness.run_config(config, dataset, [5, 7, 9])
    assert len(solves) == 3
    assert [t.failed for t in together] == [False, True, False]
    assert together[1].error == "SVD did not converge"
    assert np.isnan(together[1].val_metric) and np.isnan(together[1].test_metric)
    assert [_without_wall_time(together[i]) for i in (0, 2)] == \
        [_without_wall_time(alone[i]) for i in (0, 2)]


def _one_call_scores(config, dataset, seed):
    """A regression trial made the way every step's states are held at once:
    one run_states call over the whole series, then the fit and the val and
    test NRMSE; (message, [val, test]) for the seed."""
    deep = harness.build_deep_reservoir(config.layer_configs(), dataset.input_dim,
                                        RngStream(seed), concat=config.concat)
    (feats,), (error,), _ = run_states([deep], dataset.inputs, config.washout, config.concat)
    rows = [part - config.washout for part in harness._scored_rows(dataset, config.washout)]
    if error is not None:
        return error, None
    w_o = fit(feats[rows[0]], dataset.targets[rows[0] + config.washout], config.lam)
    return None, [nrmse(predict(w_o, feats[idx]), dataset.targets[idx + config.washout])
                  for idx in rows[1:]]


def _two_layer_config(**overrides):
    return ExperimentConfig(**dict(dict(
        model_class=ModelClass.DEEP_RES_ESN_C, task="toy", total_units=12, n_layers=2,
        alpha=0.5, beta=0.5, inter_alpha=0.5, inter_beta=0.5, inter_rho=1.0, inter_omega_x=1.0,
        inter_omega_b=0.1, washout=20), **overrides))


@pytest.mark.parametrize("t_fail, span", [(300, "fit"), (450, "scored")])
def test_a_seed_failing_in_either_span_fails_alone_naming_its_step_in_the_series(
        t_fail, span, monkeypatch):
    # seed 7's first layer has an infinite bias that an input of -10 turns
    # into a NaN: at step 300, in train, or at step 450, in val, after the
    # loop has resumed from the carried states; seeds 5 and 9 score as one
    # run over the whole series scores them
    dataset, _ = _tiny_task(length=600)
    assert (dataset.split.train[-1], dataset.split.val[0]) == (399, 400)
    dataset.inputs[t_fail] = -10.0
    build = harness.build_deep_reservoir

    def poisoned(configs, input_dim, rng, concat=False):
        deep = build(configs, input_dim, rng, concat=concat)
        if rng.seed == 7:
            deep.layers[0].w_x[0, 0] = 1e308
            deep.layers[0].b[0] = np.inf
        return deep

    monkeypatch.setattr(harness, "build_deep_reservoir", poisoned)
    config = _two_layer_config()
    with np.errstate(over="ignore", invalid="ignore"):
        trials = harness.run_config(config, dataset, [5, 7, 9])
        want = [_one_call_scores(config, dataset, seed) for seed in (5, 7, 9)]
    assert trials[1].error == want[1][0] == f"non-finite state at step {t_fail} in layer 1"
    assert np.isnan(trials[1].val_metric) and np.isnan(trials[1].test_metric)
    for trial, (error, scores) in zip(trials[::2], want[::2]):
        assert trial.error is error is None
        assert [trial.val_metric, trial.test_metric] == scores


@pytest.mark.parametrize("parts", [
    pytest.param(((0, 200), (300, 450)), id="val-between-train-runs"),
    pytest.param(((150, 450),), id="test-before-train")])
def test_a_split_that_scores_a_step_before_its_last_train_step_is_scored(parts):
    dataset, _ = _tiny_task(length=600)
    train = np.concatenate([np.arange(*part) for part in parts])
    scored = np.setdiff1d(np.arange(600), train)
    val, test = (scored[:100], scored[100:]) if len(parts) == 2 else (scored[-150:],
                                                                       scored[:-150])
    dataset = dataclasses.replace(dataset, split=Split(train, val, test))
    config = _two_layer_config()
    for trial in harness.run_config(config, dataset, [5, 9]):
        error, scores = _one_call_scores(config, dataset, trial.seed)
        assert trial.error is error is None
        assert np.allclose([trial.val_metric, trial.test_metric], scores, rtol=1e-12, atol=0)


def test_a_regression_trial_holds_less_than_the_states_of_the_whole_series():
    # narma30's shape at its registered length: 4 x 100 layers without
    # concat and 4 seeds. The readouts are fitted before the val and test
    # steps run, so the (S, T - washout, F) states of the whole series are
    # never held at once; holding them took the traced peak to 39.1 MiB
    # against their 29.9
    dataset, _ = make_task("narma30", 1)
    config = ExperimentConfig(
        model_class=ModelClass.DEEP_RES_ESN_C, task="narma30", total_units=100, n_layers=4,
        rho=0.9, omega_x=1.0, omega_b=0.1, alpha=0.5, beta=0.5, inter_alpha=0.5,
        inter_beta=0.5, inter_rho=0.9, inter_omega_x=1.0, inter_omega_b=0.1)
    seeds = [1, 2, 3, 4]
    whole = len(seeds) * (len(dataset.inputs) - config.washout) * 100 * 8
    tracemalloc.start()
    try:
        trials = harness.run_config(config, dataset, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(trial.failed for trial in trials)
    assert peak < whole


def test_trial_seed_stable_and_distinct():
    assert trial_seed(0, 0, 0) == trial_seed(0, 0, 0)
    seeds = {trial_seed(0, i, j) for i in range(5) for j in range(5)}
    assert len(seeds) == 25


def test_plain_esn_sinmem_benchmark_level():
    # a canonical plain reservoir (tau = 1, sub-unit radius, small input
    # scaling) sits near the published shallow-baseline error on the
    # 10-step sine-memory task
    dataset, _ = make_task("sinmem10", 2026)
    cfg = ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="sinmem10",
                           total_units=100, tau=1.0, rho=0.9,
                           omega_x=0.1, omega_b=0.1, washout=200)
    trials = [run_trial(cfg, dataset, trial_seed(2026, 0, j)) for j in range(5)]
    mean = np.mean([t.test_metric for t in trials])
    assert mean == pytest.approx(0.36, abs=0.1)


# ---------------------------------------------------------------------------
# aggregation and search


def _fake_trials():
    return [
        TrialResult(0, 1, 0.5, 0.6, 0.0),
        TrialResult(0, 2, 0.7, 0.8, 0.0),
        TrialResult(1, 1, float("nan"), float("nan"), 0.0, error="boom"),
        TrialResult(1, 2, 0.2, 0.3, 0.0),
    ]


def test_aggregate_means_and_failures():
    table = aggregate(_fake_trials())
    row0 = table.rows[0]
    assert row0["val_mean"] == pytest.approx(0.6)
    assert row0["val_std"] == pytest.approx(np.std([0.5, 0.7]))
    assert row0["n_failed"] == 0
    row1 = table.rows[1]
    assert row1["val_mean"] == pytest.approx(0.2)
    assert row1["n_failed"] == 1
    assert row1["n_seeds"] == 2


def test_aggregate_matches_direct_recomputation():
    table = aggregate(_fake_trials())
    for row in table.rows:
        ok = [t for t in table.trials
              if t.config_id == row["config_id"] and not t.failed]
        assert row["test_mean"] == pytest.approx(np.mean([t.test_metric for t in ok]))
        assert row["test_std"] == pytest.approx(np.std([t.test_metric for t in ok]))


def test_search_budget_one_returns_that_config():
    dataset, task_class = _tiny_task()
    best, table = random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                                task_class, budget=1, n_seeds=2, master_seed=3,
                                washout=50, total_units=20)
    assert best.config_id == 0
    assert len(table.rows) == 1


def _per_seed(fake_trial):
    """A fake run_config that scores each seed with a fake single-seed trial."""
    return lambda config, dataset, seeds: [fake_trial(config, dataset, seed) for seed in seeds]


def test_search_finds_planted_optimum(monkeypatch):
    # plant a dominant hyperparameter value through a fake scorer
    def fake_trial(config, dataset, seed):
        score = 0.0 if config.rho == 0.9 else 1.0
        return TrialResult(config.config_id, seed, score, score, 0.0)

    monkeypatch.setattr(harness, "run_config", _per_seed(fake_trial))
    dataset, task_class = _tiny_task()
    best, _ = random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                            task_class, budget=20, n_seeds=2, master_seed=0)
    assert best.rho == 0.9


def test_search_skips_failed_configs(monkeypatch):
    def fake_trial(config, dataset, seed):
        if config.config_id == 0:
            return TrialResult(config.config_id, seed, float("nan"), float("nan"), 0.0,
                               error="unstable")
        return TrialResult(config.config_id, seed, 1.0 + config.config_id, 0.0, 0.0)

    monkeypatch.setattr(harness, "run_config", _per_seed(fake_trial))
    dataset, task_class = _tiny_task()
    best, table = random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                                task_class, budget=3, n_seeds=1, master_seed=0)
    assert best.config_id == 1
    assert table.rows[0]["n_failed"] == 1


def test_search_all_failed_raises(monkeypatch):
    def fake_trial(config, dataset, seed):
        return TrialResult(config.config_id, seed, float("nan"), float("nan"), 0.0,
                           error="unstable")

    monkeypatch.setattr(harness, "run_config", _per_seed(fake_trial))
    dataset, task_class = _tiny_task()
    with pytest.raises(RuntimeError):
        random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                      task_class, budget=2, n_seeds=1, master_seed=0)


@pytest.mark.parametrize("jobs, budget, pools", [(8, 2, [2]), (2, 5, [2]), (4, 1, []),
                                                 (1, 3, [])])
def test_search_starts_no_more_workers_than_configurations(jobs, budget, pools, monkeypatch):
    # a fork-started pool launches every worker at the first submit, each
    # with a copy of the dataset; this one maps in-process and starts none
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_worker_dataset", None)
    dataset, task_class = _tiny_task(length=300)
    kwargs = dict(budget=budget, n_seeds=1, master_seed=4, washout=20, total_units=10)
    _, table = random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                             task_class, jobs=jobs, **kwargs)
    assert started == pools
    _, alone = random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                             task_class, jobs=1, **kwargs)
    assert table.rows == alone.rows


def test_search_reproducible_and_parallelism_invariant():
    dataset, task_class = _tiny_task(length=300)
    kwargs = dict(budget=3, n_seeds=2, master_seed=11, washout=20, total_units=10)
    best1, t1 = random_search(HyperGrid(), ModelClass.RES_ESN_C, dataset, "sinmem10",
                              task_class, jobs=1, **kwargs)
    best2, t2 = random_search(HyperGrid(), ModelClass.RES_ESN_C, dataset, "sinmem10",
                              task_class, jobs=2, **kwargs)
    assert best1 == best2
    assert t1.rows == t2.rows


def test_classification_search_maximizes(monkeypatch):
    def fake_trial(config, dataset, seed):
        score = 0.9 if config.config_id == 2 else 0.1
        return TrialResult(config.config_id, seed, score, score, 0.0)

    monkeypatch.setattr(harness, "run_config", _per_seed(fake_trial))
    dataset = _search_dataset("classification")
    best, _ = random_search(HyperGrid(), ModelClass.RES_ESN_I, dataset, "toy",
                            "classification", budget=4, n_seeds=1, master_seed=0)
    assert best.config_id == 2


@pytest.mark.parametrize("data_class,task_class", [("classification", "memory"),
                                                   ("memory", "classification")])
def test_search_rejects_task_class_that_contradicts_the_dataset(data_class, task_class,
                                                                monkeypatch):
    # which way is better follows the dataset: accuracy up, NRMSE down
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_config", no_trial)
    dataset = _search_dataset(data_class)
    with pytest.raises(ValueError, match=f"task class '{task_class}' contradicts the "
                                         f"{dataset.kind} dataset"):
        random_search(HyperGrid(), ModelClass.RES_ESN_I, dataset, "toy", task_class,
                      budget=4, n_seeds=1, master_seed=0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_search_rejects_fewer_than_one_job(jobs, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_config", no_trial)
    dataset, task_class = _tiny_task()
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}$"):
        random_search(HyperGrid(), ModelClass.LEAKY_ESN, dataset, "sinmem10",
                      task_class, budget=2, n_seeds=1, master_seed=0, jobs=jobs)


# ---------------------------------------------------------------------------
# reports


def test_emit_empty_results_header_only(tmp_path):
    table = ResultsTable(rows=[])
    emit_reports(tmp_path, table=table)
    csv = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert csv == ["config_id,val_mean,val_std,test_mean,test_std,n_seeds,n_failed"]
    assert (tmp_path / "results.md").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "results.md"]


def test_emitted_csv_roundtrips(tmp_path):
    table = aggregate(_fake_trials())
    emit_reports(tmp_path, table=table)
    back = read_results_csv(tmp_path / "results.csv")
    for got, want in zip(back, table.rows):
        for key in want:
            if isinstance(want[key], float) and np.isnan(want[key]):
                assert np.isnan(got[key])
            else:
                assert got[key] == pytest.approx(want[key])


def test_manifest_contains_every_sampled_hyperparameter(tmp_path):
    import json
    cfg = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_R, "sinmem10", "memory",
                        RngStream(9))
    emit_reports(tmp_path, manifest={"best_config": cfg.to_dict()})
    stored = json.loads((tmp_path / "manifest.json").read_text())["best_config"]
    assert set(stored) == set(cfg.to_dict())
    assert stored == cfg.to_dict()


def test_emit_analysis_artifacts(tmp_path):
    import json
    emit_reports(
        tmp_path,
        stability_reports={"cfg0": {"global_rho": 0.9}},
        spectra={"identity": [np.array([1.0, 0.5]), np.array([0.25, 1.0])]},
        eigen={"probe": [np.array([0.1 - 0.2j]), np.array([0.5 + 0j, -0.3 + 0j])]},
    )
    assert (tmp_path / "stability" / "cfg0.json").exists()
    spectra_csv = (tmp_path / "spectra" / "identity.csv").read_text().splitlines()
    assert spectra_csv == ["layer,bin,magnitude", "1,0,1", "1,1,0.5", "2,0,0.25", "2,1,1"]
    eigen_csv = (tmp_path / "eigen" / "probe.csv").read_text().splitlines()
    assert eigen_csv == ["re,im,layer", "0.10000000000000001,-0.20000000000000001,1",
                         "0.5,0,2", "-0.29999999999999999,0,2"]
    eigen_json = json.loads((tmp_path / "eigen" / "probe.json").read_text())
    assert eigen_json == {"layer_1": [[0.1, -0.2]], "layer_2": [[0.5, 0.0], [-0.3, 0.0]]}
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) == [
        "eigen/probe.csv", "eigen/probe.json", "spectra/identity.csv", "stability/cfg0.json"]


def test_eigen_files_do_not_depend_on_eigenvalue_order(tmp_path):
    # conjugate pairs and +-r share a modulus, so the real and imaginary
    # parts break the ties
    rng = np.random.default_rng(3)
    eigs = np.concatenate([np.linalg.eigvals(rng.uniform(-1, 1, (12, 12))),
                           [0.5, -0.5, 0.5j, -0.5j, 0.0]])
    texts = []
    for run, order in enumerate([np.arange(len(eigs)), rng.permutation(len(eigs)),
                                 rng.permutation(len(eigs))]):
        out = tmp_path / str(run)
        emit_reports(out, eigen={"probe": [eigs[order], eigs[order][::-1]]})
        texts.append([(out / "eigen" / f"probe.{ext}").read_bytes() for ext in ("csv", "json")])
    assert texts[0] == texts[1] == texts[2]

    rows = np.loadtxt(tmp_path / "0" / "eigen" / "probe.csv", delimiter=",", skiprows=1)
    for layer in (1, 2):
        re, im = rows[rows[:, 2] == layer][:, :2].T
        assert np.all(np.diff(np.round(np.hypot(re, im), 9)) <= 0)
        assert sorted(zip(re, im)) == sorted(zip(eigs.real, eigs.imag))

    # a rounding-level change moves no value to another row
    emit_reports(tmp_path / "nudged", eigen={"probe": [eigs * (1 + 1e-14)]})
    nudged = np.loadtxt(tmp_path / "nudged" / "eigen" / "probe.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(nudged[:, :2] - rows[rows[:, 2] == 1][:, :2])) < 1e-13


# ---------------------------------------------------------------------------
# task registry


def test_make_task_registry_full_lengths():
    ds, task_class = make_task("sinmem10", seed=0)
    assert task_class == "memory"
    assert ds.inputs.shape == (6000, 1)
    assert len(ds.split.train) == 4000
    ds, task_class = make_task("lz25", seed=0)
    assert task_class == "forecasting"
    assert ds.inputs.shape == (1200, 5)
    assert len(ds.split.test) == 400


# the registered split scaled to 300 steps: 4000/1000/1000 of 6000, 400/400/400
# of 1200, 5000/2500/2500 of 10000
SPLITS_AT_300 = {"ctxor5": (200, 50, 50), "ctxor10": (200, 50, 50), "sinmem10": (200, 50, 50),
                 "sinmem20": (200, 50, 50), "lz25": (100, 100, 100), "lz50": (100, 100, 100),
                 "mg": (150, 75, 75), "mg84": (150, 75, 75), "narma30": (150, 75, 75),
                 "narma60": (150, 75, 75)}


@pytest.mark.parametrize("name", list(harness.TASK_SPECS))
def test_make_task_every_registered_task(name):
    ds, task_class = make_task(name, seed=3, length=300)
    assert task_class == harness.TASK_SPECS[name]["task_class"]
    assert ds.kind == "regression"
    assert (len(ds.split.train), len(ds.split.val), len(ds.split.test)) == SPLITS_AT_300[name]
    assert ds.inputs.shape[0] == len(ds.targets) == 300
    assert ds.inputs.ndim == 2 and np.all(np.isfinite(ds.inputs))
    again, _ = make_task(name, seed=3, length=300)
    assert np.array_equal(ds.inputs, again.inputs)
    assert np.array_equal(ds.targets, again.targets)


@pytest.mark.parametrize("name", list(harness.TASK_SPECS))
def test_make_task_at_its_registered_length_takes_the_registered_split(name):
    spec = harness.TASK_SPECS[name]
    ds, _ = make_task(name, seed=0, length=spec["length"])
    train, val, test = spec["split"]
    assert np.array_equal(ds.split.train, np.arange(train))
    assert np.array_equal(ds.split.val, np.arange(train, train + val))
    assert np.array_equal(ds.split.test, np.arange(train + val, train + val + test))


@pytest.mark.parametrize("length", [7, 8, 250, 301, 599, 601, 5999, 6001])
def test_make_task_scales_a_two_thirds_split_as_before(length):
    # sinmem and ctxor register 4000/1000/1000 of 6000, so scaling gives the
    # 2/3, 1/6, rest split at every length
    ds, _ = make_task("ctxor5", seed=0, length=length)
    want = (int(length * 2 / 3), int(length / 6), length - int(length * 2 / 3) - int(length / 6))
    assert (len(ds.split.train), len(ds.split.val), len(ds.split.test)) == want


def test_make_task_rejects_unknown():
    with pytest.raises(ValueError):
        make_task("nope", seed=0)


@pytest.mark.parametrize("length", [0, -3])
def test_make_task_rejects_non_positive_length(length):
    with pytest.raises(ValueError, match=f"task length must be >= 1, got {length}"):
        make_task("sinmem10", seed=0, length=length)


def test_make_task_deterministic():
    a, _ = make_task("narma30", seed=4, length=400)
    b, _ = make_task("narma30", seed=4, length=400)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
