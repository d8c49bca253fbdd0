"""The benchmark's own tests.

Each correctness check passes on the program's output and fails on a
deliberately perturbed copy of it; a traced trial is harness.run_trial
with a span around each stage; the metric names match BENCHMARK.json.

    python3 -m pytest bench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from deepreservoir import harness, reservoir, stability, tasks
from deepreservoir.harness import HyperGrid, ModelClass
from deepreservoir.numerics import RngStream
from deepreservoir.reservoir import LayerConfig, ResidualKind, build_deep_reservoir
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _regression_trial(model: str, seed: int = 3):
    dataset, task_class = harness.make_task("sinmem10", seed, length=600)
    config = harness.sample_config(HyperGrid(), ModelClass(model), "sinmem10", task_class,
                                   RngStream(seed), total_units=30, washout=100)
    return dataset, config


@pytest.fixture(scope="module")
def classify_state(tmp_path_factory):
    return workloads.Classify().prepare(tmp_path_factory.mktemp("classify"), seed=4)


def _classification_config(seed: int = 6):
    return harness.sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_C, "classify",
                                 "classification", RngStream(seed), total_units=20)


# ---------------------------------------------------------------------------
# dataset checks


def test_sinmem_targets_check():
    ds = tasks.gen_sinmem(300, 10, RngStream(1))
    assert checks.check_sinmem_targets(ds.inputs, ds.targets, 10).ok
    bad = ds.targets.copy()
    bad[50] += 1e-9
    assert not checks.check_sinmem_targets(ds.inputs, bad, 10).ok
    assert not checks.check_sinmem_targets(ds.inputs, ds.targets, 9).ok


def test_narma_targets_check():
    ds = tasks.gen_narma(500, 30, RngStream(2))
    assert checks.check_narma_targets(ds.inputs, ds.targets, 30).ok
    bad = ds.targets.copy()
    bad[200] += 1e-6
    assert not checks.check_narma_targets(ds.inputs, bad, 30).ok


def test_dataset_equal_check():
    ds, _ = harness.make_task("sinmem10", 1, length=300)
    assert checks.check_dataset_equal("same", ds, replace(ds)).ok
    inputs = ds.inputs.copy()
    inputs[7, 0] = np.nextafter(inputs[7, 0], 1.0)
    assert not checks.check_dataset_equal("input", replace(ds, inputs=inputs), ds).ok
    split = replace(ds.split, val=ds.split.val[1:])
    assert not checks.check_dataset_equal("split", replace(ds, split=split), ds).ok


def test_loader_roundtrip_check(classify_state):
    seqs, labels = classify_state["written"]["train"]
    loaded = classify_state["loaded"]["train"]
    assert checks.check_sequences_roundtrip("ok", seqs, labels, loaded).ok

    swapped = [s.copy() for s in loaded.inputs]
    swapped[5][[0, 1]] = swapped[5][[1, 0]]
    assert not checks.check_sequences_roundtrip(
        "one sequence reordered", seqs, labels, replace(loaded, inputs=swapped)).ok
    unpermuted = [s[:, None] for s in seqs]
    assert not checks.check_sequences_roundtrip(
        "no permutation", seqs, labels, replace(loaded, inputs=unpermuted)).ok
    assert not checks.check_sequences_roundtrip(
        "labels", seqs, np.roll(labels, 1), loaded).ok


def test_stratified_split_check(classify_state):
    wl = workloads.Classify()
    ds = classify_state["split"]
    assert checks.check_stratified_split(ds, wl.n_train, wl.n_test, wl.train_fraction).ok
    moved = replace(ds.split, train=ds.split.train[1:],
                    val=np.sort(np.append(ds.split.val, ds.split.train[0])))
    assert not checks.check_stratified_split(replace(ds, split=moved), wl.n_train, wl.n_test,
                                             wl.train_fraction).ok


# ---------------------------------------------------------------------------
# trial reproduction


@pytest.mark.parametrize("model", ["LeakyESN", "DeepResESN_C", "DeepResESN_R"])
def test_reference_regression_scores(model):
    dataset, config = _regression_trial(model)
    result = harness.run_trial(config, dataset, 11)
    deep = build_deep_reservoir(config.layer_configs(), 1, RngStream(11), concat=config.concat)
    want = checks.reference_regression_scores(deep.layers, config.concat, config.lam,
                                              config.washout, dataset)
    got = (result.val_metric, result.test_metric)
    assert checks.check_trial_scores("ok", got, want).ok
    perturbed = (got[0] * (1 + 1e-5), got[1])
    assert not checks.check_trial_scores("perturbed", perturbed, want).ok


def test_reference_classification_scores(classify_state):
    dataset = classify_state["dataset"]
    config = _classification_config()
    result = harness.run_trial(config, dataset, 12)
    deep = build_deep_reservoir(config.layer_configs(), 1, RngStream(12), concat=config.concat)
    want = checks.reference_classification_scores(deep.layers, config.concat, config.lam,
                                                  dataset)
    got = (result.val_metric, result.test_metric)
    assert checks.check_trial_scores("ok", got, want).ok
    one_more_wrong = (got[0], got[1] - 1.0 / len(dataset.split.test))
    assert not checks.check_trial_scores("perturbed", one_more_wrong, want).ok


def test_search_property_checks():
    assert checks.check_separation(0.05, 0.4).ok
    assert not checks.check_separation(0.4, 0.05).ok
    assert checks.check_above_chance(0.8, 3).ok
    assert not checks.check_above_chance(0.45, 3).ok
    assert checks.check_equal("same", (0.1, 0.2), (0.1, 0.2)).ok
    assert not checks.check_equal("differ", (0.1, 0.2), (0.1, np.nextafter(0.2, 1.0))).ok


# ---------------------------------------------------------------------------
# analysis checks


def _stack(kind: ResidualKind, seed: int = 7):
    configs = [LayerConfig(hidden_size=20, spectral_radius=0.9, input_scaling=1.0,
                           bias_scaling=0.1, alpha=0.5, beta=0.5, residual=kind)
               for _ in range(3)]
    return build_deep_reservoir(configs, 1, RngStream(seed))


@pytest.mark.parametrize("kind", ["identity", "cyclic", "random"])
def test_stability_check(kind):
    deep = _stack(workloads._KINDS[kind])
    report = stability.stability_report(deep).to_dict()
    assert checks.check_stability(kind, deep.layers, report).ok
    bad = dict(report, global_c=report["global_c"] * (1 + 1e-6))
    assert not checks.check_stability(kind, deep.layers, bad).ok


def test_stability_check_catches_residual_that_disagrees_with_kind():
    deep = _stack(ResidualKind.CYCLIC)
    deep.layers[1].o = np.eye(deep.layers[1].size)
    report = stability.stability_report(deep).to_dict()
    assert not checks.check_stability("cyclic", deep.layers, report).ok


@pytest.mark.parametrize("kind", ["identity", "random"])
def test_eigen_check(kind):
    deep = _stack(workloads._KINDS[kind])
    h, x = stability.random_probe(deep, RngStream(8))
    eigs = {f"layer_{l}": [[float(v.real), float(v.imag)] for v in e]
            for l, e in enumerate(stability.eigenspectrum_report(deep, h, x), start=1)}
    assert checks.check_eigen(kind, deep.layers, h, x, eigs).ok
    eigs["layer_2"][0][0] += 1e-6
    assert not checks.check_eigen(kind, deep.layers, h, x, eigs).ok


def test_high_band_and_lowpass_checks():
    rows = np.array([(l, k, m) for l, scale in ((1, 1.0), (2, 0.5))
                     for k, m in enumerate(np.r_[1.0, np.full(20, scale)])])
    fractions = checks.high_band_fractions(rows, 40)
    assert fractions[0] > fractions[1]
    assert checks.check_identity_lowpass(fractions).ok
    assert not checks.check_identity_lowpass(fractions[::-1]).ok
    assert not checks.check_identity_lowpass([0.1, 0.01, 0.01]).ok


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize("model", ["LeakyESN", "DeepResESN_R"])
def test_traced_regression_trial_spans(model):
    dataset, config = _regression_trial(model, seed=5)
    tracer = Tracer()
    traced = workloads.traced_trial(tracer, config, dataset, 21)
    untraced = harness.run_trial(config, dataset, 21)
    assert (traced.val_metric, traced.test_metric) == (untraced.val_metric, untraced.test_metric)

    forward, = tracer.named("reservoir.forward")
    assert forward["attrs"] == {"kind": config.model_class.residual_kind.value,
                                "layer_steps": config.n_layers * len(dataset.inputs)}
    build, = tracer.named("reservoir.build")
    assert build["attrs"] == {"layers": config.n_layers}
    assert len(tracer.named("numerics.eigvals")) == 2 * config.n_layers
    names = [s["name"] for s in tracer.spans]
    trial = names.index("harness.trial")
    for stage in ("reservoir.build", "reservoir.forward", "reservoir.features", "readout.fit",
                  "readout.score"):
        assert tracer.spans[names.index(stage)]["parent"] == trial
    assert harness.forward is reservoir.forward


def test_traced_classification_trial_spans(classify_state):
    dataset = classify_state["dataset"]
    config = _classification_config(seed=9)
    tracer = Tracer()
    traced = workloads.traced_trial(tracer, config, dataset, 22)
    untraced = harness.run_trial(config, dataset, 22)
    assert (traced.val_metric, traced.test_metric) == (untraced.val_metric, untraced.test_metric)
    assert len(tracer.named("reservoir.forward")) == dataset.n_samples
    assert len(tracer.named("reservoir.features")) == dataset.n_samples


def test_tracer_self_time_and_patch_restore():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert tracer.self_time("outer") == [pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))]

    original = tasks.split
    with tracer.patched(tasks, "split", "tasks.split"):
        assert tasks.split is not original
    assert tasks.split is original


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
