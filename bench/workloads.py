"""The four benchmark workloads.

Each workload prepares its inputs from the workload seed (setup), runs
whole rounds of the same operations (run_round), re-runs a round with
spans around every stage (traced_round), and checks a round's outputs
against computations made apart from the program (check).

The search workloads fix the search's master seed per workload, so every
run samples the same configurations and reservoirs and the workload seed
varies the data. Trial cost follows the sampled layer count (2 to 5), so
a seed-dependent draw of a few configurations would move ops_per_s by
tens of percent between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from deepreservoir import analysis, cli, harness, numerics, stability, tasks
from deepreservoir.harness import HyperGrid, ModelClass
from deepreservoir.numerics import RngStream
from deepreservoir.reservoir import DeepReservoir, LayerConfig, ResidualKind, build_deep_reservoir
from tracer import Tracer

# Set-ups before the first round (an untraced run adds one per round).
SETUP_REPEATS = 5
_KINDS = {"identity": ResidualKind.IDENTITY, "cyclic": ResidualKind.CYCLIC,
          "random": ResidualKind.RANDOM_ORTHOGONAL}


class NullTracer:
    """Stands in for a Tracer when the run is not traced."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


@dataclass
class Search:
    model: str
    budget: int
    n_seeds: int
    jobs: int = 1

    @property
    def trials(self) -> int:
        return self.budget * self.n_seeds


def timed(fn):
    """Run fn(); return its result, wall seconds and CPU seconds of this
    process and of the workers it started and waited for."""
    def cpu():
        return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                     resource.getrusage(resource.RUSAGE_CHILDREN)))
    cpu0, wall0 = cpu(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - wall0, cpu() - cpu0


@dataclass
class SearchOutcome:
    search: Search
    best: harness.ExperimentConfig
    table: harness.ResultsTable
    wall: float

    def summary(self) -> dict:
        row = next(r for r in self.table.rows if r["config_id"] == self.best.config_id)
        return {"model": self.search.model, "best_config_id": self.best.config_id,
                "val_mean": row["val_mean"], "test_mean": row["test_mean"],
                "n_failed": sum(r["n_failed"] for r in self.table.rows)}


@dataclass
class Round:
    ops: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    # operation group -> (ops, wall s, cpu s); every round has the same groups
    samples: dict[str, tuple[int, float, float]] = field(default_factory=dict)
    # traced rounds only
    trial_walls: list[float] = field(default_factory=list)
    pool_busy: float = 0.0       # sum of trial walls
    pool_capacity: float = 0.0   # sum of jobs x search wall
    untraced_op_s: float = 0.0   # op time without spans, same round
    traced_op_s: float = 0.0     # op time with spans


def _build_attrs(configs, *args, **kwargs) -> dict:
    return {"layers": len(configs)}


def _forward_attrs(deep: DeepReservoir, inputs, *args, **kwargs) -> dict:
    """The harness and the cli give every layer of a stack the same residual
    kind, so a whole-stack call is timed per layer-step of that kind."""
    kind, = {layer.kind.value for layer in deep.layers}
    return {"kind": kind, "layer_steps": len(deep.layers) * len(inputs)}


# (module, function, span name, span attributes) for each stage function
# harness.run_trial calls, under the name harness imported it by
TRIAL_STAGES = (
    (harness, "build_deep_reservoir", "reservoir.build", _build_attrs),
    (numerics, "eigenvalues", "numerics.eigvals", None),
    (harness, "forward", "reservoir.forward", _forward_attrs),
    (harness, "readout_features", "reservoir.features", None),
    (harness, "fit", "readout.fit", None),
    (harness, "predict", "readout.score", None),
    (harness, "nrmse", "readout.score", None),
    (harness, "accuracy", "readout.score", None),
)


@contextlib.contextmanager
def spans_around(tracer: Tracer, stages):
    """A span around every call of each stage function while active."""
    with contextlib.ExitStack() as stack:
        for module, attr, name, attrs in stages:
            stack.enter_context(tracer.patched(module, attr, name, attrs))
        yield


def traced_trial(tracer: Tracer, config, dataset, seed: int) -> harness.TrialResult:
    """harness.run_trial in a span, with a span around each stage it calls."""
    with spans_around(tracer, TRIAL_STAGES), \
            tracer.span("harness.trial", config_id=config.config_id, seed=seed):
        return harness.run_trial(config, dataset, seed)


# ---------------------------------------------------------------------------
# search workloads


def _input_dim(dataset) -> int:
    first = dataset.inputs if dataset.kind == "regression" else dataset.inputs[0]
    return np.atleast_2d(np.asarray(first)).reshape(len(first), -1).shape[1]


class SearchWorkload:
    """Random searches on one dataset; an op is one search trial."""

    name = ""
    task = ""
    master_seed = 0
    searches: tuple[Search, ...] = ()

    def prepare(self, workdir: Path, seed: int, tracer=NULL_TRACER) -> dict:
        raise NotImplementedError

    def run_round(self, state) -> Round:
        rnd = Round()
        for search in self.searches:
            (best, table), wall, cpu = timed(lambda: harness.random_search(
                HyperGrid(), ModelClass(search.model), state["dataset"], self.task,
                state["task_class"], budget=search.budget, n_seeds=search.n_seeds,
                master_seed=self.master_seed, jobs=search.jobs))
            outcome = SearchOutcome(search, best, table, wall)
            rnd.outputs.append(outcome)
            rnd.samples[search.model] = (search.trials, wall, cpu)
            rnd.ops += search.trials
            rnd.failed += outcome.summary()["n_failed"]
        return rnd

    def sampled(self, state, outcome: SearchOutcome):
        """(config, seed, TrialResult) for every trial of a search, drawn the
        way random_search draws them."""
        sampler = RngStream(self.master_seed).child("sampler")
        by_key = {(t.config_id, t.seed): t for t in outcome.table.trials}
        for i in range(outcome.search.budget):
            config = harness.sample_config(HyperGrid(), ModelClass(outcome.search.model),
                                           self.task, state["task_class"], sampler,
                                           config_id=i)
            for j in range(outcome.search.n_seeds):
                seed = harness.trial_seed(self.master_seed, i, j)
                yield config, seed, by_key[(i, seed)]

    def traced_round(self, state, tracer: Tracer) -> Round:
        rnd = self.run_round(state)
        for outcome in rnd.outputs:
            rnd.pool_busy += sum(t.wall_time for t in outcome.table.trials)
            rnd.pool_capacity += outcome.search.jobs * outcome.wall
            for config, seed, result in self.sampled(state, outcome):
                rnd.trial_walls.append(result.wall_time)
                # the same trial untraced, right before, prices the tracing
                rnd.untraced_op_s += harness.run_trial(config, state["dataset"], seed).wall_time
                rnd.traced_op_s += traced_trial(tracer, config, state["dataset"], seed).wall_time
        return rnd

    def seeded_results(self, rnd: Round) -> list[dict]:
        return [o.summary() for o in rnd.outputs]

    def same_results(self, a: Round, b: Round) -> bool:
        return all(x.table.to_csv_lines() == y.table.to_csv_lines()
                   for x, y in zip(a.outputs, b.outputs))

    def _reference_scores(self, state, config, seed):
        dataset = state["dataset"]
        deep = build_deep_reservoir(config.layer_configs(), _input_dim(dataset),
                                    RngStream(seed), concat=config.concat)
        if dataset.kind == "regression":
            return checks.reference_regression_scores(deep.layers, config.concat, config.lam,
                                                      config.washout, dataset)
        return checks.reference_classification_scores(deep.layers, config.concat,
                                                       config.lam, dataset)

    def data_checks(self, state) -> list[checks.Check]:
        return []

    def search_checks(self, rnd: Round) -> list[checks.Check]:
        return []

    def check(self, state, rnd: Round) -> list[checks.Check]:
        out = self.data_checks(state)
        for outcome in rnd.outputs:
            trials = list(self.sampled(state, outcome))
            for label, (config, seed, result) in (("first", trials[0]), ("last", trials[-1])):
                out.append(checks.check_trial_scores(
                    f"reference scores {outcome.search.model} {label} trial",
                    (result.val_metric, result.test_metric),
                    self._reference_scores(state, config, seed)))
                if outcome.search.jobs > 1:
                    again = harness.run_trial(config, state["dataset"], seed)
                    out.append(checks.check_equal(
                        f"jobs={outcome.search.jobs} {label} trial equals in-process rerun",
                        (result.val_metric, result.test_metric),
                        (again.val_metric, again.test_metric)))
        return out + self.search_checks(rnd)


class RegressionSearch(SearchWorkload):
    def prepare(self, workdir: Path, seed: int, tracer=NULL_TRACER) -> dict:
        with tracer.span("tasks.generate"):
            generated, task_class = harness.make_task(self.task, seed)
        cache = workdir / "data" / self.task
        with tracer.span("tasks.cache_save"):
            tasks.save_dataset(generated, cache, meta={"generator": self.task, "seed": seed})
        with tracer.span("tasks.cache_load"):
            dataset = tasks.load_dataset(cache)
        return {"dataset": dataset, "task_class": task_class, "generated": generated}

    def target_check(self, generated) -> checks.Check:
        raise NotImplementedError

    def data_checks(self, state) -> list[checks.Check]:
        return [self.target_check(state["generated"]),
                checks.check_dataset_equal("cache round trip", state["dataset"],
                                           state["generated"])]


class Sinmem10(RegressionSearch):
    name = "sinmem10"
    task = "sinmem10"
    master_seed = 2026
    searches = (Search("LeakyESN", 4, 2), Search("DeepResESN_C", 4, 2),
                Search("DeepResESN_R", 4, 2))

    def target_check(self, generated):
        return checks.check_sinmem_targets(generated.inputs, generated.targets, 10)

    def search_checks(self, rnd):
        best = {o.search.model: o.summary()["test_mean"] for o in rnd.outputs}
        return [checks.check_separation(best["DeepResESN_C"], best["LeakyESN"])]


class Narma30(RegressionSearch):
    name = "narma30"
    task = "narma30"
    master_seed = 2027
    searches = (Search("DeepResESN_C", 4, 4, jobs=2),)

    def target_check(self, generated):
        return checks.check_narma_targets(generated.inputs, generated.targets, 30)


class Classify(SearchWorkload):
    """Labelled sequences written as flattened-image CSV, loaded back with a
    pixel permutation, merged, split, cached and searched over the lambda grid."""

    name = "classify"
    task = "classify"
    master_seed = 2028
    searches = (Search("DeepResESN_C", 4, 2),)
    n_train, n_test, length, n_classes = 96, 48, 64, 3
    train_fraction = 0.8

    def sequences(self, seed: int, part: int, count: int):
        """Class k oscillates at frequency (2 + 3k) / length with amplitude
        0.1 + 0.3k, a random phase and noise, squashed into (0.1, 0.9)."""
        rng = np.random.default_rng((seed, part))
        labels = np.arange(count) % self.n_classes
        t = np.arange(self.length)
        seqs = []
        for k in labels:
            wave = (0.1 + 0.3 * k) * np.sin(2 * np.pi * (2 + 3 * k) * t / self.length
                                             + rng.uniform(0, 2 * np.pi))
            seqs.append(0.5 + 0.4 * np.tanh(wave + rng.normal(0.0, 0.1, self.length)))
        return seqs, labels

    def prepare(self, workdir: Path, seed: int, tracer=NULL_TRACER) -> dict:
        written = {"train": self.sequences(seed, 0, self.n_train),
                   "test": self.sequences(seed, 1, self.n_test)}
        data = workdir / "data"
        data.mkdir(parents=True, exist_ok=True)
        loaded = {}
        for part, (seqs, labels) in written.items():
            path = data / f"{part}.csv"
            with tracer.span("tasks.generate"):
                tasks.write_sequence_classification(path, seqs, labels,
                                                    fmt="flattened-image-csv")
            with tracer.span("tasks.load"):
                loaded[part] = tasks.load_sequence_classification(
                    path, fmt="flattened-image-csv", permutation_seed=seed)
        merged = tasks.merge_train_test(loaded["train"], loaded["test"])
        split = tasks.split(merged, self.train_fraction, seed=seed)
        cache = data / "cache"
        with tracer.span("tasks.cache_save"):
            tasks.save_dataset(split, cache, meta={"generator": self.name, "seed": seed})
        with tracer.span("tasks.cache_load"):
            dataset = tasks.load_dataset(cache)
        return {"dataset": dataset, "task_class": "classification", "split": split,
                "written": written, "loaded": loaded}

    def data_checks(self, state):
        return [checks.check_sequences_roundtrip(f"{part} loader round trip",
                                                 *state["written"][part], state["loaded"][part])
                for part in ("train", "test")] + [
            checks.check_stratified_split(state["split"], self.n_train, self.n_test,
                                          self.train_fraction),
            checks.check_dataset_equal("cache round trip", state["dataset"], state["split"])]

    def search_checks(self, rnd):
        best_val = max(o.summary()["val_mean"] for o in rnd.outputs)
        return [checks.check_above_chance(best_val, self.n_classes)]


# ---------------------------------------------------------------------------
# analysis workload


class Analysis:
    """The stability, eigen and spectra commands on 5 x 100 stacks of each
    residual kind; an op is one command run through cli.main."""

    name = "analysis"
    kinds = ("identity", "cyclic", "random")
    layers, units = 5, 100
    spectra_trials, spectra_length = 10, 1000
    commands = {
        "stability": ["--rho", "0.9", "--alpha", "0.5", "--beta", "0.5"],
        "eigen": ["--rho", "2.0", "--alpha", "0.5", "--beta", "1.0"],
        "spectra": ["--rho", "1.0", "--alpha", "0.9", "--beta", "0.1",
                    "--trials", str(spectra_trials), "--length", str(spectra_length)],
    }
    # the module functions the commands call, as in TRIAL_STAGES
    stages = (
        (cli, "build_deep_reservoir", "reservoir.build", _build_attrs),
        (analysis, "build_deep_reservoir", "reservoir.build", _build_attrs),
        (numerics, "eigenvalues", "numerics.eigvals", None),
        (analysis, "forward", "reservoir.forward", _forward_attrs),
        (stability, "stability_report", "stability.report", None),
        (stability, "eigenspectrum_report", "stability.eigen", None),
        (analysis, "layerwise_spectra", "analysis.spectra", {"trials": spectra_trials}),
        (harness, "emit_reports", "harness.emit_reports", None),
    )

    def argv(self, command: str, kind: str, state) -> list[str]:
        return [command, "--kind", kind, "--layers", str(self.layers),
                "--units", str(self.units), "--seed", str(state["seed"]),
                "--out", str(state["out"] / kind)] + self.commands[command]

    def prepare(self, workdir: Path, seed: int, tracer=NULL_TRACER) -> dict:
        """The commands need no data: set-up makes their output directories
        and rejects a bad command line before the first op."""
        state = {"seed": seed, "out": workdir / "analysis"}
        parser = cli.build_parser()
        for kind in self.kinds:
            (state["out"] / kind).mkdir(parents=True, exist_ok=True)
            for command in self.commands:
                parser.parse_args(self.argv(command, kind, state))
        return state

    def _command(self, state, rnd: Round, command: str, kind: str, tracer=NULL_TRACER) -> str:
        buf = io.StringIO()
        with tracer.span(f"cli.{command}", kind=kind), contextlib.redirect_stdout(buf):
            code, wall, cpu = timed(lambda: cli.main(self.argv(command, kind, state)))
        rnd.samples[f"{command}.{kind}"] = (1, wall, cpu)
        rnd.ops += 1
        rnd.failed += code != 0
        return buf.getvalue()

    def run_round(self, state) -> Round:
        rnd = Round()
        stdout = {(command, kind): self._command(state, rnd, command, kind)
                  for kind in self.kinds for command in self.commands}
        rnd.outputs.append(self._read_outputs(state, stdout))
        return rnd

    def traced_round(self, state, tracer: Tracer) -> Round:
        """Each command untraced, then again with spans."""
        rnd = Round()
        traced = Round()
        stdout = {}
        for kind in self.kinds:
            for command in self.commands:
                stdout[(command, kind)] = self._command(state, rnd, command, kind)
                with spans_around(tracer, self.stages):
                    self._command(state, traced, command, kind, tracer)
                key = f"{command}.{kind}"
                rnd.untraced_op_s += rnd.samples[key][1]
                rnd.traced_op_s += traced.samples[key][1]
        rnd.failed += traced.failed
        rnd.outputs.append(self._read_outputs(state, stdout))
        return rnd

    def _read_outputs(self, state, stdout) -> dict:
        """Seeded results of one round, read back from the command outputs."""
        out = {}
        for kind in self.kinds:
            report = json.loads(stdout[("stability", kind)])
            eigs = json.loads((state["out"] / kind / "eigen" / f"{kind}.json").read_text())
            rows = np.loadtxt(state["out"] / kind / "spectra" / f"{kind}.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            out[kind] = {
                "global_rho": report["global_rho"], "global_c": report["global_c"],
                "eigen_max": [float(np.max(np.hypot(*np.asarray(v).T))) for v in eigs.values()],
                "high_band": checks.high_band_fractions(rows, self.spectra_length),
            }
        return out

    def seeded_results(self, rnd: Round) -> dict:
        return rnd.outputs[0]

    def same_results(self, a: Round, b: Round) -> bool:
        return json.dumps(a.outputs, sort_keys=True) == json.dumps(b.outputs, sort_keys=True)

    def _configs(self, command: str, kind: str) -> list[LayerConfig]:
        """The stack a command builds, read from its parsed arguments."""
        args = cli.build_parser().parse_args(self.argv(command, kind, {"seed": 0,
                                                                       "out": Path(".")}))
        return [LayerConfig(hidden_size=args.units, spectral_radius=args.rho,
                            input_scaling=args.omega_x, bias_scaling=args.omega_b,
                            alpha=args.alpha, beta=args.beta, residual=_KINDS[kind])
                for _ in range(args.layers)]

    def check(self, state, rnd: Round) -> list[checks.Check]:
        out = []
        for kind in self.kinds:
            report = json.loads((state["out"] / kind / "stability" / "report.json").read_text())
            deep = build_deep_reservoir(self._configs("stability", kind), 1,
                                        RngStream(state["seed"]))
            out.append(checks.check_stability(kind, deep.layers, report))

            rng = RngStream(state["seed"])
            deep = build_deep_reservoir(self._configs("eigen", kind), 1, rng)
            h, x = stability.random_probe(deep, rng.child("probe"))
            eigs = json.loads((state["out"] / kind / "eigen" / f"{kind}.json").read_text())
            out.append(checks.check_eigen(kind, deep.layers, h, x, eigs))
        out.append(checks.check_identity_lowpass(rnd.outputs[0]["identity"]["high_band"]))
        return out


WORKLOADS = {w.name: w for w in (Sinmem10(), Narma30(), Classify(), Analysis())}
