"""Experiment harness: model classes, random search, and report emission.

A model class fixes the architecture family (shallow or deep, leaky or
residual, and the residual structure); the hyperparameter grid supplies
candidate values per hyperparameter, with the first layer bound to the
base values and deeper layers to the inter values. Searches are
reproducible from the master seed alone, independent of worker count:
every trial derives its own random stream from
(master seed, config index, seed index).
"""

from __future__ import annotations

import enum
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tasks as _tasks
from .numerics import RngStream
from .readout import accuracy, fit, nrmse, one_hot, predict
from .reservoir import (
    INTERVALS,
    DeepReservoir,
    LayerConfig,
    ResidualKind,
    allocate_units,
    build_deep_reservoir,
    require_in,
    run_states,
)
# Trials call neither forward nor readout_features, but both stay importable
# from here: the traced benchmark (bench/workloads.py) wraps the stage
# functions harness imports, by these names.
from .reservoir import forward, readout_features  # noqa: F401
from .tasks import Dataset


class ModelClass(enum.Enum):
    """One row per class: its name, then whether it is deep, whether it is
    leaky, and its residual kind (a leaky class integrates through the
    identity)."""

    LEAKY_ESN = "LeakyESN", False, True, ResidualKind.IDENTITY
    RES_ESN_R = "ResESN_R", False, False, ResidualKind.RANDOM_ORTHOGONAL
    RES_ESN_C = "ResESN_C", False, False, ResidualKind.CYCLIC
    RES_ESN_I = "ResESN_I", False, False, ResidualKind.IDENTITY
    DEEP_ESN = "DeepESN", True, True, ResidualKind.IDENTITY
    DEEP_RES_ESN_R = "DeepResESN_R", True, False, ResidualKind.RANDOM_ORTHOGONAL
    DEEP_RES_ESN_C = "DeepResESN_C", True, False, ResidualKind.CYCLIC
    DEEP_RES_ESN_I = "DeepResESN_I", True, False, ResidualKind.IDENTITY

    def __new__(cls, value: str, is_deep: bool, is_leaky: bool, residual_kind: ResidualKind):
        member = object.__new__(cls)
        member._value_ = value
        member.is_deep, member.is_leaky, member.residual_kind = is_deep, is_leaky, residual_kind
        return member


class HyperGrid:
    """Candidate values for random search.

    The 0.0001 / 0.99 mixing values are explored only on memory tasks; the
    larger regularization list only on classification.
    """

    __slots__ = ()
    concat = (False, True)
    n_layers = (2, 3, 4, 5)
    rho = (0.9, 1.0, 1.1)
    omega_x = (0.01, 0.1, 1.0, 10.0)
    omega_b = (0.0, 0.01, 0.1, 1.0, 10.0)
    tau = (0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    alpha = (0.0, 0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    beta = (0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    lam = (0.0,)
    lam_classification = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
    memory_only = (0.0001, 0.99)

    def mixing_values(self, values: tuple, task_class: str) -> tuple:
        if task_class == "memory":
            return values
        return tuple(v for v in values if v not in self.memory_only)

    def lam_values(self, task_class: str) -> tuple:
        return self.lam_classification if task_class == "classification" else self.lam


# The LayerConfig field each hyperparameter sets, and so the interval it
# must lie in; an inter_ twin sets it on every layer past the first. tau
# sets beta, and alpha = 1 - tau with it.
_LAYER_FIELDS = {"rho": "spectral_radius", "omega_x": "input_scaling",
                 "omega_b": "bias_scaling", "tau": "beta", "alpha": "alpha", "beta": "beta"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified model: class, architecture, and hyperparameters.

    Inter values apply to layers beyond the first. Of the fields that
    default to None, a config sets exactly those optional_fields lists for
    its class and depth.
    """

    model_class: ModelClass
    task: str
    total_units: int = 100
    n_layers: int = 1
    concat: bool = False
    rho: float = 1.0
    omega_x: float = 1.0
    omega_b: float = 0.0
    inter_rho: float | None = None
    inter_omega_x: float | None = None
    inter_omega_b: float | None = None
    tau: float | None = None
    inter_tau: float | None = None
    alpha: float | None = None
    inter_alpha: float | None = None
    beta: float | None = None
    inter_beta: float | None = None
    lam: float = 0.0
    washout: int = 200
    config_id: int = 0

    def __post_init__(self):
        if not isinstance(self.concat, bool):
            raise ValueError(f"concat must be a bool, got {self.concat!r}")
        for name in ("total_units", "n_layers", "washout", "config_id"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # deep classes may run a single layer (they reduce to the shallow
        # models then), but shallow classes never stack
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not self.model_class.is_deep and self.n_layers != 1:
            raise ValueError("shallow model classes force n_layers = 1")
        read = self.optional_fields(self.model_class, self.n_layers)
        missing = [name for name in read if getattr(self, name) is None]
        unused = [f.name for f in fields(self) if f.default is None
                  and f.name not in read and getattr(self, f.name) is not None]
        if missing or unused:
            raise ValueError(f"a {self.n_layers}-layer {self.model_class.value} config reads "
                             f"{', '.join(read)}; missing: {', '.join(missing) or 'none'}; "
                             f"set but unused: {', '.join(unused) or 'none'}")
        for name in ["rho", "omega_x", "omega_b"] + read:
            layer_field = _LAYER_FIELDS[name.removeprefix("inter_")]
            require_in(name, getattr(self, name), INTERVALS[layer_field])
        require_in("lam", self.lam, "[0, inf)")
        if self.washout < 0:
            raise ValueError(f"washout must be >= 0, got {self.washout}")
        allocate_units(self.total_units, self.n_layers, self.concat)

    @staticmethod
    def optional_fields(model_class: ModelClass, n_layers: int) -> list[str]:
        """The optional fields a config of this class and depth reads, in
        the order sample_config draws them: the first layer's mixing (tau
        for a leaky class, alpha and beta otherwise), then past one layer
        that mixing's inter twin and inter_rho, inter_omega_x, inter_omega_b."""
        mixing = ["tau"] if model_class.is_leaky else ["alpha", "beta"]
        if n_layers == 1:
            return mixing
        return mixing + [f"inter_{name}" for name in mixing + ["rho", "omega_x", "omega_b"]]

    def layer_configs(self) -> list[LayerConfig]:
        read = ["rho", "omega_x", "omega_b"] + self.optional_fields(self.model_class, self.n_layers)
        out = []
        for l, size in enumerate(allocate_units(self.total_units, self.n_layers, self.concat)):
            # the first layer reads the plain fields, every later one their inter twins
            hp = {_LAYER_FIELDS[name.removeprefix("inter_")]: getattr(self, name)
                  for name in read if name.startswith("inter_") == (l > 0)}
            hp.setdefault("alpha", 1.0 - hp["beta"])  # a leaky layer's alpha is 1 - tau
            out.append(LayerConfig(hidden_size=size, residual=self.model_class.residual_kind, **hp))
        return out

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model_class"] = self.model_class.value
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["model_class"] = ModelClass(d["model_class"])
        for key in ("readout_mode", "task_class"):  # written by older versions, never read
            d.pop(key, None)
        return ExperimentConfig(**d)


@dataclass(frozen=True)
class TrialResult:
    config_id: int
    seed: int
    val_metric: float
    test_metric: float
    wall_time: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ResultsTable:
    """Per-config seed aggregates; stds cover only the seeds that succeeded."""

    rows: list[dict]
    trials: list[TrialResult] = field(default_factory=list)

    def to_csv_lines(self) -> list[str]:
        return ["config_id,val_mean,val_std,test_mean,test_std,n_seeds,n_failed"] + [
            "{config_id},{val_mean:.17g},{val_std:.17g},{test_mean:.17g},{test_std:.17g},"
            "{n_seeds},{n_failed}".format(**r) for r in self.rows]

    def to_markdown_lines(self) -> list[str]:
        return ["| config | val mean ± std | test mean ± std | failed |", "|---|---|---|---|"] + [
            "| {config_id} | {val_mean:.4g} ± {val_std:.2g} | {test_mean:.4g} ± {test_std:.2g} "
            "| {n_failed}/{n_seeds} |".format(**r) for r in self.rows]


def sample_config(grid: HyperGrid, model_class: ModelClass, task: str, task_class: str,
                  rng: RngStream, total_units: int = ExperimentConfig.total_units,
                  washout: int = ExperimentConfig.washout, config_id: int = 0) -> ExperimentConfig:
    """Draw one configuration uniformly from the grid's candidate lists."""
    deep = model_class.is_deep
    kwargs: dict = {
        "model_class": model_class,
        "task": task,
        "total_units": total_units,
        "n_layers": rng.choice(grid.n_layers) if deep else 1,
        "concat": bool(rng.choice(grid.concat)) if deep else False,
        "rho": rng.choice(grid.rho),
        "omega_x": rng.choice(grid.omega_x),
        "omega_b": rng.choice(grid.omega_b),
        "lam": rng.choice(grid.lam_values(task_class)),
        "washout": 0 if task_class == "classification" else washout,
        "config_id": config_id,
    }
    for name in ExperimentConfig.optional_fields(model_class, kwargs["n_layers"]):
        base = name.removeprefix("inter_")
        values = getattr(grid, base)
        if base in ("tau", "alpha", "beta"):
            values = grid.mixing_values(values, task_class)
        kwargs[name] = rng.choice(values)
    return ExperimentConfig(**kwargs)


# Sequences of one length run together in batches of at most this many,
# which bounds the stacked copy of their inputs and the (S, B, N) states of
# S seeds whatever the dataset's size.
_MAX_BATCH = 512


def _last_state_features(deeps: list[DeepReservoir], sequences: list[np.ndarray],
                         concat: bool) -> tuple[list[np.ndarray], list[str | None]]:
    """For each reservoir, one row per sequence: its last state, of every
    layer with concat and of the last layer otherwise; and the reservoir's
    first non-finite state, if any. Sequences of one length are stacked once
    per batch and run through every reservoir together."""
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    batches = [same[i:i + _MAX_BATCH] for same in by_length.values()
               for i in range(0, len(same), _MAX_BATCH)]
    kept = deeps[0].layers if concat else deeps[0].layers[-1:]
    feats = [np.empty((len(sequences), sum(layer.size for layer in kept))) for _ in deeps]
    errors: list[str | None] = [None] * len(deeps)
    for idx in batches:
        group = np.stack([sequences[i] for i in idx], axis=1)  # (T, B, N_x)
        states, group_errors, _ = run_states(deeps, group, len(group) - 1, concat)
        for s, (last, error) in enumerate(zip(states, group_errors)):
            feats[s][idx] = last[0]
            errors[s] = errors[s] or error
    return feats, errors


def _scored_rows(dataset: Dataset, washout: int) -> list[np.ndarray]:
    """The train, val and test samples a trial fits and scores on: a
    regression split's steps from the washout on, a classification split's
    sequences. Refuses a split no trial can be scored on, before any trial
    runs: a readout needs a train row to fit, and a regression one two val
    and two test rows to take an NRMSE; a classification search selects on
    val, so val must hold a sequence; NRMSE needs val and test targets
    that are not all zero."""
    sp = dataset.split
    if sp is None:
        raise ValueError("dataset has no split attached")
    if len(sp.test) == 0:
        raise ValueError("dataset has an empty test split: no samples to score a trial on")
    if len(sp.train) == 0:
        raise ValueError("dataset has an empty train split: no samples to fit a readout on")
    if dataset.kind == "classification":
        if len(sp.val) == 0:
            raise ValueError("dataset has an empty val split: no samples to select a "
                             "configuration on; re-split its train sequences with "
                             "tasks.split(dataset, fraction)")
        return [sp.train, sp.val, sp.test]
    rows = [idx[idx >= washout] for idx in (sp.train, sp.val, sp.test)]
    if len(rows[0]) < 1 or len(rows[1]) < 2 or len(rows[2]) < 2:
        raise ValueError(
            f"washout {washout} leaves {len(rows[0])}/{len(rows[1])}/{len(rows[2])} "
            f"train/val/test rows of the {len(sp.train)}/{len(sp.val)}/{len(sp.test)} split; "
            "a trial needs at least 1/2/2")
    for part, idx in (("val", rows[1]), ("test", rows[2])):
        zero = np.flatnonzero(~np.square(dataset.targets[idx]).any(axis=0))  # nrmse's RMS is 0
        if zero.size:
            raise ValueError(f"{part} targets of output {zero[0]} are all zero: NRMSE is undefined")
    return rows


def _one_run(rows: np.ndarray) -> slice | np.ndarray:
    """Rows that are one run of consecutive steps, as every regression split
    part is, as a slice, which reads a view of a seed's states, not a copy;
    any other rows as they are."""
    return slice(rows[0], rows[-1] + 1) if np.all(np.diff(rows) == 1) else rows


def run_config(config: ExperimentConfig, dataset: Dataset, seeds: list[int]) -> list[TrialResult]:
    """Build, run, fit, and score one configuration for each of its seeds.

    The seeds' reservoirs share every size and mixing coefficient, so they
    advance together through one state loop (reservoir.run_states), and each
    seed's result is bit-identical to running that seed alone. A regression
    readout is fitted, and its states dropped, before the scored steps run.
    Unstable dynamics fail only their own seed, reported as a failed trial
    rather than raised. Each trial's wall_time is an equal share of the run.
    """
    train, val_rows, test_rows = _scored_rows(dataset, config.washout)
    if not seeds:
        raise ValueError("no seeds to run: a configuration needs at least one seed")
    started = time.perf_counter()
    deeps = [build_deep_reservoir(config.layer_configs(), dataset.input_dim, RngStream(seed),
                                  concat=config.concat) for seed in seeds]
    # regression has a feature row per step from the washout on and scores
    # NRMSE; classification has one per sequence, fits one-hot targets and
    # scores accuracy. The loop stops after the last train step and resumes
    # once the readouts are fitted, unless the split scores a step before it.
    if dataset.kind == "regression":
        cut = train.max() + 1 if min(val_rows.min(), test_rows.min()) > train.max() else None
        feats, errors, carry = run_states(deeps, dataset.inputs[:cut], config.washout,
                                          config.concat)
        first, targets, metric = config.washout, dataset.targets, nrmse
    else:
        feats, errors = _last_state_features(deeps, dataset.inputs, config.concat)
        first, targets, metric, cut = 0, one_hot(dataset.targets, dataset.n_classes), accuracy, None
    fit_rows, fit_targets = _one_run(train - first), targets[train]
    w_os = []
    for seed_feats, error in zip(feats, errors):
        try:
            w_os.append(error or fit(seed_feats[fit_rows], fit_targets, config.lam))
        except np.linalg.LinAlgError as exc:
            w_os.append(str(exc))
    if cut is not None:
        del feats, seed_feats  # the last references to the fit span's states
        feats, late, _ = run_states(deeps, dataset.inputs[cut:], 0, config.concat, carry=carry)
        errors, first = [error or error_late for error, error_late in zip(errors, late)], cut
    scored = [(_one_run(rows - first), dataset.targets[rows]) for rows in (val_rows, test_rows)]
    outcomes = []
    for seed, seed_feats, error, w_o in zip(seeds, feats, errors, w_os):
        val = test = float("nan")
        error = error or (w_o if isinstance(w_o, str) else None)
        if error is None:
            scores = [metric(predict(w_o, seed_feats[idx]), truth) for idx, truth in scored]
            if np.all(np.isfinite(scores)):
                val, test = map(float, scores)
            else:
                error = "non-finite metric"
        outcomes.append((seed, val, test, error))
    wall = (time.perf_counter() - started) / len(seeds)
    return [TrialResult(config.config_id, seed, val, test, wall, error)
            for seed, val, test, error in outcomes]


def run_trial(config: ExperimentConfig, dataset: Dataset, seed: int) -> TrialResult:
    """Build, run, fit, and score one (config, seed) pair: run_config with
    one seed."""
    return run_config(config, dataset, [seed])[0]


def trial_seed(master_seed: int, config_index: int, seed_index: int) -> int:
    """Stable per-trial seed; identical regardless of execution order."""
    seq = np.random.SeedSequence((int(master_seed), int(config_index), int(seed_index)))
    return int(seq.generate_state(1, np.uint64)[0])


# The search's dataset inside a pool worker, set once by the pool's
# initializer so that a task carries only (config, seeds).
_worker_dataset: Dataset | None = None


def _init_worker(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_config_in_worker(task: tuple[ExperimentConfig, list[int]]) -> list[TrialResult]:
    return run_config(task[0], _worker_dataset, task[1])


def aggregate(trials: list[TrialResult]) -> ResultsTable:
    """Collapse trials into per-config means/stds over the succeeding seeds."""
    by_config: dict[int, list[TrialResult]] = {}
    for t in trials:
        by_config.setdefault(t.config_id, []).append(t)
    rows = []
    for cid in sorted(by_config):
        group = sorted(by_config[cid], key=lambda t: t.seed)
        ok = [t for t in group if not t.failed]
        row = {"config_id": cid, "n_seeds": len(group), "n_failed": len(group) - len(ok)}
        for part in ("val", "test"):
            scores = np.asarray([getattr(t, f"{part}_metric") for t in ok])
            row[f"{part}_mean"] = float(scores.mean()) if ok else float("nan")
            row[f"{part}_std"] = float(scores.std()) if ok else float("nan")
        rows.append(row)
    return ResultsTable(rows=rows, trials=sorted(trials, key=lambda t: (t.config_id, t.seed)))


def random_search(grid: HyperGrid, model_class: ModelClass, dataset: Dataset,
                  task: str, task_class: str, budget: int, n_seeds: int,
                  master_seed: int, jobs: int = 1, total_units: int = ExperimentConfig.total_units,
                  washout: int = ExperimentConfig.washout) -> tuple[ExperimentConfig, ResultsTable]:
    """Uniform random search over the grid, selecting on seed-mean validation:
    highest accuracy on a classification dataset, lowest NRMSE otherwise.

    Failed trials score as infinitely bad; ties keep the earlier sample.
    """
    if budget < 1:
        raise ValueError("search budget must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    higher = dataset.kind == "classification"
    if higher != (task_class == "classification"):
        raise ValueError(f"task class {task_class!r} contradicts the {dataset.kind} dataset")
    _scored_rows(dataset, washout)
    if model_class.is_deep and True in grid.concat:
        # any draw may be the grid's deepest concat stack, so refuse before drawing
        allocate_units(total_units, max(grid.n_layers), True)
    sampler = RngStream(master_seed).child("sampler")
    configs = [
        sample_config(grid, model_class, task, task_class, sampler,
                      total_units=total_units, washout=washout, config_id=i)
        for i in range(budget)
    ]
    work = [(configs[i], [trial_seed(master_seed, i, j) for j in range(n_seeds)])
            for i in range(budget)]
    # a pool may start all of its workers at the first submit, each with a
    # copy of the dataset, so it gets no more workers than configurations
    workers = min(jobs, budget)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(dataset,)) as pool:
            per_config = list(pool.map(_run_config_in_worker, work))
    else:
        per_config = [run_config(config, dataset, seeds) for config, seeds in work]
    table = aggregate([trial for results in per_config for trial in results])

    finite = [row for row in table.rows if np.isfinite(row["val_mean"])]
    if not finite:
        raise RuntimeError("every sampled configuration failed")
    best = (max if higher else min)(finite, key=lambda row: row["val_mean"])
    return configs[best["config_id"]], table


# ---------------------------------------------------------------------------
# benchmark task registry (paper-scale lengths and splits)

# generate(t_steps, rng) makes a task's series; the mg oscillators ignore rng
TASK_SPECS = {
    "ctxor5": dict(generate=lambda t, rng: _tasks.gen_ctxor(t, 5, 2.0, rng),
                   length=6000, split=(4000, 1000, 1000), task_class="memory"),
    "ctxor10": dict(generate=lambda t, rng: _tasks.gen_ctxor(t, 10, 2.0, rng),
                    length=6000, split=(4000, 1000, 1000), task_class="memory"),
    "sinmem10": dict(generate=lambda t, rng: _tasks.gen_sinmem(t, 10, rng),
                     length=6000, split=(4000, 1000, 1000), task_class="memory"),
    "sinmem20": dict(generate=lambda t, rng: _tasks.gen_sinmem(t, 20, rng),
                     length=6000, split=(4000, 1000, 1000), task_class="memory"),
    "lz25": dict(generate=lambda t, rng: _tasks.gen_lorenz96(t, 25, rng),
                 length=1200, split=(400, 400, 400), task_class="forecasting"),
    "lz50": dict(generate=lambda t, rng: _tasks.gen_lorenz96(t, 50, rng),
                 length=1200, split=(400, 400, 400), task_class="forecasting"),
    "mg": dict(generate=lambda t, rng: _tasks.gen_mackey_glass(t, 1),
               length=10000, split=(5000, 2500, 2500), task_class="forecasting"),
    "mg84": dict(generate=lambda t, rng: _tasks.gen_mackey_glass(t, 84),
                 length=10000, split=(5000, 2500, 2500), task_class="forecasting"),
    "narma30": dict(generate=lambda t, rng: _tasks.gen_narma(t, 30, rng),
                    length=10000, split=(5000, 2500, 2500), task_class="forecasting"),
    "narma60": dict(generate=lambda t, rng: _tasks.gen_narma(t, 60, rng),
                    length=10000, split=(5000, 2500, 2500), task_class="forecasting"),
}


def make_task(name: str, seed: int, length: int | None = None) -> tuple[Dataset, str]:
    """Generate a registered benchmark with its split attached. Another
    length scales the registered train and val parts, in whole steps, and
    leaves the rest to test."""
    if name not in TASK_SPECS:
        raise ValueError(f"unknown task {name!r}; known: {sorted(TASK_SPECS)}")
    if length is not None and length < 1:
        raise ValueError(f"task length must be >= 1, got {length}")
    spec = TASK_SPECS[name]
    t_steps = spec["length"] if length is None else length
    ds = spec["generate"](t_steps, RngStream(seed).child(("task", name)))
    train, val, _ = (part * t_steps // spec["length"] for part in spec["split"])
    return _tasks.split(ds, (train, val, t_steps - train - val)), spec["task_class"]


# ---------------------------------------------------------------------------
# report emission


def emit_reports(out_dir, table: ResultsTable | None = None, manifest: dict | None = None,
                 stability_reports: dict | None = None, spectra: dict | None = None,
                 eigen: dict | None = None) -> None:
    """Write search results and analysis dumps under out_dir.

    spectra maps name -> per-layer magnitude spectra, written as
    spectra/<name>.csv (layer, bin, magnitude) rows; eigen maps name ->
    per-layer eigenvalues, written as eigen/<name>.csv (re, im, layer) rows
    and eigen/<name>.json ({"layer_<l>": [[re, im], ...]}); layers count
    from 1. stability_reports maps name -> dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(path: Path, text: str) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)

    if table is not None:
        write(out / "results.csv", "\n".join(table.to_csv_lines()) + "\n")
        write(out / "results.md", "\n".join(table.to_markdown_lines()) + "\n")
    if manifest is not None:
        write(out / "manifest.json", json.dumps(manifest, indent=2, default=str))
    for name, report in (stability_reports or {}).items():
        write(out / "stability" / f"{name}.json", json.dumps(report, indent=2))
    for name, per_layer in (spectra or {}).items():
        lines = ["layer,bin,magnitude"]
        lines += [f"{l},{k},{m:.17g}" for l, spec in enumerate(per_layer, start=1)
                  for k, m in enumerate(spec)]
        write(out / "spectra" / f"{name}.csv", "\n".join(lines) + "\n")
    for name, per_layer in (eigen or {}).items():
        # descending modulus, then real, then imaginary part; the keys are
        # rounded to 9 decimals so that a rounding-level change keeps the order
        per_layer = [e[np.lexsort((e.imag, e.real, np.round(e.imag, 9), np.round(e.real, 9),
                                   -np.round(np.abs(e), 9)))] for e in map(np.asarray, per_layer)]
        lines = ["re,im,layer"]
        lines += [f"{v.real:.17g},{v.imag:.17g},{l}" for l, eigs in enumerate(per_layer, start=1)
                  for v in eigs]
        write(out / "eigen" / f"{name}.csv", "\n".join(lines) + "\n")
        write(out / "eigen" / f"{name}.json", json.dumps(
            {f"layer_{l}": [[float(v.real), float(v.imag)] for v in eigs]
             for l, eigs in enumerate(per_layer, start=1)}))


def read_results_csv(path) -> list[dict]:
    """Parse a results.csv back into aggregate rows (inverse of emission),
    refusing a file without the header ResultsTable.to_csv_lines writes."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",") if lines else []
    expected = ResultsTable(rows=[]).to_csv_lines()[0].split(",")
    if header != expected:
        missing = ", ".join(c for c in expected if c not in header) or "none"
        found = f"header {lines[0]!r}" if lines else "no header"
        raise ValueError(f"{path} has {found}, expected {','.join(expected)} "
                         f"(missing columns: {missing})")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path} line {number} has {len(cells)} cells, "
                             f"the header has {len(header)}")
        row: dict = {}
        for key, cell in zip(header, cells):
            count = key in ("config_id", "n_seeds", "n_failed")
            try:
                row[key] = int(cell) if count else float(cell)
            except ValueError:
                raise ValueError(f"{path} line {number} column {key}: {cell!r} is not "
                                 f"{'a whole number' if count else 'a number'}") from None
        rows.append(row)
    return rows
