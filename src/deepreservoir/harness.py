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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tasks as _tasks
from .numerics import RngStream
from .readout import accuracy, fit, nrmse, one_hot, predict
from .reservoir import (
    DeepReservoir,
    LayerConfig,
    ResidualKind,
    StateOverflowError,
    allocate_units,
    build_deep_reservoir,
    run_states,
)
# Trials call neither forward nor readout_features, but both stay importable
# from here: the traced benchmark (bench/workloads.py) wraps the stage
# functions harness imports, by these names.
from .reservoir import forward, readout_features  # noqa: F401
from .tasks import Dataset


class ModelClass(enum.Enum):
    LEAKY_ESN = "LeakyESN"
    RES_ESN_R = "ResESN_R"
    RES_ESN_C = "ResESN_C"
    RES_ESN_I = "ResESN_I"
    DEEP_ESN = "DeepESN"
    DEEP_RES_ESN_R = "DeepResESN_R"
    DEEP_RES_ESN_C = "DeepResESN_C"
    DEEP_RES_ESN_I = "DeepResESN_I"

    @property
    def is_deep(self) -> bool:
        return self in (ModelClass.DEEP_ESN, ModelClass.DEEP_RES_ESN_R,
                        ModelClass.DEEP_RES_ESN_C, ModelClass.DEEP_RES_ESN_I)

    @property
    def is_leaky(self) -> bool:
        return self in (ModelClass.LEAKY_ESN, ModelClass.DEEP_ESN)

    @property
    def residual_kind(self) -> ResidualKind:
        if self in (ModelClass.RES_ESN_R, ModelClass.DEEP_RES_ESN_R):
            return ResidualKind.RANDOM_ORTHOGONAL
        if self in (ModelClass.RES_ESN_C, ModelClass.DEEP_RES_ESN_C):
            return ResidualKind.CYCLIC
        # leaky variants integrate through the identity
        return ResidualKind.IDENTITY


@dataclass(frozen=True)
class HyperGrid:
    """Candidate values for random search.

    The 0.0001 / 0.99 mixing values are explored only on memory tasks; the
    larger regularization list only on classification.
    """

    concat: tuple = (False, True)
    n_layers: tuple = (2, 3, 4, 5)
    rho: tuple = (0.9, 1.0, 1.1)
    omega_x: tuple = (0.01, 0.1, 1.0, 10.0)
    omega_b: tuple = (0.0, 0.01, 0.1, 1.0, 10.0)
    tau: tuple = (0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    alpha: tuple = (0.0, 0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    beta: tuple = (0.0001, 0.1, 0.5, 0.9, 0.99, 1.0)
    lam: tuple = (0.0,)
    lam_classification: tuple = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
    memory_only: tuple = (0.0001, 0.99)

    def mixing_values(self, values: tuple, task_class: str) -> tuple:
        if task_class == "memory":
            return values
        return tuple(v for v in values if v not in self.memory_only)

    def lam_values(self, task_class: str) -> tuple:
        return self.lam_classification if task_class == "classification" else self.lam


@dataclass
class ExperimentConfig:
    """One fully specified model: class, architecture, and hyperparameters.

    Inter values apply to layers beyond the first and are None for shallow
    classes; tau is None for residual classes and alpha/beta for leaky ones.
    """

    model_class: ModelClass
    task: str
    task_class: str
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
        # deep classes may run a single layer (they reduce to the shallow
        # models then), but shallow classes never stack
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not self.model_class.is_deep and self.n_layers != 1:
            raise ValueError("shallow model classes force n_layers = 1")
        if self.model_class.is_leaky:
            if self.tau is None or self.alpha is not None or self.beta is not None:
                raise ValueError("leaky classes take tau and no alpha/beta")
        else:
            if self.alpha is None or self.beta is None or self.tau is not None:
                raise ValueError("residual classes take alpha/beta and no tau")
        if self.n_layers > 1:
            needed = ["inter_rho", "inter_omega_x", "inter_omega_b"]
            needed += ["inter_tau"] if self.model_class.is_leaky else ["inter_alpha",
                                                                       "inter_beta"]
            missing = [name for name in needed if getattr(self, name) is None]
            if missing:
                raise ValueError(f"stacked config is missing {', '.join(missing)}")

    def _mixing(self, layer_index: int) -> tuple[float, float]:
        first = layer_index == 0
        if self.model_class.is_leaky:
            tau = self.tau if first else self.inter_tau
            return 1.0 - tau, tau
        return (self.alpha if first else self.inter_alpha,
                self.beta if first else self.inter_beta)

    def layer_configs(self) -> list[LayerConfig]:
        sizes = allocate_units(self.total_units, self.n_layers, self.concat)
        kind = self.model_class.residual_kind
        out = []
        for l, size in enumerate(sizes):
            alpha, beta = self._mixing(l)
            out.append(LayerConfig(
                hidden_size=size,
                spectral_radius=self.rho if l == 0 else self.inter_rho,
                input_scaling=self.omega_x if l == 0 else self.inter_omega_x,
                bias_scaling=self.omega_b if l == 0 else self.inter_omega_b,
                alpha=alpha,
                beta=beta,
                residual=kind,
            ))
        return out

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model_class"] = self.model_class.value
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["model_class"] = ModelClass(d["model_class"])
        d.pop("readout_mode", None)  # written by older versions, never read
        return ExperimentConfig(**d)


@dataclass
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


@dataclass
class ResultsTable:
    """Per-config seed aggregates; stds cover only the seeds that succeeded."""

    rows: list[dict]
    trials: list[TrialResult] = field(default_factory=list)

    def to_csv_lines(self) -> list[str]:
        header = "config_id,val_mean,val_std,test_mean,test_std,n_seeds,n_failed"
        lines = [header]
        for r in self.rows:
            lines.append("{config_id},{val_mean:.17g},{val_std:.17g},"
                         "{test_mean:.17g},{test_std:.17g},{n_seeds},{n_failed}".format(**r))
        return lines

    def to_markdown_lines(self) -> list[str]:
        lines = ["| config | val mean ± std | test mean ± std | failed |",
                 "|---|---|---|---|"]
        for r in self.rows:
            lines.append("| {config_id} | {val_mean:.4g} ± {val_std:.2g} "
                         "| {test_mean:.4g} ± {test_std:.2g} | {n_failed}/{n_seeds} |".format(**r))
        return lines


def sample_config(grid: HyperGrid, model_class: ModelClass, task: str, task_class: str,
                  rng: RngStream, total_units: int = 100, washout: int = 200,
                  config_id: int = 0) -> ExperimentConfig:
    """Draw one configuration uniformly from the grid's candidate lists."""
    deep = model_class.is_deep
    kwargs: dict = {
        "model_class": model_class,
        "task": task,
        "task_class": task_class,
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
    if model_class.is_leaky:
        taus = grid.mixing_values(grid.tau, task_class)
        kwargs["tau"] = rng.choice(taus)
        if deep:
            kwargs["inter_tau"] = rng.choice(taus)
    else:
        alphas = grid.mixing_values(grid.alpha, task_class)
        betas = grid.mixing_values(grid.beta, task_class)
        kwargs["alpha"] = rng.choice(alphas)
        kwargs["beta"] = rng.choice(betas)
        if deep:
            kwargs["inter_alpha"] = rng.choice(alphas)
            kwargs["inter_beta"] = rng.choice(betas)
    if deep:
        kwargs["inter_rho"] = rng.choice(grid.rho)
        kwargs["inter_omega_x"] = rng.choice(grid.omega_x)
        kwargs["inter_omega_b"] = rng.choice(grid.omega_b)
    return ExperimentConfig(**kwargs)


def _as_steps(x) -> np.ndarray:
    """A sequence as (T, N_x) rows; a (T,) series has N_x = 1."""
    x = np.asarray(x, dtype=float)
    return x.reshape(len(x), -1)


def _input_dim(dataset: Dataset) -> int:
    first = dataset.inputs if dataset.kind == "regression" else dataset.inputs[0]
    return _as_steps(first).shape[1]


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
        group = np.stack([_as_steps(sequences[i]) for i in idx], axis=1)  # (T, B, N_x)
        # checked here, so that the message names the dataset's index and
        # not the position inside the batch, as run_states would
        finite = np.isfinite(group).all(axis=(0, 2))
        if not finite.all():
            i = idx[np.argmin(finite)]
            t = np.argmin(np.isfinite(_as_steps(sequences[i])).all(axis=1))
            raise ValueError(f"non-finite input at step {t} of sequence {i}")
        states, group_errors = run_states(deeps, group, len(group) - 1, concat)
        for s, (last, error) in enumerate(zip(states, group_errors)):
            feats[s][idx] = last[0]
            errors[s] = errors[s] or error
    return feats, errors


def _require_scorable_split(dataset: Dataset, washout: int) -> None:
    """Reject a split no trial can be scored on, before any trial runs: a
    readout needs a train row to fit, and a regression one two val and two
    test rows after the washout to take an NRMSE; a classification search
    selects on val, so val must hold a sequence."""
    sp = dataset.split
    if sp is None:
        raise ValueError("dataset has no split attached")
    if len(sp.test) == 0:
        raise ValueError("dataset has an empty test split: no samples to score a trial on")
    if len(sp.train) == 0:
        raise ValueError("dataset has an empty train split: no samples to fit a readout on")
    if dataset.kind == "regression":
        rows = [int(np.count_nonzero(idx >= washout)) for idx in (sp.train, sp.val, sp.test)]
        if rows[0] < 1 or rows[1] < 2 or rows[2] < 2:
            raise ValueError(
                f"washout {washout} leaves {rows[0]}/{rows[1]}/{rows[2]} train/val/test rows "
                f"of the {len(sp.train)}/{len(sp.val)}/{len(sp.test)} split; "
                "a trial needs at least 1/2/2")
    elif len(sp.val) == 0:
        raise ValueError("dataset has an empty val split: no samples to select a configuration "
                         "on; re-split its train sequences with tasks.split(dataset, fraction)")


def _score(config: ExperimentConfig, feats: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """Fit one reservoir's readout on the train rows and score it on val and
    test. Regression has a row per step from the washout on and scores NRMSE
    normalized by the target's root mean square (the convention the published
    per-task numbers follow, not the std); classification has a row per
    sequence, fits one-hot targets and scores accuracy."""
    sp = dataset.split
    if dataset.kind == "regression":
        washout = config.washout
        truth = fit_targets = np.asarray(dataset.targets, dtype=float)
        metric = lambda pred, y: nrmse(pred, y, normalizer="rms")
    else:
        washout = 0
        metric = accuracy
        truth = np.asarray(dataset.targets, dtype=int)
        fit_targets = one_hot(truth, dataset.n_classes)

    def rows(idx: np.ndarray) -> np.ndarray:
        return idx[idx >= washout]

    train = rows(sp.train)
    model = fit(feats[train - washout], fit_targets[train], config.lam)
    scores = [metric(predict(model, feats[idx - washout]), truth[idx])
              for idx in (rows(sp.val), rows(sp.test))]
    if not np.all(np.isfinite(scores)):
        raise StateOverflowError("non-finite metric")
    return float(scores[0]), float(scores[1])


def run_config(config: ExperimentConfig, dataset: Dataset, seeds: list[int]) -> list[TrialResult]:
    """Build, run, fit, and score one configuration for each of its seeds.

    The seeds' reservoirs share every size and mixing coefficient, so they
    advance together through one state loop (reservoir.run_states), and each
    seed's result is bit-identical to running that seed alone. Unstable
    dynamics fail only their own seed, reported as a failed trial rather
    than raised. Each trial's wall_time is an equal share of the run.
    """
    _require_scorable_split(dataset, config.washout)
    if not seeds:
        raise ValueError("no seeds to run: a configuration needs at least one seed")
    started = time.perf_counter()
    deeps = [build_deep_reservoir(config.layer_configs(), _input_dim(dataset), RngStream(seed),
                                  concat=config.concat) for seed in seeds]
    if dataset.kind == "regression":
        feats, errors = run_states(deeps, _as_steps(dataset.inputs), config.washout,
                                   config.concat)
    else:
        feats, errors = _last_state_features(deeps, dataset.inputs, config.concat)
    outcomes = []
    for seed, seed_feats, error in zip(seeds, feats, errors):
        val = test = float("nan")
        if error is None:
            try:
                val, test = _score(config, seed_feats, dataset)
            except (StateOverflowError, np.linalg.LinAlgError) as exc:
                error = str(exc)
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
        val = np.asarray([t.val_metric for t in ok])
        test = np.asarray([t.test_metric for t in ok])
        rows.append({
            "config_id": cid,
            "val_mean": float(val.mean()) if len(ok) else float("nan"),
            "val_std": float(val.std()) if len(ok) else float("nan"),
            "test_mean": float(test.mean()) if len(ok) else float("nan"),
            "test_std": float(test.std()) if len(ok) else float("nan"),
            "n_seeds": len(group),
            "n_failed": len(group) - len(ok),
        })
    return ResultsTable(rows=rows, trials=sorted(trials, key=lambda t: (t.config_id, t.seed)))


def random_search(grid: HyperGrid, model_class: ModelClass, dataset: Dataset,
                  task: str, task_class: str, budget: int, n_seeds: int,
                  master_seed: int, jobs: int = 1, total_units: int = 100,
                  washout: int = 200) -> tuple[ExperimentConfig, ResultsTable]:
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
    _require_scorable_split(dataset, washout)
    sampler = RngStream(master_seed).child("sampler")
    configs = [
        sample_config(grid, model_class, task, task_class, sampler,
                      total_units=total_units, washout=washout, config_id=i)
        for i in range(budget)
    ]
    work = [(configs[i], [trial_seed(master_seed, i, j) for j in range(n_seeds)])
            for i in range(budget)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(dataset,)) as pool:
            per_config = list(pool.map(_run_config_in_worker, work))
    else:
        per_config = [run_config(config, dataset, seeds) for config, seeds in work]
    table = aggregate([trial for results in per_config for trial in results])

    best_idx, best_score = None, None
    for row in table.rows:
        score = row["val_mean"]
        if not np.isfinite(score):
            continue
        if best_score is None or (score > best_score if higher else score < best_score):
            best_idx, best_score = row["config_id"], score
    if best_idx is None:
        raise RuntimeError("every sampled configuration failed")
    return configs[best_idx], table


# ---------------------------------------------------------------------------
# benchmark task registry (paper-scale lengths and splits)

TASK_SPECS = {
    "ctxor5": dict(family="ctxor", d=5, p=2.0, length=6000, split=(4000, 1000, 1000),
                   task_class="memory"),
    "ctxor10": dict(family="ctxor", d=10, p=2.0, length=6000, split=(4000, 1000, 1000),
                    task_class="memory"),
    "sinmem10": dict(family="sinmem", d=10, length=6000, split=(4000, 1000, 1000),
                     task_class="memory"),
    "sinmem20": dict(family="sinmem", d=20, length=6000, split=(4000, 1000, 1000),
                     task_class="memory"),
    "lz25": dict(family="lorenz96", horizon=25, length=1200, split=(400, 400, 400),
                 task_class="forecasting"),
    "lz50": dict(family="lorenz96", horizon=50, length=1200, split=(400, 400, 400),
                 task_class="forecasting"),
    "mg": dict(family="mackey_glass", horizon=1, length=10000, split=(5000, 2500, 2500),
               task_class="forecasting"),
    "mg84": dict(family="mackey_glass", horizon=84, length=10000, split=(5000, 2500, 2500),
                 task_class="forecasting"),
    "narma30": dict(family="narma", d=30, length=10000, split=(5000, 2500, 2500),
                    task_class="forecasting"),
    "narma60": dict(family="narma", d=60, length=10000, split=(5000, 2500, 2500),
                    task_class="forecasting"),
}


def make_task(name: str, seed: int, length: int | None = None) -> tuple[Dataset, str]:
    """Generate a registered benchmark with its split attached."""
    if name not in TASK_SPECS:
        raise ValueError(f"unknown task {name!r}; known: {sorted(TASK_SPECS)}")
    if length is not None and length < 1:
        raise ValueError(f"task length must be >= 1, got {length}")
    spec = TASK_SPECS[name]
    rng = RngStream(seed).child(("task", name))
    t_steps = spec["length"] if length is None else length
    family = spec["family"]
    if family == "ctxor":
        ds = _tasks.gen_ctxor(t_steps, spec["d"], spec["p"], rng)
    elif family == "sinmem":
        ds = _tasks.gen_sinmem(t_steps, spec["d"], rng)
    elif family == "lorenz96":
        ds = _tasks.gen_lorenz96(t_steps, horizon=spec["horizon"], rng=rng)
    elif family == "mackey_glass":
        ds = _tasks.gen_mackey_glass(t_steps, horizon=spec["horizon"])
    else:
        ds = _tasks.gen_narma(t_steps, spec["d"], rng)
    if length is None:
        scheme = spec["split"]
    else:
        scheme = (int(t_steps * 2 / 3), int(t_steps / 6), t_steps - int(t_steps * 2 / 3) - int(t_steps / 6))
    return _tasks.split(ds, scheme), spec["task_class"]


# ---------------------------------------------------------------------------
# report emission


def emit_reports(out_dir, table: ResultsTable | None = None, manifest: dict | None = None,
                 stability_reports: dict | None = None, spectra: dict | None = None,
                 eigen: dict | None = None) -> list[Path]:
    """Write search results and analysis dumps under out_dir.

    spectra maps name -> per-layer magnitude spectra, written as
    spectra/<name>.csv (layer, bin, magnitude) rows; eigen maps name ->
    per-layer eigenvalues, written as eigen/<name>.csv (re, im, layer) rows
    and eigen/<name>.json ({"layer_<l>": [[re, im], ...]}); layers count
    from 1. stability_reports maps name -> dict. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(path: Path, text: str) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        written.append(path)

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
    return written


def read_results_csv(path) -> list[dict]:
    """Parse a results.csv back into aggregate rows (inverse of emission)."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row: dict = {}
        for key, cell in zip(header, cells):
            row[key] = int(cell) if key in ("config_id", "n_seeds", "n_failed") else float(cell)
        rows.append(row)
    return rows
