"""Benchmark time series generators, splits, and classification loaders.

Synthetic regression tasks: delayed-product (ctXOR) and delayed-sine
memory tasks, the five-variable cyclic chaotic flow, the delay-differential
oscillator, and the NARMA recurrence. Classification datasets are ingested
from plain-text sequence files (one labelled sequence per row) or from
flattened-image CSVs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .numerics import RngStream


class GenerationError(RuntimeError):
    """Raised when a series generator diverges or cannot produce data."""


@dataclass(frozen=True)
class Split:
    """Disjoint index sets into a dataset's time steps or sequences."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def _rows(x, what: str, where: str = "") -> np.ndarray:
    """x as a float (T, N) array, a (T,) series being one channel (a view
    when x is already float), refusing a non-finite value by its step."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{what}{where} must be (T,) or (T, N), got shape {x.shape}")
    if not np.isfinite(x).all():
        t = np.argmin(np.isfinite(x).all(axis=1))
        raise ValueError(f"non-finite {what} at step {t}{where}")
    return x


def _labels(y) -> np.ndarray:
    """y as int class codes, one per sequence, refusing any that is not a
    whole number >= 0."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be (n,), one per sequence, got shape {y.shape}")
    bad = ~(np.isfinite(y) & (y >= 0) & (y == np.floor(y)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"label {y[i]} of sequence {i} is not a whole number >= 0")
    return y.astype(int, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Inputs and targets plus an optional train/val/test split.

    Regression datasets hold one float (T, N_x) input array with float
    (T, N_y) targets; classification datasets hold a list of float (T_i, N_x)
    sequences of one N_x with one int label each. A (T,) input or target is
    read as one channel. Construction refuses a non-finite input or target,
    sequences whose channel counts differ, and a label that is not a whole
    number >= 0.
    """

    inputs: np.ndarray | list[np.ndarray]
    targets: np.ndarray
    kind: str  # "regression" | "classification"
    split: Split | None = None

    def __post_init__(self):
        if self.kind == "regression":
            object.__setattr__(self, "inputs", _rows(self.inputs, "input"))
            object.__setattr__(self, "targets", _rows(self.targets, "target"))
            samples = "steps"
        elif self.kind == "classification":
            inputs = [_rows(seq, "input", f" of sequence {i}") for i, seq in enumerate(self.inputs)]
            odd = next((i for i, seq in enumerate(inputs) if seq.shape[1] != inputs[0].shape[1]),
                       None)
            if odd is not None:
                raise ValueError(f"sequence {odd} has {inputs[odd].shape[1]} input channels, "
                                 f"sequence 0 has {inputs[0].shape[1]}")
            object.__setattr__(self, "inputs", inputs)
            object.__setattr__(self, "targets", _labels(self.targets))
            samples = "sequences"
        else:
            raise ValueError(f"unknown dataset kind: {self.kind!r}")
        if len(self.targets) != self.n_samples:
            raise ValueError(f"{len(self.targets)} targets for {self.n_samples} {samples}")
        if self.split is None:
            return
        parts = {part: np.asarray(getattr(self.split, part)) for part in ("train", "val", "test")}
        for part, idx in parts.items():
            if idx.size and not np.issubdtype(idx.dtype, np.integer):
                raise ValueError(f"{part} split indices must be integers, got {idx.dtype}")
            if idx.size and (idx.min() < 0 or idx.max() >= self.n_samples):
                raise ValueError(f"{part} split indices span [{idx.min()}, {idx.max()}], "
                                 f"outside [0, {self.n_samples}) of the {samples}")
        # an empty part may be float; every index is a whole number by now
        held = np.concatenate(list(parts.values())).astype(np.intp, copy=False)
        shared = np.flatnonzero(np.bincount(held, minlength=self.n_samples) > 1)
        if shared.size:
            i = shared[0]
            holders = [part for part, idx in parts.items() if i in idx]
            if len(holders) == 1:
                raise ValueError(f"the {holders[0]} split part holds index {i} twice")
            raise ValueError(f"the {holders[0]} and {holders[1]} split parts share index {i}")

    @property
    def n_samples(self) -> int:
        return len(self.inputs)

    @property
    def input_dim(self) -> int:
        """N_x, the input channels of every step."""
        return (self.inputs if self.kind == "regression" else self.inputs[0]).shape[1]

    @property
    def n_classes(self) -> int:
        if self.kind != "classification":
            raise ValueError("n_classes only applies to classification data")
        return int(np.max(self.targets)) + 1


# ---------------------------------------------------------------------------
# memory tasks


def ctxor_targets(x: np.ndarray, d: int, p: float) -> np.ndarray:
    """Delayed product through a signed power: y(t) = r^p * sign(r) with
    r = x(t-d-1) * x(t-d); history before the series start counts as zero.

    The power is taken literally (p = 1 gives |r|), so p must be a whole
    number for the expression to stay real on negative products.
    """
    if p != int(p):
        raise ValueError("nonlinearity power must be a whole number")
    x = np.asarray(x, dtype=float)
    y = np.empty(len(x))
    for t in range(len(x)):
        a = x[t - d - 1] if t - d - 1 >= 0 else 0.0
        b = x[t - d] if t - d >= 0 else 0.0
        r = a * b
        y[t] = r ** int(p) * np.sign(r)
    return y


def gen_ctxor(t_steps: int, d: int, p: float, rng: RngStream) -> Dataset:
    """Memory/nonlinearity trade-off task on uniform (-0.8, 0.8) input."""
    if t_steps <= d + 1:
        raise ValueError("series length must exceed d + 1")
    if p < 1:
        raise ValueError("nonlinearity power must be >= 1")
    x = rng.uniform(-0.8, 0.8, t_steps)
    y = ctxor_targets(x, d, p)
    return Dataset(inputs=x, targets=y, kind="regression")


def sinmem_targets(x: np.ndarray, d: int) -> np.ndarray:
    """y(t) = sin(pi * x(t-d)), zero-padded history."""
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * np.concatenate([np.zeros(d), x])[:len(x)])


def gen_sinmem(t_steps: int, d: int, rng: RngStream) -> Dataset:
    """Delayed nonlinear memory task on uniform (-0.8, 0.8) input."""
    if t_steps <= d:
        raise ValueError("series length must exceed the delay")
    x = rng.uniform(-0.8, 0.8, t_steps)
    y = sinmem_targets(x, d)
    return Dataset(inputs=x, targets=y, kind="regression")


# ---------------------------------------------------------------------------
# forecasting tasks


def _cyclic_flow_deriv(x: np.ndarray) -> np.ndarray:
    # dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F with cyclic indices, F = 8
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + 8.0


def lorenz96_trajectory(x0: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """Integrate the cyclic flow with classic fourth-order Runge-Kutta.

    Returns (n_steps + 1, dims) including the initial state.
    """
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((n_steps + 1, len(x)))
    out[0] = x
    for i in range(n_steps):
        k1 = _cyclic_flow_deriv(x)
        k2 = _cyclic_flow_deriv(x + 0.5 * dt * k1)
        k3 = _cyclic_flow_deriv(x + 0.5 * dt * k2)
        k4 = _cyclic_flow_deriv(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.max(np.abs(x)) > 1e6:
            raise GenerationError(f"chaotic flow diverged at step {i}")
        out[i + 1] = x
    return out


def gen_lorenz96(t_steps: int, horizon: int, rng: RngStream) -> Dataset:
    """Chaotic flow forecasting: input x(t), target x(t + horizon).

    Five variables integrated with step 0.05. Starts from the constant
    equilibrium plus a small random perturbation and discards a 1000-step
    transient so the trajectory settles onto the attractor.
    """
    transient = 1000
    x0 = np.full(5, 8.0) + rng.uniform(-0.5, 0.5, 5)
    total = transient + t_steps + horizon
    traj = lorenz96_trajectory(x0, total, 0.05)[transient + 1:]
    inputs = traj[:t_steps]
    targets = traj[horizon:horizon + t_steps]
    return Dataset(inputs=inputs, targets=targets, kind="regression")


# The oscillator's Euler step (1/_MG_DT steps per time unit, so the delay of
# 17 is a whole number of steps), the time units dropped before the first
# sample, and the constant initial history.
_MG_DT, _MG_TRANSIENT, _MG_INITIAL = 0.1, 1000, 1.2


def mackey_glass_series(n_units: int) -> np.ndarray:
    """Delay-differential oscillator, delay 17, sampled at unit time spacing.

    Euler integration with step _MG_DT and a constant initial history; every
    round(1/_MG_DT)-th step is kept, so samples lie one time unit apart.
    """
    dt, transient, initial = _MG_DT, _MG_TRANSIENT, _MG_INITIAL
    steps_per_unit = int(round(1.0 / dt))
    delay_steps = 17 * steps_per_unit
    n_steps = (transient + n_units) * steps_per_unit
    f = np.empty(n_steps + 1)
    f[0] = initial
    for i in range(n_steps):
        delayed = f[i - delay_steps] if i - delay_steps >= 0 else initial
        df = 0.2 * delayed / (1.0 + delayed ** 10) - 0.1 * f[i]
        f[i + 1] = f[i] + dt * df
        if not np.isfinite(f[i + 1]):
            raise GenerationError(f"delay oscillator diverged at step {i}")
    sampled = f[::steps_per_unit]
    return sampled[transient:transient + n_units]


def gen_mackey_glass(t_steps: int, horizon: int) -> Dataset:
    """Forecast the oscillator horizon units ahead: input f(t), target f(t + h)."""
    series = mackey_glass_series(t_steps + horizon)
    return Dataset(inputs=series[:t_steps], targets=series[horizon:horizon + t_steps],
                   kind="regression")


def narma_targets(x: np.ndarray, d: int) -> np.ndarray:
    """Nonlinear autoregressive moving average recurrence of order d.

    y(t) = 0.3 y(t-1) + 0.01 y(t-1) sum_{i=1..d} y(t-i)
           + 1.5 x(t-d) x(t-1) + 0.1, with zero-padded history.
    """
    # Python floats round exactly as numpy scalars and index far faster
    x = np.asarray(x, dtype=float).tolist()
    y: list[float] = []
    for t in range(len(x)):
        y1 = y[t - 1] if t >= 1 else 0.0
        acc = 0.0
        for past in reversed(y[max(t - d, 0):]):  # y(t-1) first
            acc += past
        xd = x[t - d] if t - d >= 0 else 0.0
        x1 = x[t - 1] if t >= 1 else 0.0
        yt = 0.3 * y1 + 0.01 * y1 * acc + 1.5 * xd * x1 + 0.1
        if abs(yt) > 1e3:
            raise GenerationError(f"recurrence diverged at step {t}")
        y.append(yt)
    return np.array(y, dtype=float)


# Input draws attempted before a diverging NARMA recurrence is an error.
_NARMA_ATTEMPTS = 10


def gen_narma(t_steps: int, d: int, rng: RngStream) -> Dataset:
    """NARMA task on uniform [0, 0.5] input; redraws the input on divergence."""
    if t_steps <= d:
        raise ValueError("series length must exceed the order")
    for _ in range(_NARMA_ATTEMPTS):
        x = rng.uniform(0.0, 0.5, t_steps)
        try:
            y = narma_targets(x, d)
        except GenerationError:
            continue
        return Dataset(inputs=x, targets=y, kind="regression")
    raise GenerationError(f"recurrence diverged in {_NARMA_ATTEMPTS} consecutive draws")


# ---------------------------------------------------------------------------
# splits


def split(dataset: Dataset, scheme, seed: int = 0) -> Dataset:
    """Attach a train/val/test split.

    A (train, val, test) tuple of lengths takes contiguous ranges from the
    start (time series). A float f in (0, 1) performs a stratified f/(1-f)
    train/val split of the current train sequences, preserving class
    proportions; the test indices are left untouched.
    """
    if isinstance(scheme, tuple) and len(scheme) == 3:
        tr, va, te = (int(v) for v in scheme)
        if min(tr, va, te) < 0 or tr + va + te > dataset.n_samples:
            raise ValueError(f"split {scheme} exceeds {dataset.n_samples} samples")
        sp = Split(train=np.arange(0, tr),
                   val=np.arange(tr, tr + va),
                   test=np.arange(tr + va, tr + va + te))
        return replace(dataset, split=sp)
    if isinstance(scheme, float):
        if not 0.0 < scheme < 1.0:
            raise ValueError("stratified train fraction must be in (0, 1)")
        if dataset.kind != "classification":
            raise ValueError("stratified splits only apply to classification data")
        base = dataset.split.train if dataset.split is not None else np.arange(dataset.n_samples)
        test = dataset.split.test if dataset.split is not None else np.arange(0)
        rng = RngStream(seed)
        train_idx, val_idx = [], []
        labels = dataset.targets
        for cls in np.unique(labels[base]):
            members = base[labels[base] == cls]
            order = rng.child(("stratify", int(cls))).permutation(len(members))
            members = members[order]
            n_train = int(round(scheme * len(members)))
            train_idx.extend(members[:n_train])
            val_idx.extend(members[n_train:])
        sp = Split(train=np.asarray(sorted(train_idx), dtype=int),
                   val=np.asarray(sorted(val_idx), dtype=int),
                   test=test)
        return replace(dataset, split=sp)
    raise ValueError(f"unrecognized split scheme: {scheme!r}")


def merge_train_test(train: Dataset, test: Dataset) -> Dataset:
    """Concatenate two labelled sequence sets, marking the second as test."""
    if train.kind != "classification" or test.kind != "classification":
        raise ValueError("merge applies to classification datasets")
    inputs = list(train.inputs) + list(test.inputs)
    targets = np.concatenate([train.targets, test.targets])
    n_train = train.n_samples
    sp = Split(train=np.arange(n_train),
               val=np.arange(0),
               test=np.arange(n_train, n_train + test.n_samples))
    return Dataset(inputs=inputs, targets=targets, kind="classification", split=sp)


# ---------------------------------------------------------------------------
# classification file ingestion


def load_sequence_classification(path, fmt: str = "ucr-ts",
                                 permutation_seed: int | None = None) -> Dataset:
    """Load labelled sequences from a plain-text file.

    ucr-ts rows are label followed by the sequence values (comma or
    whitespace separated, auto-detected). flattened-image-csv rows are a
    label followed by raw pixel intensities in [0, 255], scaled to [0, 1]
    on load. An optional permutation seed applies one fixed, seeded
    reordering of the positions of every sequence (all sequences must then
    share a length).
    """
    if fmt not in ("ucr-ts", "flattened-image-csv"):
        raise ValueError(f"unknown format: {fmt!r}")
    path = Path(path)
    sequences: list[np.ndarray] = []
    raw_labels: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",") if "," in line else line.split()
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: row needs a label and at least one value")
            try:
                values = np.asarray([float(v) for v in fields], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from exc
            raw_labels.append(values[0])
            seq = values[1:]
            if fmt == "flattened-image-csv":
                seq = seq / 255.0
            sequences.append(seq)

    if not sequences:
        raise ValueError(f"{path}: no sequences found")
    classes = sorted(set(raw_labels))
    class_index = {c: i for i, c in enumerate(classes)}
    labels = np.asarray([class_index[c] for c in raw_labels], dtype=int)

    if permutation_seed is not None:
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise ValueError("pixel permutation needs equal-length sequences")
        perm = RngStream(permutation_seed).permutation(lengths.pop())
        sequences = [s[perm] for s in sequences]

    return Dataset(inputs=sequences, targets=labels, kind="classification")


def write_sequence_classification(path, sequences, labels, fmt: str = "ucr-ts") -> None:
    """Write labelled sequences in the plain-text row format (a test and
    benchmark fixture; inverse of the loader for ucr-ts)."""
    path = Path(path)
    with open(path, "w") as fh:
        for seq, label in zip(sequences, labels):
            seq = np.asarray(seq, dtype=float).ravel()
            if fmt == "flattened-image-csv":
                seq = seq * 255.0
            fields = [repr(float(label))] + [repr(float(v)) for v in seq]
            fh.write(",".join(fields) + "\n")


# ---------------------------------------------------------------------------
# on-disk cache

_CACHE_FORMAT = "deepreservoir-npz-1"


def save_dataset(dataset: Dataset, out_dir, meta: dict | None = None) -> None:
    """Cache a dataset as one uncompressed arrays.npz plus a JSON manifest.

    Regression inputs and targets are stored as they are. Classification
    sequences are stored as one (sum T_i, N_x) array, with their lengths and
    labels.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if dataset.kind == "regression":
        arrays = {"inputs": dataset.inputs, "targets": dataset.targets}
    else:
        arrays = {"sequences": np.concatenate(dataset.inputs),
                  "lengths": np.array([len(seq) for seq in dataset.inputs], dtype=int),
                  "targets": dataset.targets}
    if dataset.split is not None:
        for part in ("train", "val", "test"):
            arrays[f"split_{part}"] = np.asarray(getattr(dataset.split, part), dtype=int)
    np.savez(out / "arrays.npz", **arrays)
    manifest = {"format": _CACHE_FORMAT, "kind": dataset.kind, "meta": meta or {}}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_dataset(in_dir) -> Dataset:
    """Load a dataset cached by save_dataset; classification sequences come
    back as views into one array."""
    src = Path(in_dir)
    with open(src / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != _CACHE_FORMAT:
        raise ValueError(f"{src}: not a {_CACHE_FORMAT} dataset cache (an older CSV "
                         "layout?); regenerate it with `deepreservoir generate-data`")
    with np.load(src / "arrays.npz", allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    split_obj = None
    if "split_train" in arrays:
        split_obj = Split(train=arrays["split_train"], val=arrays["split_val"],
                          test=arrays["split_test"])
    if manifest["kind"] == "regression":
        inputs = arrays["inputs"]
    else:
        inputs = np.split(arrays["sequences"], np.cumsum(arrays["lengths"])[:-1])
    return Dataset(inputs=inputs, targets=arrays["targets"], kind=manifest["kind"],
                   split=split_obj)
