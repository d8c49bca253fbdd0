"""Correctness checks computed apart from the program.

Every check takes program outputs plus whatever it needs to recompute them
with plain numpy, and returns a Check. None of them calls the function
whose output it judges: the reference state loop uses each layer's dense
matrices, the readout is solved with numpy's own pseudo-inverse or normal
equations, and the analysis figures are rebuilt from the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for a trial score recomputed by the reference path.
# The reference state loop does the same float operations as the program's
# loop, so the states agree bit for bit; the residual difference comes
# from solving the readout by another factorization.
SCORE_RTOL = 1e-6
# Radii and norms recomputed from matrices assembled here.
ANALYSIS_RTOL = 1e-9
# Best validation accuracy must beat chance by this much.
CHANCE_MARGIN = 0.2
# Solver cut-off for zero penalty, the same relative threshold as the
# program's documented pseudo-inverse behaviour.
PINV_RCOND = 1e-12


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> Check:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    ok = bool(np.all(err <= atol + rtol * np.abs(want)))
    return Check(name, ok, f"max abs deviation {float(err.max(initial=0.0)):.3g}")


# ---------------------------------------------------------------------------
# dataset definitions


def check_sinmem_targets(x, y, d: int) -> Check:
    """y(t) = sin(pi x(t - d)) with zero history, evaluated vectorised."""
    x = np.ravel(np.asarray(x, dtype=float))
    delayed = np.concatenate([np.zeros(d), x])[: len(x)]
    return _close("sinmem targets", np.ravel(y), np.sin(np.pi * delayed), rtol=0.0, atol=1e-12)


def check_narma_targets(x, y, d: int) -> Check:
    """Residual of the NARMA-d recurrence, evaluated for all steps at once."""
    x = np.ravel(np.asarray(x, dtype=float))
    y = np.ravel(np.asarray(y, dtype=float))
    t_steps = len(y)
    yp = np.concatenate([np.zeros(d), y])
    xp = np.concatenate([np.zeros(d), x])
    y1 = yp[d - 1: d - 1 + t_steps]
    csum = np.concatenate([[0.0], np.cumsum(yp)])
    window = csum[d: d + t_steps] - csum[:t_steps]  # sum_{i=1..d} y(t - i)
    rhs = 0.3 * y1 + 0.01 * y1 * window + 1.5 * xp[:t_steps] * xp[d - 1: d - 1 + t_steps] + 0.1
    return _close(f"narma{d} targets", y, rhs, rtol=0.0, atol=1e-9)


def check_dataset_equal(name: str, got, want) -> Check:
    """Inputs, targets and split identical (a cache round trip is exact)."""
    pairs = [(got.targets, want.targets)]
    if isinstance(want.inputs, list):
        if len(got.inputs) != len(want.inputs):
            return Check(name, False, "sequence count differs")
        pairs += list(zip(got.inputs, want.inputs))
    else:
        pairs.append((got.inputs, want.inputs))
    if (got.split is None) != (want.split is None):
        return Check(name, False, "split presence differs")
    if want.split is not None:
        pairs += [(got.split.train, want.split.train), (got.split.val, want.split.val),
                  (got.split.test, want.split.test)]
    bad = sum(not np.array_equal(np.asarray(a, dtype=float).ravel(),
                                 np.asarray(b, dtype=float).ravel()) for a, b in pairs)
    return Check(name, bad == 0, f"{bad} of {len(pairs)} arrays differ")


def check_sequences_roundtrip(name: str, written: list, labels, loaded) -> Check:
    """Loaded sequences equal the written ones after one shared reordering.

    The reordering is recovered from the data (values are continuous, so
    the first sequence pins it) and then required of every sequence.
    """
    if len(loaded.inputs) != len(written):
        return Check(name, False, f"{len(loaded.inputs)} sequences loaded, {len(written)} written")
    if not np.array_equal(np.asarray(loaded.targets), np.asarray(labels)):
        return Check(name, False, "labels differ")
    first_w = np.ravel(written[0])
    first_l = np.ravel(loaded.inputs[0])
    perm = np.argsort(first_w)[np.argsort(np.argsort(first_l))]
    if len(np.unique(perm)) != len(first_w):
        return Check(name, False, "no shared permutation")
    worst = max(float(np.max(np.abs(np.ravel(l) - np.ravel(w)[perm])))
                for l, w in zip(loaded.inputs, written))
    identity = bool(np.array_equal(perm, np.arange(len(perm))))
    return Check(name, worst <= 1e-12 and not identity,
                 f"max deviation {worst:.3g} under one shared permutation"
                 + (" (identity)" if identity else ""))


def check_stratified_split(ds, n_train: int, n_test: int, fraction: float) -> Check:
    """Train/val partition the first n_train sequences with class shares kept;
    test holds the rest unchanged."""
    sp = ds.split
    labels = np.asarray(ds.targets)
    problems = []
    if not np.array_equal(np.sort(np.concatenate([sp.train, sp.val])), np.arange(n_train)):
        problems.append("train+val is not the training file")
    if not np.array_equal(sp.test, np.arange(n_train, n_train + n_test)):
        problems.append("test is not the test file")
    for cls in np.unique(labels[:n_train]):
        want = int(round(fraction * np.sum(labels[:n_train] == cls)))
        if int(np.sum(labels[sp.train] == cls)) != want:
            problems.append(f"class {cls} train share")
    return Check("stratified split", not problems, "; ".join(problems) or "ok")


# ---------------------------------------------------------------------------
# trial reproduction


def reference_states(layers, inputs) -> list[np.ndarray]:
    """State loop over each layer's dense W_x, W_h, b and O."""
    drive = np.asarray(inputs, dtype=float)
    if drive.ndim == 1:
        drive = drive[:, None]
    out = []
    for layer in layers:
        pre = drive @ layer.w_x.T + layer.b
        h = np.zeros(layer.w_h.shape[0])
        states = np.empty((len(drive), len(h)))
        for t in range(len(drive)):
            h = layer.alpha * (layer.o @ h) + layer.beta * np.tanh(layer.w_h @ h + pre[t])
            states[t] = h
        out.append(states)
        drive = states
    return out


def reference_readout(x_train, y_train, lam: float) -> np.ndarray:
    """(features x outputs) readout: pseudo-inverse at lam = 0, else the
    regularized normal equations."""
    if lam == 0.0:
        return np.linalg.pinv(x_train, rcond=PINV_RCOND) @ y_train
    gram = x_train.T @ x_train + lam * np.eye(x_train.shape[1])
    return np.linalg.solve(gram, x_train.T @ y_train)


def reference_nrmse(pred, target) -> float:
    """Mean over outputs of RMSE over the target's root mean square."""
    rmse = np.sqrt(np.mean((pred - target) ** 2, axis=0))
    return float(np.mean(rmse / np.sqrt(np.mean(target ** 2, axis=0))))


def reference_regression_scores(layers, concat: bool, lam: float, washout: int,
                                dataset) -> tuple[float, float]:
    states = reference_states(layers, dataset.inputs)
    kept = states if concat else states[-1:]
    feats = np.hstack(kept)
    targets = np.asarray(dataset.targets, dtype=float).reshape(len(feats), -1)

    def rows(idx):
        idx = idx[idx >= washout]
        return feats[idx], targets[idx]

    w = reference_readout(*rows(dataset.split.train), lam)
    val_x, val_y = rows(dataset.split.val)
    test_x, test_y = rows(dataset.split.test)
    return reference_nrmse(val_x @ w, val_y), reference_nrmse(test_x @ w, test_y)


def reference_classification_scores(layers, concat: bool, lam: float,
                                    dataset) -> tuple[float, float]:
    feats = []
    for seq in dataset.inputs:
        states = reference_states(layers, seq)
        kept = states if concat else states[-1:]
        feats.append(np.concatenate([s[-1] for s in kept]))
    feats = np.asarray(feats)
    labels = np.asarray(dataset.targets, dtype=int)
    onehot = (labels[:, None] == np.arange(labels.max() + 1)[None, :]).astype(float)
    sp = dataset.split
    w = reference_readout(feats[sp.train], onehot[sp.train], lam)

    def acc(idx):
        return float(np.mean(np.argmax(feats[idx] @ w, axis=1) == labels[idx]))

    return acc(sp.val), acc(sp.test)


def check_trial_scores(name: str, got: tuple[float, float], want: tuple[float, float],
                       rtol: float = SCORE_RTOL) -> Check:
    return _close(name, got, want, rtol=rtol)


# ---------------------------------------------------------------------------
# search-level properties


def check_separation(deep_best_test: float, leaky_best_test: float) -> Check:
    return Check("DeepResESN_C beats LeakyESN on sinmem10",
                 deep_best_test < leaky_best_test,
                 f"best test NRMSE {deep_best_test:.4g} vs {leaky_best_test:.4g}")


def check_above_chance(best_val: float, n_classes: int, margin: float = CHANCE_MARGIN) -> Check:
    chance = 1.0 / n_classes
    return Check("classify above chance", best_val >= chance + margin,
                 f"best val accuracy {best_val:.3f}, chance {chance:.3f}, margin {margin}")


def check_equal(name: str, got, want) -> Check:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same = got.shape == want.shape and bool(np.array_equal(got, want, equal_nan=True))
    return Check(name, same, "identical" if same else f"{got} != {want}")


# ---------------------------------------------------------------------------
# analysis


def structured_residual(kind: str, n: int, o: np.ndarray) -> tuple[np.ndarray, str]:
    """The residual matrix a layer of this kind must use, built here.

    Identity and cyclic are fixed matrices; a random orthogonal one cannot
    be rebuilt without the program's generator, so the layer's own matrix
    is used once it is shown to be orthogonal.
    """
    if kind == "identity":
        return np.eye(n), ""
    if kind == "cyclic":
        return np.roll(np.eye(n), 1, axis=0), ""
    err = float(np.max(np.abs(o.T @ o - np.eye(n))))
    return o, f"orthogonality error {err:.2g}" if err > 1e-10 else ""


def check_stability(kind: str, layers, report: dict) -> Check:
    """Radii of alpha O + beta W_h and the layer contraction coefficients."""
    radii, coeffs, notes = [], [], []
    prev = 0.0
    for l, layer in enumerate(layers):
        o, note = structured_residual(kind, layer.w_h.shape[0], layer.o)
        if note:
            notes.append(note)
        step = layer.alpha * o + layer.beta * layer.w_h
        radii.append(float(np.max(np.abs(np.linalg.eigvals(step)))))
        c = layer.alpha + layer.beta * np.linalg.norm(layer.w_h, 2)
        if l > 0:
            c += layer.beta * prev * np.linalg.norm(layer.w_x, 2)
        coeffs.append(float(c))
        prev = c
    got = list(report["per_layer_rho"]) + list(report["per_layer_c"]) + [report["global_rho"],
                                                                         report["global_c"]]
    want = radii + coeffs + [max(radii), max(coeffs)]
    result = _close(f"stability {kind}", got, want, rtol=ANALYSIS_RTOL)
    if notes:
        return Check(result.name, False, "; ".join(notes))
    return result


def check_eigen(kind: str, layers, h, x, eigs: dict) -> Check:
    """Per-layer Jacobian blocks at the probe point, assembled here."""
    drive = np.asarray(x, dtype=float)
    got, want = [], []
    for l, (layer, h_l) in enumerate(zip(layers, h), start=1):
        o, _ = structured_residual(kind, layer.w_h.shape[0], layer.o)
        z = layer.w_h @ h_l + layer.w_x @ drive + layer.b
        jac = layer.alpha * o + layer.beta * ((1.0 - np.tanh(z) ** 2)[:, None] * layer.w_h)
        mine = np.linalg.eigvals(jac)
        theirs = np.asarray(eigs[f"layer_{l}"], dtype=float)
        got += [np.sort(np.hypot(theirs[:, 0], theirs[:, 1])), [theirs[:, 0].sum()]]
        want += [np.sort(np.abs(mine)), [float(np.trace(jac))]]
        drive = layer.alpha * (o @ h_l) + layer.beta * np.tanh(z)
    return _close(f"eigen {kind}", np.concatenate(got), np.concatenate(want), rtol=0.0, atol=1e-8)


def high_band_fractions(rows: np.ndarray, sample_count: int, phi: float = 0.74) -> list[float]:
    """Share of spectral energy at or above angular frequency phi, per layer.

    rows are (layer, bin, magnitude) as dumped by the spectra command.
    """
    split_bin = int(round(phi * sample_count / (2.0 * np.pi)))
    out = []
    for layer in np.unique(rows[:, 0]):
        mags = rows[rows[:, 0] == layer][:, 2]
        energy = mags * mags
        out.append(float(energy[split_bin:].sum() / energy.sum()))
    return out


def check_identity_lowpass(fractions: list[float]) -> Check:
    falling = all(a > b for a, b in zip(fractions, fractions[1:]))
    return Check("identity high-band energy falls with depth", falling,
                 ", ".join(f"{f:.3g}" for f in fractions))
