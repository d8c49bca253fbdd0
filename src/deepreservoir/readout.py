"""Linear readout training and task metrics."""

from __future__ import annotations

import numpy as np

# Singular values below RIDGE_CUTOFF * sigma_max are treated as zero when
# lambda = 0, giving the minimum-norm (pseudo-inverse) solution on
# rank-deficient state matrices.
RIDGE_CUTOFF = 1e-12


def fit(features: np.ndarray, targets: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Fit the readout y = W_o @ h by ridge regression (no intercept): W_o
    minimizes ||features @ W_o.T - targets||^2 + lam ||W_o||^2 over
    (samples x features) against (samples x outputs), and is returned as an
    (outputs x features) array.

    Solved through the SVD of the features with per-singular-value filter
    sigma / (sigma^2 + lam); lam = 0 falls back to the pseudo-inverse with a
    relative cutoff. A tall block is first reduced to the R of its QR, and Q
    reaches the targets as Householder reflectors, never formed.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 2:
        raise ValueError("fit expects 2-d feature and target matrices")
    if features.shape[0] != targets.shape[0]:
        raise ValueError(f"sample counts differ: features {features.shape[0]}, "
                         f"targets {targets.shape[0]}")
    if features.shape[0] < 1:
        raise ValueError("fit needs at least one sample")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"ridge penalty must be finite and >= 0, got {lam}")
    for name, block in (("features", features), ("targets", targets)):
        if not np.isfinite(block).all():
            row = np.argmin(np.isfinite(block).all(axis=1))
            raise ValueError(f"{name} hold a non-finite value at row {row}")

    rows, cols = features.shape
    # LAPACK's dgesdd takes a block of at least MNTHR = INT(cols*11/6) rows
    # through a QR, then the SVD of R. That QR taken here gives the same s
    # and vt bit for bit, without forming Q or U: h.T holds R on and above
    # its diagonal and the reflectors H_j = I - tau_j v_j v_j.T below it, and
    # H_0 ... H_{cols-1} = I - V T V.T with T = (I + diag(tau) striu(V.T V))^-1
    # diag(tau) (the UT transform, which a tau of 0 leaves well defined).
    if rows >= int(cols * 11 / 6):
        h, tau = np.linalg.qr(features, mode="raw")
        top, tail = h.T[:cols], h.T[cols:]
        r, v_top = np.triu(top), np.tril(top, -1) + np.eye(cols)  # V = [v_top; tail]
        unit = np.eye(cols) + tau[:, None] * np.triu(v_top.T @ v_top + tail.T @ tail, 1)
        vty = v_top.T @ targets[:cols] + tail.T @ targets[cols:]
        qty = targets[:cols] - v_top @ (tau[:, None] * np.linalg.solve(unit.T, vty))
        u, s, vt = np.linalg.svd(r)
        uty = u.T @ qty  # qty is the first cols rows of Q.T targets
    else:
        u, s, vt = np.linalg.svd(features, full_matrices=False)
        uty = u.T @ targets
    if lam == 0.0:
        keep = s > RIDGE_CUTOFF * (s[0] if s.size else 0.0)
        filt = np.zeros_like(s)
        filt[keep] = 1.0 / s[keep]
    else:
        filt = s / (s * s + lam)
    # W_o.T = V diag(filt) U.T targets
    return (vt.T @ (filt[:, None] * uty)).T


def predict(w_o: np.ndarray, features: np.ndarray) -> np.ndarray:
    if features.shape[1] != w_o.shape[1]:
        raise ValueError(
            f"feature width {features.shape[1]} does not match readout ({w_o.shape[1]})"
        )
    return features @ w_o.T


def nrmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error of (samples x outputs) predictions, normalized
    by the target's root mean square, the convention the published per-task
    numbers follow. Several outputs average the per-output score.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.ndim != 2:
        raise ValueError(f"nrmse expects (samples x outputs) arrays, got pred shape {pred.shape}")
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.shape[0] < 2:
        raise ValueError("need at least two samples")

    scores = []
    for d in range(target.shape[1]):
        t = target[:, d]
        rms = float(np.sqrt(np.mean(t * t)))
        if rms == 0.0:
            raise ValueError("target is all zero, normalization undefined")
        scores.append(float(np.sqrt(np.mean((pred[:, d] - t) ** 2))) / rms)
    return float(np.mean(scores))


def accuracy(pred_logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label (ties to the lowest index)."""
    pred_logits = np.asarray(pred_logits, dtype=float)
    labels = np.asarray(labels)
    if pred_logits.ndim != 2:
        raise ValueError("logits must be (samples x classes)")
    if pred_logits.shape[0] == 0:
        raise ValueError("no samples to score")
    if pred_logits.shape[0] != len(labels):
        raise ValueError("row count does not match label count")
    return float(np.mean(np.argmax(pred_logits, axis=1) == labels))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """0/1 indicator targets for ridge-based classification."""
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels out of range")
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out
