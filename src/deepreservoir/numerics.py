"""Dense linear algebra, random streams, and signal transforms.

Everything here is a pure function of its inputs (except RngStream, which
is a single-owner mutable draw sequence). All arrays are float64.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_to_ints(label) -> tuple[int, ...]:
    """Map an arbitrary hashable label to a stable tuple of uint32 words."""
    if isinstance(label, (int, np.integer)):
        return (int(label) & 0xFFFFFFFF, (int(label) >> 32) & 0xFFFFFFFF)
    if isinstance(label, tuple):
        out: tuple[int, ...] = ()
        for part in label:
            out += _label_to_ints(part)
        return out
    # strings and anything else go through a stable cryptographic hash
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class RngStream:
    """Deterministic, splittable random stream.

    Backed by a counter-based Philox generator keyed on (seed, path), so a
    stream and all of its children are reproducible from the seed alone and
    children derived under different labels are statistically independent.
    The stream itself is stateful and single-owner: do not share one
    instance across concurrent consumers, derive children instead.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = _path
        seq = np.random.SeedSequence((self.seed,) + _path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, label) -> "RngStream":
        """Derive an independent stream keyed by (seed, path, label)."""
        return RngStream(self.seed, self._path + _label_to_ints(label))

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, values):
        """Uniform draw from a non-empty sequence of candidates."""
        idx = int(self._gen.integers(0, len(values)))
        return values[idx]


def uniform_matrix(rows: int, cols: int, lo: float, hi: float, rng: RngStream) -> np.ndarray:
    """Matrix with i.i.d. entries uniform on [lo, hi)."""
    if lo >= hi:
        raise ValueError(f"invalid uniform range: lo={lo} must be < hi={hi}")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return rng.uniform(lo, hi, (rows, cols))


def qr_orthogonal(n: int, rng: RngStream) -> np.ndarray:
    """Random n x n orthogonal matrix from the QR factor of a uniform draw.

    Columns are sign-fixed against diag(R) so the result does not depend on
    LAPACK's internal sign conventions.
    """
    if n < 1:
        raise ValueError("orthogonal matrix dimension must be >= 1")
    m = rng.uniform(-1.0, 1.0, (n, n))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square matrix."""
    return np.linalg.eigvals(_require_square(m))


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.max(np.abs(eigenvalues(m))))


def operator_norm_2(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[0])


# Singular values below RIDGE_CUTOFF * sigma_max are treated as zero when
# lambda = 0, giving the minimum-norm (pseudo-inverse) solution on
# rank-deficient state matrices.
RIDGE_CUTOFF = 1e-12


def ridge_solve(h: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge-regression weights W minimizing ||h @ W.T - y||^2 + lam ||W||^2.

    Solved through the SVD of h with per-singular-value filter
    sigma / (sigma^2 + lam); lam = 0 falls back to the pseudo-inverse with a
    relative cutoff. h is (samples x features), y is (samples x outputs);
    the result is (outputs x features).
    """
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    if h.ndim != 2 or y.ndim != 2:
        raise ValueError("ridge_solve expects 2-d feature and target matrices")
    if h.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: features {h.shape[0]}, targets {y.shape[0]}")
    if h.shape[0] < 1:
        raise ValueError("ridge_solve needs at least one sample")
    if lam < 0:
        raise ValueError("ridge penalty must be >= 0")

    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if lam == 0.0:
        keep = s > RIDGE_CUTOFF * (s[0] if s.size else 0.0)
        filt = np.zeros_like(s)
        filt[keep] = 1.0 / s[keep]
    else:
        filt = s / (s * s + lam)
    # W.T = V diag(filt) U.T y
    wt = vt.T @ (filt[:, None] * (u.T @ y))
    return wt.T


def fft_magnitudes(signal: np.ndarray) -> np.ndarray:
    """One-sided magnitude spectrum |X_k|, k = 0 .. floor(T/2), along axis 0
    of a (T,) signal or of each column of a (T, channels) block."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) signal or a (T, channels) block, got {signal.shape}")
    if len(signal) < 2:
        raise ValueError("signal must have at least two samples")
    return np.abs(np.fft.rfft(signal, axis=0))
