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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def fft_magnitudes(signal: np.ndarray) -> np.ndarray:
    """One-sided magnitude spectrum |X_k|, k = 0 .. floor(T/2), along axis 0
    of a (T,) signal or of each column of a (T, channels) block."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) signal or a (T, channels) block, got {signal.shape}")
    if len(signal) < 2:
        raise ValueError("signal must have at least two samples")
    return np.abs(np.fft.rfft(signal, axis=0))
