import numpy as np
import pytest

from deepreservoir.numerics import (
    RngStream,
    eigenvalues,
    fft_magnitudes,
    qr_orthogonal,
    spectral_radius,
)
from deepreservoir.readout import fit
from deepreservoir.reservoir import DeepReservoir, Layer
from deepreservoir.stability import contraction_coefficients

# ---------------------------------------------------------------------------
# independent oracles


def lu_determinant(m):
    """Determinant via hand-rolled LU with partial pivoting (supports complex)."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        if a[col, col] == 0:
            return 0.0j
        det *= a[col, col]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= np.outer(factors, a[col, col:])
    return det


def gelfand_radius(m, squarings=40):
    """Spectral radius via the limit of ||M^(2^j)||_F^(1/2^j).

    Repeated squaring with per-step normalization keeps the magnitudes in
    range; independent of any eigensolver.
    """
    a = np.array(m, dtype=float)
    log_norm = 0.0
    weight = 1.0
    for _ in range(squarings):
        norm = np.linalg.norm(a)
        if norm == 0.0:
            return 0.0
        log_norm += weight * np.log(norm)
        a = (a / norm) @ (a / norm)
        weight /= 2.0
    log_norm += weight * np.log(np.linalg.norm(a))
    return float(np.exp(log_norm))


def naive_dft_magnitudes(x):
    """Direct one-sided DFT summation, O(T^2)."""
    x = np.asarray(x, dtype=float)
    t = len(x)
    bins = t // 2 + 1
    n = np.arange(t)
    w = np.exp(-2j * np.pi * np.outer(np.arange(bins), n) / t)
    return np.abs(w @ x)


# ---------------------------------------------------------------------------
# RngStream


def test_rng_same_seed_same_sequence():
    a = RngStream(123).uniform(0, 1, 100)
    b = RngStream(123).uniform(0, 1, 100)
    assert np.array_equal(a, b)


def test_rng_refuses_a_negative_seed():
    # numpy's seed sequence used to refuse it as "expected non-negative integer"
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        RngStream(-1)
    assert RngStream(0).seed == 0


def test_rng_child_reproducible_and_distinct():
    root = RngStream(7)
    c1 = root.child("weights").uniform(0, 1, 50)
    c2 = RngStream(7).child("weights").uniform(0, 1, 50)
    assert np.array_equal(c1, c2)
    other = RngStream(7).child("bias").uniform(0, 1, 50)
    assert not np.array_equal(c1, other)


def test_rng_child_streams_uncorrelated():
    n = 20000
    a = RngStream(3).child(("layer", 0)).uniform(-1, 1, n)
    b = RngStream(3).child(("layer", 1)).uniform(-1, 1, n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_rng_integer_and_string_labels_stable():
    assert np.array_equal(RngStream(1).child(5).uniform(0, 1, 8),
                          RngStream(1).child(5).uniform(0, 1, 8))
    assert np.array_equal(RngStream(1).child("trial-5").uniform(0, 1, 8),
                          RngStream(1).child("trial-5").uniform(0, 1, 8))


# ---------------------------------------------------------------------------
# qr_orthogonal


def test_qr_orthogonal_1x1_is_sign():
    q = qr_orthogonal(1, RngStream(4))
    assert q.shape == (1, 1)
    assert abs(abs(q[0, 0]) - 1.0) < 1e-12


def test_qr_orthogonal_orthonormal_columns():
    for n in (2, 3, 17, 50, 128, 500):
        for seed in (0, 1):
            q = qr_orthogonal(n, RngStream(seed))
            assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-10, (n, seed)


def test_qr_orthogonal_unit_determinant_vs_lu_oracle():
    q = qr_orthogonal(10, RngStream(21))
    assert abs(abs(lu_determinant(q)) - 1.0) < 1e-10


def test_qr_orthogonal_rejects_zero_dim():
    with pytest.raises(ValueError):
        qr_orthogonal(0, RngStream(0))


# ---------------------------------------------------------------------------
# spectral_radius


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(6)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -2.0])) == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_vs_gelfand_oracle():
    m = RngStream(31).uniform(-1, 1, (20, 20))
    expected = gelfand_radius(m)
    got = spectral_radius(m)
    assert abs(got - expected) / expected < 1e-6


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# operator norm in the contraction coefficient


def test_operator_norm_vs_gram_oracle():
    # one layer with alpha = 0 and beta = 1 has C = ||W_h||
    m = RngStream(13).uniform(-1, 1, (20, 20))
    layer = Layer(w_x=np.zeros((20, 1)), w_h=m, b=np.zeros(20), o=np.eye(20), alpha=0.0, beta=1.0)
    gram = np.sqrt(spectral_radius(m.T @ m))
    assert abs(contraction_coefficients(DeepReservoir([layer]))[1] - gram) < 1e-9


# ---------------------------------------------------------------------------
# ridge readout (readout.fit)


def test_ridge_interpolates_square_system():
    rng = RngStream(17)
    h = rng.uniform(-1, 1, (12, 12))
    y = rng.uniform(-1, 1, (12, 3))
    w = fit(h, y, 0.0)
    assert np.linalg.norm(h @ w.T - y) < 1e-8


def test_ridge_shrinkage_limit():
    rng = RngStream(18)
    h = rng.uniform(-1, 1, (40, 10))
    y = rng.uniform(-1, 1, (40, 2))
    w = fit(h, y, 1e12)
    assert np.linalg.norm(w) < 1e-6 * np.linalg.norm(h.T @ y)


def test_ridge_matches_normal_equations():
    rng = RngStream(19)
    h = rng.uniform(-1, 1, (50, 10))
    y = rng.uniform(-1, 1, (50, 4))
    lam = 0.1
    expected = np.linalg.solve(h.T @ h + lam * np.eye(10), h.T @ y).T
    got = fit(h, y, lam)
    assert np.max(np.abs(got - expected)) < 1e-8


def test_ridge_matches_normal_equations_when_well_conditioned():
    for seed, (s, f, o) in enumerate([(30, 5, 1), (80, 20, 3), (25, 25, 2)]):
        rng = RngStream(100 + seed)
        h = rng.uniform(-1, 1, (s, f))
        y = rng.uniform(-1, 1, (s, o))
        for lam in (1e-3, 0.1, 10.0):
            gram = h.T @ h + lam * np.eye(f)
            assert np.linalg.cond(gram) < 1e8
            expected = np.linalg.solve(gram, h.T @ y).T
            assert np.max(np.abs(fit(h, y, lam) - expected)) < 1e-8


def test_ridge_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fit(np.ones((4, 2)), np.ones((5, 1)), 0.0)
    with pytest.raises(ValueError):
        fit(np.ones((4, 2)), np.ones((4, 1)), -1.0)
    with pytest.raises(ValueError, match="fit expects 2-d feature and target matrices"):
        fit(np.ones((4, 2)), np.ones(4), 0.0)
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"ridge penalty must be finite and >= 0, got {lam}$"):
            fit(np.ones((4, 2)), np.ones((4, 1)), lam)


# ---------------------------------------------------------------------------
# fft_magnitudes


def test_fft_constant_signal_all_energy_in_dc():
    mags = fft_magnitudes(np.full(64, 3.0))
    assert mags[0] == pytest.approx(64 * 3.0, abs=1e-9)
    assert np.max(mags[1:]) < 1e-9


def test_fft_pure_tone_peaks_at_its_bin():
    t = 128
    k = 11
    x = np.sin(2 * np.pi * k * np.arange(t) / t)
    assert np.argmax(fft_magnitudes(x)) == k


def _assert_matches_naive_dft(x, label=None):
    """A signal, and a (T, 3) block with it as one column, both against the
    naive DFT; each block column must also equal its own 1-D call."""
    assert np.max(np.abs(fft_magnitudes(x) - naive_dft_magnitudes(x))) < 1e-9, label
    block = np.column_stack([x, RngStream(len(x) + 1).uniform(-1, 1, len(x)), x[::-1]])
    mags = fft_magnitudes(block)
    assert mags.shape == (len(x) // 2 + 1, 3), label
    assert np.max(np.abs(mags - naive_dft_magnitudes(block))) < 1e-9, label
    for c in range(3):
        assert np.array_equal(mags[:, c], fft_magnitudes(block[:, c])), (label, c)


def test_fft_matches_naive_dft():
    _assert_matches_naive_dft(RngStream(77).uniform(-1, 1, 256))


def test_fft_matches_naive_dft_across_lengths():
    for t in (2, 3, 4, 5, 8, 13, 64, 100, 255, 256, 1024):
        _assert_matches_naive_dft(RngStream(t).uniform(-1, 1, t), t)


def test_fft_parseval_consistency():
    x = RngStream(5).uniform(-1, 1, 200)
    # double every bin except DC (and Nyquist for even T) to recover the
    # two-sided energy
    sq = fft_magnitudes(x) ** 2
    two_sided = sq[0] + 2 * sq[1:-1].sum() + sq[-1]
    assert two_sided / len(x) == pytest.approx(np.sum(x * x), rel=1e-12)


def test_fft_bin_count_invariant():
    for t in (2, 3, 10, 11):
        assert fft_magnitudes(np.ones(t)).shape == (t // 2 + 1,)
        assert fft_magnitudes(np.ones((t, 4))).shape == (t // 2 + 1, 4)


def test_fft_rejects_short_signal():
    with pytest.raises(ValueError, match="at least two samples"):
        fft_magnitudes(np.array([1.0]))
    with pytest.raises(ValueError, match="at least two samples"):
        fft_magnitudes(np.ones((1, 3)))


def test_fft_rejects_scalar_and_three_dimensional_input():
    for bad in (np.float64(1.0), np.ones((8, 2, 2))):
        with pytest.raises(ValueError, match=r"\(T, channels\) block"):
            fft_magnitudes(bad)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_cyclic_permutation_are_roots_of_unity():
    c = np.zeros((4, 4))
    c[0, 3] = 1.0
    for i in range(1, 4):
        c[i, i - 1] = 1.0
    eigs = np.sort_complex(eigenvalues(c))
    expected = np.sort_complex(np.array([1, 1j, -1, -1j], dtype=complex))
    assert np.max(np.abs(eigs - expected)) < 1e-10


def test_eigenvalues_triangular_matrix():
    m = np.triu(RngStream(3).uniform(-1, 1, (6, 6)))
    eigs = np.sort_complex(eigenvalues(m))
    expected = np.sort_complex(np.diag(m).astype(complex))
    assert np.max(np.abs(eigs - expected)) < 1e-10


def test_eigenvalues_char_poly_residual_vs_lu_oracle():
    m = RngStream(41).uniform(-1, 1, (20, 20))
    bound = 1e-6 * np.linalg.norm(m) ** 20
    for lam in eigenvalues(m):
        residual = abs(lu_determinant(m - lam * np.eye(20)))
        assert residual < bound
