import numpy as np
import pytest

from deepreservoir.analysis import (
    MULTISINE_FREQS,
    band_energy_ratio,
    band_split_bin,
    layerwise_spectra,
    multisine,
)
from deepreservoir.harness import emit_reports
from deepreservoir.numerics import RngStream, fft_magnitudes
from deepreservoir.reservoir import LayerConfig, ResidualKind, build_deep_reservoir


def _config(n=20, rho=0.5, wx=1.0, wb=0.0, alpha=0.5, beta=0.5,
            kind=ResidualKind.IDENTITY):
    return LayerConfig(hidden_size=n, spectral_radius=rho, input_scaling=wx,
                       bias_scaling=wb, alpha=alpha, beta=beta, residual=kind)


def expected_bins(t_steps):
    return [int(round(phi * t_steps / (2 * np.pi))) for phi in MULTISINE_FREQS]


# ---------------------------------------------------------------------------
# multisine probe


def test_multisine_amplitude_bound():
    s = multisine(5000)
    assert np.max(np.abs(s)) <= 12.0


def test_multisine_starts_at_t_equals_one():
    s = multisine(3)
    expected = [sum(np.sin(phi * t) for phi in MULTISINE_FREQS) for t in (1, 2, 3)]
    assert np.allclose(s, expected)


def test_multisine_zero_at_time_zero():
    assert sum(np.sin(phi * 0.0) for phi in MULTISINE_FREQS) == 0.0


def test_multisine_spectrum_peaks_at_component_bins():
    t = 1000
    mags = fft_magnitudes(multisine(t))
    floor = np.median(mags)
    windows = []
    for k in expected_bins(t):
        assert np.max(mags[k - 1:k + 2]) > 5 * floor, k
        windows.append(np.sum(mags[k - 3:k + 4] ** 2))
    assert sum(windows) > 0.8 * np.sum(mags ** 2)


# ---------------------------------------------------------------------------
# band energy ratio


def test_band_ratio_low_frequency_tone():
    t = 256
    x = np.sin(2 * np.pi * 3 * np.arange(t) / t)
    assert band_energy_ratio(fft_magnitudes(x), 50) < 1e-12


def test_band_ratio_flat_spectrum_midpoint():
    assert band_energy_ratio(np.ones(100), 50) == pytest.approx(0.5)


def test_band_ratio_probe_above_highest_component():
    t = 1000
    spec = fft_magnitudes(multisine(t))
    split = max(expected_bins(t)) + 10
    assert band_energy_ratio(spec, split) < 0.01


def test_band_ratio_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        band_energy_ratio(np.ones(10), 0)
    with pytest.raises(ValueError):
        band_energy_ratio(np.ones(10), 10)
    with pytest.raises(ValueError):
        band_energy_ratio(np.zeros(10), 5)


def test_band_split_bin_default():
    assert band_split_bin(1000) == int(round(0.74 * 1000 / (2 * np.pi)))


def test_band_split_bin_rejects_windows_shorter_than_five_steps():
    # five steps is the shortest window whose split lies inside its spectrum
    assert band_split_bin(5) == 1
    assert 0 < band_energy_ratio(np.ones(5 // 2 + 1), band_split_bin(5)) < 1
    for t in (0, 1, 4):
        with pytest.raises(ValueError, match=f"at least 5 steps, got {t}"):
            band_split_bin(t)


# ---------------------------------------------------------------------------
# layer-wise spectra


def test_layerwise_spectra_deterministic_and_normalized():
    configs = [_config(), _config()]
    signal = multisine(300)
    a = layerwise_spectra(configs, signal, trials=2, seed=7)
    b = layerwise_spectra(configs, signal, trials=2, seed=7)
    assert np.array_equal(a, b)
    assert len(a) == 2
    assert a.shape[1] == 300 // 2 + 1
    for sa in a:
        assert sa.max() == 1.0
        assert np.all(sa >= 0)


def test_layerwise_spectra_rejects_zero_trials():
    with pytest.raises(ValueError):
        layerwise_spectra([_config()], multisine(100), trials=0, seed=0)


def test_layerwise_spectra_names_a_washout_past_the_signal():
    for washout in (100, 150):
        with pytest.raises(ValueError, match=f"washout {washout} must be < sequence length 100"):
            layerwise_spectra([_config()], multisine(100), trials=1, seed=0, washout=washout)


def test_linear_reservoir_preserves_probe_frequencies():
    # with a tiny input scaling and no bias tanh stays in its linear
    # regime, so the layer acts as a stable LTI system whose steady state
    # contains exactly the probe frequencies
    t, washout = 1200, 200
    signal = multisine(t)
    configs = [_config(rho=0.4, wx=1e-6)]
    spectra = layerwise_spectra(configs, signal, trials=1, seed=3, washout=washout)

    # independent simulation of the same linear system, rebuilt from the
    # same derived stream
    deep = build_deep_reservoir(configs, 1, RngStream(3).child(("trial", 0)))
    layer = deep.layers[0]
    h = np.zeros(layer.size)
    states = []
    for x in signal:
        h = layer.alpha * (layer.o @ h) + layer.beta * (
            layer.w_h @ h + layer.w_x @ np.atleast_1d(x) + layer.b)
        states.append(h.copy())
    states = np.asarray(states)[washout:]
    mags = np.abs(np.fft.rfft(states, axis=0)).mean(axis=1)
    mags /= mags.max()
    assert np.max(np.abs(spectra[0] - mags)) < 1e-9

    kept = t - washout
    bins = [int(round(phi * kept / (2 * np.pi))) for phi in MULTISINE_FREQS]
    energy = spectra[0] ** 2
    windowed = sum(np.sum(energy[k - 3:k + 4]) for k in bins)
    assert windowed > 0.85 * energy.sum()


def test_identity_kind_filters_high_band_with_depth():
    # small-scale version of the depth trend: slow identity residuals act
    # as low-pass filters, stronger in deeper layers
    t = 1000
    configs = [_config(n=30, rho=1.0, alpha=0.9, beta=0.1) for _ in range(3)]
    spectra = layerwise_spectra(configs, multisine(t), trials=3, seed=11)
    split = band_split_bin(t)
    fracs = [band_energy_ratio(s, split) for s in spectra]
    assert fracs[0] > fracs[1] > fracs[2]


def test_profile_rows_layout(tmp_path):
    configs = [_config(n=5)]
    spectra = layerwise_spectra(configs, multisine(40), trials=1, seed=0)
    emit_reports(tmp_path, spectra={"probe": spectra})
    rows = np.loadtxt(tmp_path / "spectra" / "probe.csv", delimiter=",", skiprows=1)
    assert len(rows) == 21  # 40 // 2 + 1 bins
    assert rows[0][0] == 1 and rows[0][1] == 0
    assert rows[:, 2].max() == 1.0
