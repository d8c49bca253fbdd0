"""Frequency-domain analysis of layer dynamics.

Drives a reservoir stack with a fixed multisine probe and reports how the
magnitude spectrum of the hidden states changes with depth. Different
residual configurations filter the probe differently: identity residuals
suppress high frequencies in deeper layers, cyclic ones leave the content
roughly unchanged, random orthogonal ones suppress the low end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, Spectrum
from .reservoir import LayerConfig, build_deep_reservoir, forward

# Angular frequencies (radians per step) of the probe signal.
MULTISINE_FREQS = (0.2, 0.331, 0.42, 0.51, 0.63, 0.74, 0.85, 0.97, 1.08, 1.19, 1.27, 1.32)


@dataclass
class SpectralProfile:
    """Per-layer magnitude spectra, averaged over units and trials.

    Each layer's spectrum is normalized to a maximum of one.
    """

    spectra: list[np.ndarray]
    trials: int
    sample_count: int

    @property
    def n_layers(self) -> int:
        return len(self.spectra)


def multisine(t_steps: int) -> np.ndarray:
    """Probe signal s(t) = sum_i sin(phi_i * t) sampled at t = 1..t_steps."""
    if t_steps < 1:
        raise ValueError("need at least one sample")
    t = np.arange(1, t_steps + 1, dtype=float)
    return np.sum([np.sin(phi * t) for phi in MULTISINE_FREQS], axis=0)


def layerwise_spectra(configs: list[LayerConfig], signal: np.ndarray, trials: int,
                      seed: int, washout: int = 0) -> SpectralProfile:
    """Average per-layer state spectra over freshly built reservoirs.

    Each trial rebuilds the stack from a child stream of the seed, runs it
    over the signal, Fourier-transforms every hidden unit's post-washout
    sequence, and averages magnitudes over units; trials are then averaged
    and each layer normalized to max 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    signal = np.asarray(signal, dtype=float)
    master = RngStream(seed)
    sums: list[np.ndarray] | None = None
    kept = len(signal) - washout
    for trial in range(trials):
        rng = master.child(("trial", trial))
        deep = build_deep_reservoir(configs, input_dim=1, rng=rng)
        traj = forward(deep, signal, washout=washout)
        per_layer = []
        for states in traj.states:
            mags = np.abs(np.fft.rfft(states[washout:], axis=0))  # (bins, units)
            per_layer.append(mags.mean(axis=1))
        if sums is None:
            sums = per_layer
        else:
            sums = [acc + cur for acc, cur in zip(sums, per_layer)]
    assert sums is not None
    normalized = []
    for acc in sums:
        mean = acc / trials
        peak = mean.max()
        normalized.append(mean / peak if peak > 0 else mean)
    return SpectralProfile(spectra=normalized, trials=trials, sample_count=kept)


def band_energy_ratio(spectrum, split_bin: int) -> float:
    """Fraction of spectral energy at or above split_bin.

    Energy is the sum of squared magnitudes; accepts a Spectrum or a raw
    magnitude array.
    """
    mags = spectrum.magnitudes if isinstance(spectrum, Spectrum) else np.asarray(spectrum, dtype=float)
    if not 0 < split_bin < len(mags):
        raise ValueError(f"split_bin must be in (0, {len(mags)})")
    energy = mags * mags
    total = float(energy.sum())
    if total == 0.0:
        raise ValueError("spectrum has zero energy")
    return float(energy[split_bin:].sum()) / total


def band_split_bin(t_steps: int, phi: float = 0.74) -> int:
    """FFT bin of angular frequency phi for a length-t_steps window.

    The default splits at the midpoint of the probe's frequency list.
    """
    return int(round(phi * t_steps / (2.0 * np.pi)))


def profile_rows(profile: SpectralProfile) -> list[tuple[int, int, float]]:
    """Flatten a profile into (layer, bin, magnitude) rows for CSV dumps."""
    rows = []
    for l, spec in enumerate(profile.spectra, start=1):
        for k, mag in enumerate(spec):
            rows.append((l, k, float(mag)))
    return rows
