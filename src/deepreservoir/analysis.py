"""Frequency-domain analysis of layer dynamics.

Drives a reservoir stack with a fixed multisine probe and reports how the
magnitude spectrum of the hidden states changes with depth. Different
residual configurations filter the probe differently: identity residuals
suppress high frequencies in deeper layers, cyclic ones leave the content
roughly unchanged, random orthogonal ones suppress the low end.
"""

from __future__ import annotations

import numpy as np

from .numerics import RngStream, fft_magnitudes
from .reservoir import LayerConfig, build_deep_reservoir, forward

# Angular frequencies (radians per step) of the probe signal.
MULTISINE_FREQS = (0.2, 0.331, 0.42, 0.51, 0.63, 0.74, 0.85, 0.97, 1.08, 1.19, 1.27, 1.32)


def multisine(t_steps: int) -> np.ndarray:
    """Probe signal s(t) = sum_i sin(phi_i * t) sampled at t = 1..t_steps."""
    if t_steps < 1:
        raise ValueError("need at least one sample")
    t = np.arange(1, t_steps + 1, dtype=float)
    return np.sum([np.sin(phi * t) for phi in MULTISINE_FREQS], axis=0)


def layerwise_spectra(configs: list[LayerConfig], signal: np.ndarray, trials: int,
                      seed: int, washout: int = 0) -> np.ndarray:
    """Average per-layer state spectra over freshly built reservoirs.

    Each trial rebuilds the stack from a child stream of the seed, runs it
    over the signal, Fourier-transforms every hidden unit's post-washout
    sequence, and averages magnitudes over units; trials are then averaged
    and each layer normalized to max 1. Returns a (layers, bins) array.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    signal = np.asarray(signal, dtype=float)
    master = RngStream(seed)
    sums = 0.0
    for trial in range(trials):
        rng = master.child(("trial", trial))
        deep = build_deep_reservoir(configs, input_dim=1, rng=rng)
        traj = forward(deep, signal, washout=washout)
        sums = sums + np.array([fft_magnitudes(s[washout:]).mean(axis=1) for s in traj.states])
    mean = sums / trials
    peak = mean.max(axis=1, keepdims=True)
    peak[peak == 0] = 1.0  # an all-zero layer stays zero
    return mean / peak


def band_energy_ratio(mags: np.ndarray, split_bin: int) -> float:
    """Fraction of a magnitude spectrum's energy at or above split_bin.

    Energy is the sum of squared magnitudes.
    """
    mags = np.asarray(mags, dtype=float)
    if not 0 < split_bin < len(mags):
        raise ValueError(f"split_bin must be in (0, {len(mags)})")
    energy = mags * mags
    total = float(energy.sum())
    if total == 0.0:
        raise ValueError("spectrum has zero energy")
    return float(energy[split_bin:].sum()) / total


def band_split_bin(t_steps: int) -> int:
    """FFT bin of angular frequency 0.74, the midpoint of the probe's
    frequency list, for a length-t_steps window."""
    if t_steps < 5:  # shorter windows round the split down to bin 0
        raise ValueError(f"band split needs a length of at least 5 steps, got {t_steps}")
    return int(round(0.74 * t_steps / (2.0 * np.pi)))
