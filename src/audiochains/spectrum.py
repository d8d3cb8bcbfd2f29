"""Averaged-periodogram power spectrum, amplitude-calibrated in dBV.

Scaling convention: each one-sided bin holds coherent-gain-corrected power,
i.e. a bin-centered sine of rms A reads 10*log10(A**2) dBV in its peak bin
and a DC level of 1 V reads 0 dBV.  `power_spectrum` always applies the
periodic Hann window; `windowed_power` takes any window.  Band power (the
sum of bins over a tone's main lobe) must be divided by the window's
equivalent noise bandwidth in bins (`Spectrum.enbw_bins`); with that
correction the linear sum over all bins equals the time-domain mean square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal
from .signals import Signal

_DB_FLOOR = 1e-300
MAX_SEGMENT = 16384  # longest averaging segment, in samples


def window_samples(n: int) -> np.ndarray:
    # Periodic (DFT-even) hann: a tone on an exact bin stays within +/-1 bin.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def windowed_power(frames: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean one-sided power of the rows of `frames` under window `w`.

    Bins carry the coherent-gain scaling of the module docstring, with DC
    and an even-length Nyquist bin counted once.  Also returns the window's
    equivalent noise bandwidth in bins, the divisor for band power.
    """
    n = len(w)
    coherent_gain = w.sum()
    enbw_bins = n * float(np.sum(w * w)) / coherent_gain**2
    acc = np.zeros(n // 2 + 1)
    for frame in frames:
        acc += np.abs(np.fft.rfft(frame * w)) ** 2
    powers = acc / len(frames) * 2.0 / coherent_gain**2
    powers[0] /= 2.0
    if n % 2 == 0:
        powers[-1] /= 2.0
    return powers, enbw_bins


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided averaged power spectrum of a signal."""

    bin_frequencies: np.ndarray
    bin_powers_dbv: np.ndarray
    resolution_hz: float
    enbw_bins: float


def power_spectrum(sig: Signal) -> Spectrum:
    """Hann-windowed periodogram averaged over non-overlapping segments of
    min(MAX_SEGMENT, len) samples rounded down to a power of two."""
    n = len(sig)
    if n == 0:
        raise EmptySignal("cannot estimate the spectrum of an empty signal")
    if n < 2:
        raise ValueError(f"a spectrum needs at least 2 samples, got {n}")
    segment = min(MAX_SEGMENT, 1 << (n.bit_length() - 1))

    n_segments = n // segment
    frames = sig.samples[: n_segments * segment].reshape(n_segments, segment)
    powers, enbw_bins = windowed_power(frames, window_samples(segment))

    resolution = sig.sample_rate / segment
    freqs = np.arange(segment // 2 + 1) * resolution
    dbv = 10.0 * np.log10(np.maximum(powers, _DB_FLOOR))
    return Spectrum(freqs, dbv, resolution, enbw_bins)
