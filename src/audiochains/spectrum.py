"""Averaged-periodogram power spectrum, amplitude-calibrated in dBV.

Scaling convention: each one-sided bin holds coherent-gain-corrected power,
i.e. a bin-centered sine of rms A reads 10*log10(A**2) dBV in its peak bin
and a DC level of 1 V reads 0 dBV.  The window is always the periodic Hann
(`window_samples`, its cosine from `signals.cosine_samples`), whose
coherent gain and equivalent noise bandwidth `power_spectrum` applies
itself (Harris 1978).  Band power (the sum of bins over a tone's main
lobe) must be divided by that bandwidth in bins
(`Spectrum.enbw_bins`); with that correction the linear sum over all bins
equals the frames' mean of sum((x * w)**2) / sum(w**2), and for stationary
noise it is close to the time-domain mean square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal
from .signals import Signal, cosine_samples

_DB_FLOOR = 1e-300
MAX_SEGMENT = 16384  # longest averaging segment, in samples


def window_samples(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann of n samples: a tone on an exact bin stays within +/-1 bin.

    0.5 - 0.5 cos(2 pi k / n), with the cosine from `signals.cosine_samples`
    (one cycle over n samples).
    """
    w = cosine_samples(n, 1.0, n)
    w *= -0.5
    w += 0.5
    return w


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
    w = window_samples(segment)
    coherent_gain = w.sum()
    enbw_bins = segment * float(np.sum(w * w)) / coherent_gain**2
    acc = np.zeros(segment // 2 + 1)
    for frame in frames:  # one frame's temporaries at a time, not the batch's
        z = np.fft.rfft(frame * w)
        acc += z.real**2 + z.imag**2
    powers = acc / n_segments * 2.0 / coherent_gain**2
    powers[0] /= 2.0  # DC and Nyquist (the segment is even) are counted once
    powers[-1] /= 2.0

    resolution = sig.sample_rate / segment
    freqs = np.arange(segment // 2 + 1) * resolution
    dbv = 10.0 * np.log10(np.maximum(powers, _DB_FLOOR))
    return Spectrum(freqs, dbv, resolution, enbw_bins)
