"""Averaged-periodogram power spectrum, amplitude-calibrated in dBV.

Scaling convention: each one-sided bin holds coherent-gain-corrected power,
i.e. a bin-centered sine of rms A reads 10*log10(A**2) dBV in its peak bin
and a DC level of 1 V reads 0 dBV, for either window.  Band power (the sum
of bins over a tone's main lobe) must be divided by the window's equivalent
noise bandwidth in bins (`enbw_bins`); `band_sum`, which `band_power` and
the THD analyzer share, does this, and with that correction the linear sum
over all bins equals the time-domain mean square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal
from .signals import Signal

_DB_FLOOR = 1e-300

WINDOWS = ("hann", "rectangular")


def window_samples(window: str, n: int) -> np.ndarray:
    # Periodic (DFT-even) hann: a tone on an exact bin stays within +/-1 bin.
    if window == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if window == "rectangular":
        return np.ones(n)
    raise ValueError(f"window must be one of {WINDOWS}")


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
    window: str
    enbw_bins: float

    def __post_init__(self):
        freqs = np.asarray(self.bin_frequencies, dtype=np.float64)
        powers = np.asarray(self.bin_powers_dbv, dtype=np.float64)
        if freqs.shape != powers.shape:
            raise ValueError("frequency and power arrays must have equal length")
        if freqs.size == 0 or freqs[0] != 0.0 or np.any(np.diff(freqs) <= 0):
            raise ValueError("bin frequencies must increase strictly from 0")
        object.__setattr__(self, "bin_frequencies", freqs)
        object.__setattr__(self, "bin_powers_dbv", powers)

    def linear_powers(self) -> np.ndarray:
        return 10.0 ** (self.bin_powers_dbv / 10.0)


def power_spectrum(sig: Signal, window: str = "hann", segment_len: int | None = None) -> Spectrum:
    """Averaged periodogram over non-overlapping segments.

    segment_len must be a power of two no longer than the signal; it
    defaults to min(16384, len) rounded down to a power of two.
    """
    n = len(sig)
    if n == 0:
        raise EmptySignal("cannot estimate the spectrum of an empty signal")
    if segment_len is None:
        segment_len = min(16384, 1 << (n.bit_length() - 1))
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ValueError("segment_len must be a power of two >= 2")
    if segment_len > n:
        raise ValueError("segment_len exceeds the signal length")

    n_segments = n // segment_len
    frames = sig.samples[: n_segments * segment_len].reshape(n_segments, segment_len)
    powers, enbw_bins = windowed_power(frames, window_samples(window, segment_len))

    resolution = sig.sample_rate / segment_len
    freqs = np.arange(segment_len // 2 + 1) * resolution
    dbv = 10.0 * np.log10(np.maximum(powers, _DB_FLOOR))
    return Spectrum(freqs, dbv, resolution, window, enbw_bins)


def band_sum(powers: np.ndarray, enbw_bins: float, center_bin: int, half_bins: int) -> float:
    """ENBW-corrected sum of linear `powers` over center_bin +/- half_bins, cut to the array."""
    lo = max(center_bin - half_bins, 0)
    hi = min(center_bin + half_bins, len(powers) - 1)
    if hi < lo:
        return 0.0
    return float(np.sum(powers[lo : hi + 1])) / enbw_bins


def band_power(spec: Spectrum, center_hz: float, half_bins: int = 3) -> float:
    """ENBW-corrected linear power (V^2 rms) in +/-half_bins around a frequency."""
    center = int(round(center_hz / spec.resolution_hz))
    return band_sum(spec.linear_powers(), spec.enbw_bins, center, half_bins)


def total_power(spec: Spectrum) -> float:
    """ENBW-corrected total linear power; matches the time-domain mean square."""
    return float(np.sum(spec.linear_powers())) / spec.enbw_bins
