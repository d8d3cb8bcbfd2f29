"""Sampled-waveform container and test-tone generation.

Everything downstream (both simulated chains and the measurement suite)
passes signals around as :class:`Signal` values in volts; a Signal shares,
not copies, a float64 samples array with its caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasedStimulus


@dataclass(frozen=True, eq=False)
class Signal:
    """A finite, uniformly sampled real-valued waveform.

    samples are in volts; sample_rate in Hz.  Both are validated and cannot
    be reassigned, but a float64 samples array is the caller's, not a copy:
    a later write to it shows in the Signal.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.samples))))


def generate_sine(
    freq: float,
    amplitude_rms: float,
    duration: float,
    sample_rate: float,
    phase: float = 0.0,
) -> Signal:
    """Real sine with a given RMS amplitude (peak = amplitude_rms * sqrt(2)).

    Raises AliasedStimulus for freq at or above Nyquist.
    """
    if freq >= sample_rate / 2.0:
        raise AliasedStimulus(
            f"{freq} Hz is not below Nyquist ({sample_rate / 2.0} Hz)"
        )
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    samples = amplitude_rms * np.sqrt(2.0) * np.sin(2.0 * np.pi * freq * t + phase)
    return Signal(samples, sample_rate)


def delay_samples(samples: np.ndarray, n: int) -> np.ndarray:
    """Shift right by n whole samples, zero-filling; output length is preserved."""
    if n < 0:
        raise ValueError("delay must be non-negative")
    if n == 0:
        return np.array(samples, dtype=np.float64)
    out = np.zeros(len(samples), dtype=np.float64)
    out[n:] = samples[: max(len(samples) - n, 0)]
    return out
