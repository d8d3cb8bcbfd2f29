"""Sampled-waveform container, test-tone generation and the chains' shared stages.

Everything downstream (both simulated chains and the measurement suite)
passes signals around as :class:`Signal` values in volts; a Signal shares,
not copies, a float64 samples array with its caller.  Every frequency meets
its sample rate in one rule, `require_below_nyquist`.

Every cosine and sine the package takes of a sampled sinusoid -- the test
tone, the THD fit's projections and the Hann window -- comes from
`block_phasors`, which evaluates them only at block starts and over one
in-block ramp (the blocking of Burrus 1972), with each argument reduced
modulo one cycle first.  Each caller builds from those only the component it
reads: `sine_samples` for the tone, `cosine_samples` for the window, and the
fit only block projections.  The fit's Gram matrix needs only whole-record
sums, which `phasor_sums` gives in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AliasedStimulus, ShapeMismatch

PHASOR_BLOCK = 512  # samples per block of `block_phasors`
SLICE = 8192  # samples per slice of the chains' per-sample stages: 64 KB float64 operands
# rms volts of the 1 kHz tone both chains are characterized at: the CLI's
# stimulus, its distortion calibration and both chains' noise levels
CALIBRATION_VRMS = 0.5


def require_positive(name: str, value: float) -> None:
    """The one rule for a rate, duration or amplitude: positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_below_nyquist(name: str, freq: float, rate: float) -> None:
    """The one frequency-vs-rate rule: AliasedStimulus unless freq < rate / 2."""
    if not freq < rate / 2.0:
        raise AliasedStimulus(
            f"{name} {freq:g} Hz is not below Nyquist: the sample rate must exceed "
            f"{2.0 * freq:g} Hz, got {rate:g} Hz"
        )


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
        require_positive("sample_rate", self.sample_rate)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


def block_phasors(
    n: int, freq: float, rate: float, phase: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cos a, sin a, cos b, sin b: the blocked angles of 2 pi freq k / rate + phase.

    Sample k = j * PHASOR_BLOCK + m, for k = 0 .. n - 1, has the angle
    a[j] + b[m]: a at the block starts (phase included), b over one in-block
    ramp of min(n, PHASOR_BLOCK) samples.  So only about n / PHASOR_BLOCK +
    PHASOR_BLOCK cosines and sines are evaluated.  Both angles are reduced
    modulo one cycle before the scaling by 2 pi / rate (exactly, for an
    integral freq * k below 2**53), so the error stays a few ulps at any n
    instead of growing with freq * k.
    """
    starts = np.arange(0, n, PHASOR_BLOCK, dtype=np.float64)
    ramp = np.arange(min(n, PHASOR_BLOCK), dtype=np.float64)
    a = 2.0 * np.pi * np.fmod(freq * starts, rate) / rate + phase
    b = 2.0 * np.pi * np.fmod(freq * ramp, rate) / rate
    return np.cos(a), np.sin(a), np.cos(b), np.sin(b)


def phasor_sums(n: int, freq: float, rate: float) -> tuple[float, float]:
    """The sums of cos and sin of 2 pi freq k / rate over k = 0 .. n - 1, for
    0 < freq < rate: the Dirichlet kernel sin(pi freq n / rate) / sin(pi freq /
    rate) rotated by pi freq (n - 1) / rate, each angle reduced modulo one
    cycle as in `block_phasors`."""
    top, bottom, turn = (2.0 * math.pi * math.fmod(0.5 * freq * m, rate) / rate
                         for m in (n, 1, n - 1))
    kernel = math.sin(top) / math.sin(bottom)
    return kernel * math.cos(turn), kernel * math.sin(turn)


def sine_samples(n: int, freq: float, rate: float, phase: float = 0.0) -> np.ndarray:
    """sin(2 pi freq k / rate + phase) for k = 0 .. n - 1, as sin a cos b + cos a sin b
    of `block_phasors`."""
    cos_a, sin_a, cos_b, sin_b = block_phasors(n, freq, rate, phase)
    sin = np.multiply.outer(sin_a, cos_b)
    sin += np.multiply.outer(cos_a, sin_b)
    return sin.ravel()[:n]


def cosine_samples(n: int, freq: float, rate: float, phase: float = 0.0) -> np.ndarray:
    """cos(2 pi freq k / rate + phase) for k = 0 .. n - 1, as cos a cos b - sin a sin b
    of `block_phasors`."""
    cos_a, sin_a, cos_b, sin_b = block_phasors(n, freq, rate, phase)
    cos = np.multiply.outer(cos_a, cos_b)
    cos -= np.multiply.outer(sin_a, sin_b)
    return cos.ravel()[:n]


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
    require_below_nyquist("tone", freq, sample_rate)
    require_positive("duration", duration)
    require_positive("amplitude_rms", amplitude_rms)
    n = int(round(duration * sample_rate))
    samples = sine_samples(n, freq, sample_rate, phase)
    samples *= amplitude_rms * np.sqrt(2.0)
    return Signal(samples, sample_rate)


def latency_samples(latency: float, sample_rate: float) -> int:
    """A latency in seconds as whole samples at sample_rate, ties to even;
    OverflowError beyond the float range."""
    return int(round(latency * sample_rate))


def delayed_slices(convert: Callable[..., np.ndarray], delay: int, *inputs) -> np.ndarray:
    """Run convert, a per-sample conversion of equal-length inputs, on slices of at
    most SLICE samples, each written straight into the zero-filled output delay
    whole samples later; samples the delay pushes out of the record never run."""
    if delay < 0:
        raise ValueError("delay must be non-negative")
    out = np.zeros(len(inputs[0]))
    kept = out[delay:]  # a view: the output samples the delay keeps in the record
    for start in range(0, len(kept), SLICE):
        stop = min(start + SLICE, len(kept))
        kept[start:stop] = convert(*(x[start:stop] for x in inputs))
    return out


def input_stage(
    in0: Signal,
    in1: Signal | None,
    sample_rate: float,
    shape: Callable[[np.ndarray], np.ndarray],
    noise_rms: float,
    rng: np.random.Generator | None,
    convert: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, ...]:
    """The line-input stage both chains share: each channel's converted pin,
    channel 0's alone when in1 is None.

    shape, the chain's deterministic analog shaping, runs once per distinct
    Signal.  Each channel, channel 0 first, is then run through convert, the
    chain's ADC, one SLICE-sample pin slice at a time into an output of convert's
    dtype: no record-length pin exists.  Given an rng, a pin slice is the shaped
    slice plus Gaussian noise of noise_rms drawn into one reused buffer, the
    numbers of one n-sample draw per channel; rng=None draws nothing.
    """
    channels = (in0,) if in1 is None else (in0, in1)
    if any(len(sig) != len(in0) for sig in channels):
        raise ShapeMismatch("input signals must have equal length")
    if any(sig.sample_rate != sample_rate for sig in channels):
        raise ShapeMismatch("input sample rates must equal the chain's sample_rate")
    shaped = [shape(in0.samples)]
    shaped += [shaped[0] if sig is in0 else shape(sig.samples) for sig in channels[1:]]
    buf = np.empty(min(len(in0), SLICE))  # the one pin slice, reused
    outputs = tuple(np.empty(len(x), convert(x[:0]).dtype) for x in shaped)  # convert's dtype
    for x, out in zip(shaped, outputs):
        for start in range(0, len(x), SLICE):
            pin = x[start : start + SLICE]
            if rng is not None:
                noise = rng.standard_normal(out=buf[: len(pin)])
                noise *= noise_rms
                pin = np.add(noise, pin, out=noise)
            out[start : start + len(pin)] = convert(pin)
    return outputs
