"""Chain characterization: MLS impulse-response latency, THD and THD+N.

Latency comes from the impulse response recovered by circular
cross-correlation against a repeated maximum-length sequence; the first
period is discarded as warm-up and the rest are averaged.  An output
constant over that period raises NoPeak: the response is absent, or too
long and would wrap around the correlation.  The sequence's two-valued
autocorrelation makes the raw correlation R a scaled copy of the impulse
response sitting on a uniform background (the DC-gain term plus any
standing output offset leaking through the sequence's +/-1 imbalance), so

    h[tau] = (R[tau] - median(R)) / ((L + 1) * amplitude**2)

(the period L = 2**order - 1 is odd, so the median is R's middle order
statistic, taken with one partition) is exact for any affine
time-invariant system whose response is sparse relative to the period and
settles within it; an identity system yields a unit impulse at lag zero.

THD is a ratio of raw +/-3-bin band sums of one Hann-windowed spectrum
(`spectrum.windowed_power`'s scaling), harmonics over fundamental; the
ENBW divides every band alike and cancels.  For THD+N the fundamental
(and DC) is removed exactly by a least-squares sin/cos fit at the stated
frequency, solved from its 3x3 normal equations: at 10 or more cycles
below 0.45 fs their Gram matrix is near diag(n, n/2, n/2), condition
number at most about 2.3, so squaring it costs no accuracy.  Binwise
notching would leave window sidelobe leakage of the fundamental in the
residual, putting a floor well above the quantization-level residuals this
suite has to resolve.  Every sample of the record is analyzed: the fit
removes the fundamental at any length (off whole cycles the harmonics leak
into the fit basis, so THD+N reads about 0.024 dB low at 10.5 cycles and
within 0.0007 dB at 2850), and a +/-3 bin Hann band holds its tone to
within 0.0003 dB wherever the tone sits in its bin, so a ratio of two bands
holds to about that.  One analysis yields both figures, so
`measure_thdn` is an alias of `measure_thd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySignal, FundamentalNotFound, NoPeak, TruncatedResponse
from .mls import MlsConfig, generate_mls
from .signals import Signal
from .spectrum import window_samples, windowed_power

SystemTransform = Callable[[Signal], Signal]

MLS_PERIODS = 4  # repeats of the sequence; the first is discarded as warm-up
HARMONIC_HALF_BINS = 3
MAX_HARMONICS = 20
_FLOOR = 1e-300


@dataclass(frozen=True)
class LatencyReport:
    latency_seconds: float
    peak_sample_index: int
    peak_to_noise_db: float


@dataclass(frozen=True)
class DistortionReport:
    fundamental_hz: float
    fundamental_power_dbv: float
    thd_db: float
    thdn_db: float
    harmonic_levels: tuple[tuple[int, float], ...]


def measure_impulse_response(system: SystemTransform, cfg: MlsConfig) -> Signal:
    """Impulse response of `system` via repeated-MLS cross-correlation."""
    probe = generate_mls(cfg)
    length = len(probe)
    stimulus = Signal(np.tile(probe.samples, MLS_PERIODS), cfg.sample_rate)
    response = system(stimulus)
    if len(response) < MLS_PERIODS * length:
        raise TruncatedResponse(
            f"system returned {len(response)} of {MLS_PERIODS * length} samples"
        )
    if np.ptp(response.samples[:length]) == 0:
        raise NoPeak(f"output constant over the first MLS period ({length} samples, order "
                     f"{cfg.order}): the response is absent or longer than one period")
    steady = response.samples[length : MLS_PERIODS * length].reshape(MLS_PERIODS - 1, length)
    y = steady.mean(axis=0)

    spec_y = np.fft.rfft(y)
    spec_s = np.fft.rfft(probe.samples)
    corr = np.fft.irfft(spec_y * np.conj(spec_s), n=length)
    background = np.partition(corr, length // 2)[length // 2]  # median: length is odd
    h = (corr - background) / ((length + 1) * cfg.amplitude**2)
    return Signal(h, cfg.sample_rate)


def estimate_latency(ir: Signal) -> LatencyReport:
    """Nearest-sample latency from the impulse-response peak."""
    if len(ir) == 0:
        raise EmptySignal("empty impulse response")
    magnitude = np.abs(ir.samples)
    if not magnitude.any():
        raise NoPeak("impulse response is identically zero")
    peak = int(np.argmax(magnitude))
    keep = np.ones(len(ir), dtype=bool)
    keep[max(peak - 8, 0) : peak + 9] = False
    if keep.any():
        noise_rms = float(np.sqrt(np.mean(ir.samples[keep] ** 2)))
    else:
        noise_rms = 0.0
    if noise_rms > 0.0:
        peak_to_noise = 20.0 * np.log10(magnitude[peak] / noise_rms)
    else:
        peak_to_noise = np.inf
    return LatencyReport(
        latency_seconds=peak / ir.sample_rate,
        peak_sample_index=peak,
        peak_to_noise_db=float(peak_to_noise),
    )


def measure_thd(sig: Signal, fundamental_hz: float) -> DistortionReport:
    """THD and THD+N of `sig` against its fundamental, in dB (see module docstring)."""
    if len(sig) == 0:
        raise EmptySignal("cannot analyze an empty signal")
    if not 0.0 < fundamental_hz < sig.sample_rate / 2.0:
        raise ValueError("fundamental must lie below Nyquist")
    fs = sig.sample_rate
    x = sig.samples
    n = len(x)
    if n * fundamental_hz < 10 * fs:
        raise ValueError("signal must span at least 10 fundamental periods")

    # Exact fundamental + DC removal; the residual is formed from the samples
    # (|x|^2 - coef.b would cancel away a pure sine's floor).
    t = np.arange(n) / fs
    c = np.cos(2 * np.pi * fundamental_hz * t)
    s = np.sin(2 * np.pi * fundamental_hz * t)
    sc, ss, cs = c.sum(), s.sum(), c @ s
    gram = np.array([[n, sc, ss], [sc, c @ c, cs], [ss, cs, s @ s]])
    coef = np.linalg.solve(gram, [x.sum(), c @ x, s @ x])
    residual = x - coef[0] - coef[1] * c - coef[2] * s
    p1_fit = (coef[1] ** 2 + coef[2] ** 2) / 2.0
    if p1_fit <= 0.0:
        raise FundamentalNotFound("no energy at the stated fundamental")
    thdn_db = 10.0 * np.log10(max(float(np.mean(residual**2)), _FLOOR) / p1_fit)

    # Harmonic bands of one Hann-windowed spectrum, used only in ratios.
    powers, _ = windowed_power((x - x.mean())[np.newaxis], window_samples(n))

    def band(c: int) -> float:
        return float(np.sum(powers[max(c - HARMONIC_HALF_BINS, 0) : c + HARMONIC_HALF_BINS + 1]))

    fundamental_bin = int(round(fundamental_hz * n / fs))
    # the search skips the DC main lobe, bins 0 to HARMONIC_HALF_BINS
    peak_bin = HARMONIC_HALF_BINS + 1 + int(np.argmax(powers[HARMONIC_HALF_BINS + 1 :]))
    if abs(peak_bin - fundamental_bin) > HARMONIC_HALF_BINS:
        raise FundamentalNotFound(
            f"spectrum peak at bin {peak_bin}, fundamental at bin {fundamental_bin}"
        )

    p1_band = band(fundamental_bin)
    harmonic_levels = []
    harmonic_power = 0.0
    for k in range(2, MAX_HARMONICS + 1):
        centre = k * fundamental_hz * n / fs
        if centre > len(powers) - 1 - HARMONIC_HALF_BINS:
            break  # band would cross Nyquist
        p_k = band(int(round(centre)))
        harmonic_power += p_k
        harmonic_levels.append((k, 10.0 * np.log10(max(p_k, _FLOOR) / p1_band)))
    thd_db = 10.0 * np.log10(max(harmonic_power, _FLOOR) / p1_band)

    return DistortionReport(
        fundamental_hz=fundamental_hz,
        fundamental_power_dbv=10.0 * np.log10(p1_fit),
        thd_db=float(thd_db),
        thdn_db=float(thdn_db),
        harmonic_levels=tuple(harmonic_levels),
    )


measure_thdn = measure_thd
