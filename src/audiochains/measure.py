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

THD is a ratio of +/-3-bin band sums of the raw |X|^2 of one rfft under the
periodic Hann (`spectrum.window_samples`), harmonics over fundamental.  A
calibrated scaling (`spectrum.power_spectrum`'s coherent gain, the ENBW)
would divide every band alike and cancel, and the DC and Nyquist bins it
halves are never read, so none is applied.  For THD+N the fundamental (and
DC) is removed exactly by a least-squares sin/cos fit at the stated
frequency, solved from its 3x3 normal equations with no n-sample basis.
The Gram matrix does not depend on the data: at the fundamental's angle t
its entries are n and the record sums of cos t, sin t,
cos^2 t = (1 + cos 2t) / 2, sin^2 t = (1 - cos 2t) / 2 and
cos t sin t = (sin 2t) / 2, in closed form from `signals.phasor_sums` at the
fundamental and at twice it.  The projections are block sums: with
`signals.block_phasors`, sample k = 512j + m has the angle a[j] + b[m], so
they are one (blocks x 512) @ (512 x 2) product against the in-block cos b
and sin b (a last partial block uses the ramp's first n mod 512 samples),
summed with the block-start phasors by the angle-addition formulas.  At an
integral frequency and rate each phasor stays a few ulps from the exactly
reduced angle at any record length.  The residual is formed from the
samples, block j's fit being A[j] cos b + B[j] sin b, in one n-sample buffer
that the Hann frame then reuses.  At 10 or more cycles below 0.45 fs the
Gram matrix is near diag(n, n/2, n/2), condition number at most about 2.3,
so squaring it costs no accuracy.  Binwise notching would leave window
sidelobe leakage of the fundamental in the residual, putting a floor well
above the quantization-level residuals this suite has to resolve.  Every
sample of the record is analyzed: the fit removes the fundamental at any
length (off whole cycles the harmonics leak into the fit basis, so THD+N
reads about 0.024 dB low at 10.5 cycles and within 0.0007 dB at 2850), and a
+/-3 bin Hann band holds its tone to within 0.00031 dB wherever the tone
sits in its bin (3.05e-4 dB low at half a bin), so a ratio of two bands
holds to about that.  One analysis, `measure_thd`, yields both figures.  The
harmonics read are those `harmonics_below_nyquist` names, each band below
Nyquist; with none, THD is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySignal, FundamentalNotFound, NoPeak, TruncatedResponse
from .mls import MlsConfig, generate_mls
from .signals import PHASOR_BLOCK, Signal, block_phasors, phasor_sums
from .signals import require_below_nyquist, require_positive
from .spectrum import window_samples

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
    """Nearest-sample latency from the impulse-response peak; peak_to_noise_db is
    the peak over the rms of every sample more than 8 from it."""
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


def harmonics_below_nyquist(n: int, fundamental_hz: float, fs: float) -> list[int]:
    """The harmonics `measure_thd` reads in an n-sample record: each k in 2 ..
    MAX_HARMONICS whose +/-HARMONIC_HALF_BINS rfft band lies below Nyquist."""
    top = n // 2 - HARMONIC_HALF_BINS
    return [k for k in range(2, MAX_HARMONICS + 1) if k * fundamental_hz * n / fs <= top]


def measure_thd(sig: Signal, fundamental_hz: float) -> DistortionReport:
    """THD and THD+N of `sig` against its fundamental, in dB (see module docstring)."""
    if len(sig) == 0:
        raise EmptySignal("cannot analyze an empty signal")
    x, n, fs = sig.samples, len(sig), sig.sample_rate
    require_positive("fundamental_hz", fundamental_hz)
    require_below_nyquist("fundamental", fundamental_hz, fs)
    if n * fundamental_hz < 10 * fs:
        raise ValueError("signal must span at least 10 fundamental periods")

    # Exact fundamental + DC removal (module docstring): the Gram matrix from
    # the cos and sin sums at f and 2f, the projections per block (a last
    # partial block projects on the ramp's first n % PHASOR_BLOCK samples).
    c1, s1 = phasor_sums(n, fundamental_hz, fs)
    c2, s2 = phasor_sums(n, 2.0 * fundamental_hz, fs)
    gram = [[n, c1, s1], [c1, (n + c2) / 2.0, s2 / 2.0], [s1, s2 / 2.0, (n - c2) / 2.0]]
    cos_a, sin_a, cos_b, sin_b = block_phasors(n, fundamental_hz, fs)
    ramp = np.stack([cos_b, sin_b])
    full, part = divmod(n, PHASOR_BLOCK)
    proj = np.empty((len(cos_a), 2))
    proj[:full] = x[: full * PHASOR_BLOCK].reshape(full, len(cos_b)) @ ramp.T
    proj[full:] = x[full * PHASOR_BLOCK :] @ ramp[:, :part].T
    xc, xs = proj.T
    # cos(a + b) = cos a cos b - sin a sin b, sin(a + b) = sin a cos b + cos a sin b
    coef = np.linalg.solve(gram, [x.sum(), cos_a @ xc - sin_a @ xs, sin_a @ xc + cos_a @ xs])
    # The residual x - coef[0] - [A B] @ ramp is formed from the samples
    # (|x|^2 - coef.b would cancel away a pure sine's floor), in one n-sample
    # buffer; x is the caller's and is only read.
    a_amp = coef[1] * cos_a + coef[2] * sin_a
    b_amp = coef[2] * cos_a - coef[1] * sin_a
    residual = (np.stack([a_amp, b_amp], axis=1) @ ramp).ravel()[:n]
    residual += coef[0]
    np.subtract(x, residual, out=residual)
    p1_fit = (coef[1] ** 2 + coef[2] ** 2) / 2.0
    if p1_fit <= 0.0:
        raise FundamentalNotFound("no energy at the stated fundamental")
    mean_square = float(np.mean(np.square(residual, out=residual)))
    thdn_db = 10.0 * np.log10(max(mean_square, _FLOOR) / p1_fit)

    # Harmonic bands of one Hann-windowed spectrum, raw |X|^2: the bands are
    # used only in ratios, so no scaling is applied.  The frame reuses the
    # residual's buffer.
    frame = np.subtract(x, x.mean(), out=residual)
    frame *= window_samples(n)
    z = np.fft.rfft(frame)
    powers = z.real**2 + z.imag**2

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
    for k in harmonics_below_nyquist(n, fundamental_hz, fs):
        p_k = band(int(round(k * fundamental_hz * n / fs)))
        harmonic_power += p_k
        harmonic_levels.append((k, 10.0 * np.log10(max(p_k, _FLOOR) / p1_band)))
    ratio = max(harmonic_power, _FLOOR) / p1_band  # floor: bands present, all zero
    thd_db = 10.0 * np.log10(ratio) if harmonic_levels else -np.inf  # none below Nyquist

    return DistortionReport(
        fundamental_hz=fundamental_hz,
        fundamental_power_dbv=10.0 * np.log10(p1_fit),
        thd_db=float(thd_db),
        thdn_db=float(thdn_db),
        harmonic_levels=tuple(harmonic_levels),
    )
