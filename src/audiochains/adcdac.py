"""Sample-at-a-time chain: SAR ADCs, per-sample arithmetic, external SPI DAC.

Every input sample is one conversion tick: the two channels are conditioned
(`front_end_filter`, in the shared `signals.input_stage`: a pair fed one
`Signal` is distorted and filtered once, the noise after it is still drawn
per channel) and quantized (`ADC_SPEC`, 16 bits over 0-3.3 V, ENOB 13),
combined by the fixed per-sample arithmetic, framed as two SPI bytes MSB
first (`spi_encode`/`spi_decode`), and reconstructed by the 16-bit DAC
(`DAC_SPEC`, 0-2.5 V).  Both noises, `CONDITIONING_NOISE_RMS` and the
ADC's ENOB noise, are drawn when the pipeline is given an rng; without one
the chain is its deterministic transfer.  The DAC output keeps its
`DAC_OFFSET` = +1.25 V standing offset (the measurement side AC-couples),
and the chain latency `SampleChainConfig.latency` -- the per-speed
`CONVERSION_TIME` plus the `SPI_TRANSFER_TIME` of one 16-bit frame at
50 MHz -- is applied as a whole-sample delay (`signals.latency_samples`)
at the simulation rate.  `SampleChainConfig.realtime_feasible` tells whether
it fits a sample period and never warns: the CLI warns at hardware rates.
A code outside its spec raises InvalidCode (`QuantizerSpec.checked_codes`).

The per-sample arithmetic subtracts `ADC_OFFSET` = 1.625 V although the
hardware bias (`frontend.BIAS_VOLTAGE`) is 1.65 V; the two constants
are kept separate so the 25 mV systematic offset stays observable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .distortion import PolynomialDistortion
from .frontend import check_damage, front_end_filter
from .quantize import QuantizerSpec, dequantize, quantize_uniform, round_half_away
from .signals import Signal, delay_samples, input_stage, latency_samples, require_positive

SPI_TRANSFER_TIME = 16 / 50e6  # one 16-bit frame at the 50 MHz SPI clock
ADC_OFFSET = 1.625  # subtracted by the per-sample arithmetic
DAC_OFFSET = 1.25  # added back before the DAC
ADC_SPEC = QuantizerSpec(bits=16, v_min=0.0, v_max=3.3, enob=13.0)
DAC_SPEC = QuantizerSpec(bits=16, v_min=0.0, v_max=2.5)


class SamplingSpeed(enum.Enum):
    LOW_SPEED = "LOW_SPEED"
    HIGH_SPEED = "HIGH_SPEED"


# Characterized THD per speed: the distortion polynomial's calibration target.
THD_DB = {SamplingSpeed.LOW_SPEED: -76.0, SamplingSpeed.HIGH_SPEED: -67.0}
# Lumped conditioning-stage noise, rms volts per channel.  Calibrated from
# noise-power accounting so the default (LOW_SPEED) chain at 1 kHz / 0.5 Vrms
# reads THD+N = -63 dB once the -76 dB distortion and ENOB-13 noise are in:
#   sigma^2 = 2 * (0.25 * (10**-6.3 - 10**-7.6) - enob_noise_rms**2 / 2)
CONDITIONING_NOISE_RMS = 4.7404575629334364e-04

# Conversion time per speed: table latency minus the 0.32 us SPI transfer,
# with the (unpublished) processing share folded in.
CONVERSION_TIME = {
    SamplingSpeed.LOW_SPEED: 11.68e-6,
    SamplingSpeed.HIGH_SPEED: 9.28e-6,
}


@dataclass(frozen=True)
class SampleChainConfig:
    sample_rate: float = 96000.0
    sampling_speed: SamplingSpeed = SamplingSpeed.LOW_SPEED
    distortion: PolynomialDistortion | None = None

    def __post_init__(self):
        require_positive("sample_rate", self.sample_rate)

    @property
    def latency(self) -> float:
        """Conversion (processing folded in) + SPI transfer, in seconds."""
        return CONVERSION_TIME[self.sampling_speed] + SPI_TRANSFER_TIME

    @property
    def realtime_feasible(self) -> bool:
        """Whether one conversion plus SPI transfer fits a sample period."""
        return self.sample_rate * self.latency < 1.0


def spi_encode(dac_codes) -> bytes:
    """Wire bytes of one or more 16-bit DAC codes: two per code, MSB first."""
    return DAC_SPEC.checked_codes(dac_codes).astype(">u2").tobytes()


def spi_decode(wire: bytes) -> np.ndarray:
    """DAC codes from MSB-first wire bytes, the inverse of `spi_encode`."""
    return np.frombuffer(wire, ">u2").astype(np.int64)


def process_sample(code0, code1):
    """The per-sample arithmetic from two ADC codes to one DAC code, for one
    tick (two codes) or a whole record (two code arrays): returns the DAC
    codes and clipped flags shaped like the input, numpy scalars for a tick.

    Each input is converted to volts minus the nominal offset, the outputs
    are averaged, and the result is re-offset and scaled to the DAC range.
    Overflow saturates (with the clipped flag) instead of reproducing the
    undefined float-to-unsigned conversion of the reference arithmetic.
    """
    spec = ADC_SPEC
    code0, code1 = spec.checked_codes(code0), spec.checked_codes(code1)
    in0 = spec.v_min + code0 * spec.lsb - ADC_OFFSET
    in1 = spec.v_min + code1 * spec.lsb - ADC_OFFSET
    out = 0.5 * in0 + 0.5 * in1
    dac_scale = DAC_SPEC.max_code / (DAC_SPEC.v_max - DAC_SPEC.v_min)
    raw = round_half_away((out + DAC_OFFSET) * dac_scale)
    clipped = (raw < 0) | (raw > DAC_SPEC.max_code)
    return np.clip(raw, 0, DAC_SPEC.max_code).astype(np.int64), clipped


def run_sample_pipeline(
    in0: Signal,
    in1: Signal,
    cfg: SampleChainConfig,
    rng: np.random.Generator | None = None,
    *,
    front_end: bool = True,
) -> Signal:
    """Drive the two-channel sample chain and return the DAC output signal.

    With an rng the conditioning noise and then the ADC's ENOB noise are
    drawn; rng=None runs the chain noiseless and consumes no randomness.
    front_end=False bypasses the analog conditioning (the inputs are then
    taken as the pin voltages directly and checked against the damage
    window); useful for measuring the sampling chain's own latency without
    the conditioning filter's group delay, which the calibrated conversion
    time already accounts for.
    """

    def condition(x: np.ndarray) -> np.ndarray:
        x = x if cfg.distortion is None else cfg.distortion.apply(x)
        if front_end:
            return front_end_filter(Signal(x, cfg.sample_rate)).samples
        check_damage(x)
        return x

    pins = input_stage(in0, in1, cfg.sample_rate, condition, CONDITIONING_NOISE_RMS, rng)
    codes0, codes1 = (quantize_uniform(x, ADC_SPEC, rng) for x in pins)
    dac_codes, _ = process_sample(codes0, codes1)
    out = dequantize(spi_decode(spi_encode(dac_codes)), DAC_SPEC)
    delay = latency_samples(cfg.latency, cfg.sample_rate)
    return Signal(delay_samples(out, delay), cfg.sample_rate)
