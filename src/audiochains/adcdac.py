"""Sample-at-a-time chain: SAR ADCs, per-sample arithmetic, external SPI DAC.

Every input sample is one conversion tick: the two channels are conditioned
(`front_end_filter`, in the shared `signals.input_stage`: a pair fed one
`Signal` is distorted and filtered once, the noise after it is still drawn
per channel) and quantized (`ADC_SPEC`, 16 bits over 0-3.3 V, ENOB-13
noise on by default), combined by the fixed per-sample arithmetic, framed
as two SPI bytes MSB first (`spi_encode`/`spi_decode`), and reconstructed
by the 16-bit DAC (`DAC_SPEC`, 0-2.5 V).  The DAC output keeps its
`DAC_OFFSET` = +1.25 V standing offset (the measurement side AC-couples),
and the chain latency `predicted_sample_latency` -- the per-speed
`CONVERSION_TIME` plus the `SPI_TRANSFER_TIME` of one 16-bit frame at
50 MHz -- is applied as a whole-sample delay at the simulation rate.

The per-sample arithmetic subtracts `ADC_OFFSET` = 1.625 V although the
hardware bias (`frontend.BIAS_VOLTAGE`) is 1.65 V; the two constants
are kept separate so the 25 mV systematic offset stays observable.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .distortion import PolynomialDistortion
from .errors import InvalidCode, RealtimeFeasibilityWarning
from .frontend import check_damage, front_end_filter
from .quantize import QuantizerSpec, dequantize, quantize_uniform, round_half_away
from .signals import Signal, delay_samples, input_stage

SPI_TRANSFER_TIME = 16 / 50e6  # one 16-bit frame at the 50 MHz SPI clock
ADC_OFFSET = 1.625  # subtracted by the per-sample arithmetic
DAC_OFFSET = 1.25  # added back before the DAC
ADC_SPEC = QuantizerSpec(bits=16, v_min=0.0, v_max=3.3, enob=13.0)
DAC_SPEC = QuantizerSpec(bits=16, v_min=0.0, v_max=2.5)

# Lumped conditioning-stage noise, rms volts per channel.  Calibrated from
# noise-power accounting so the default chain at 1 kHz / 0.5 Vrms reads
# THD+N = -63 dB once the -76 dB distortion and ENOB-13 noise are in:
#   sigma^2 = 2 * (0.25 * (10**-6.3 - 10**-7.6) - enob_noise_rms**2 / 2)
CONDITIONING_NOISE_RMS = 4.7404575629334364e-04


class SamplingSpeed(enum.Enum):
    LOW_SPEED = "LOW_SPEED"
    HIGH_SPEED = "HIGH_SPEED"


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
    adc_spec: QuantizerSpec = ADC_SPEC
    distortion: PolynomialDistortion | None = None
    conditioning_noise_rms: float = CONDITIONING_NOISE_RMS

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.conditioning_noise_rms < 0:
            raise ValueError("conditioning_noise_rms must be non-negative")
        if not self.realtime_feasible:
            warnings.warn(
                f"{self.sample_rate:.0f} Hz cannot be sustained: one conversion "
                f"plus SPI transfer takes {predicted_sample_latency(self) * 1e6:.2f} us",
                RealtimeFeasibilityWarning,
                stacklevel=3,  # past the dataclass-generated __init__
            )

    @property
    def realtime_feasible(self) -> bool:
        return self.sample_rate * predicted_sample_latency(self) < 1.0


def predicted_sample_latency(cfg: SampleChainConfig) -> float:
    """Conversion (processing folded in) + SPI transfer, in seconds."""
    return CONVERSION_TIME[cfg.sampling_speed] + SPI_TRANSFER_TIME


def spi_encode(dac_codes) -> bytes:
    """Wire bytes of one or more 16-bit DAC codes: two per code, MSB first."""
    codes = np.asarray(dac_codes)
    if codes.size and (codes.min() < 0 or codes.max() > 0xFFFF):
        raise InvalidCode(f"DAC codes [{codes.min()}, {codes.max()}] outside [0, 65535]")
    return codes.astype(">u2").tobytes()


def spi_decode(wire: bytes) -> np.ndarray:
    """DAC codes from MSB-first wire bytes, the inverse of `spi_encode`."""
    return np.frombuffer(wire, ">u2").astype(np.int64)


def process_sample(code0: int, code1: int, cfg: SampleChainConfig) -> tuple[int, bool]:
    """Per-tick arithmetic from two ADC codes to one DAC code.

    Each input is converted to volts minus the nominal offset, the outputs
    are averaged, and the result is re-offset and scaled to the DAC range.
    Overflow saturates (with the clipped flag) instead of reproducing the
    undefined float-to-unsigned conversion of the reference arithmetic.
    """
    for code in (code0, code1):
        if not 0 <= code <= cfg.adc_spec.max_code:
            raise InvalidCode(f"ADC code {code} outside [0, {cfg.adc_spec.max_code}]")
    codes, clipped = _process_sample_arrays(
        np.asarray([code0]), np.asarray([code1]), cfg
    )
    return int(codes[0]), bool(clipped[0])


def _process_sample_arrays(codes0, codes1, cfg: SampleChainConfig):
    adc_step = (cfg.adc_spec.v_max - cfg.adc_spec.v_min) / cfg.adc_spec.max_code
    in0 = cfg.adc_spec.v_min + codes0 * adc_step - ADC_OFFSET
    in1 = cfg.adc_spec.v_min + codes1 * adc_step - ADC_OFFSET
    out = 0.5 * in0 + 0.5 * in1
    dac_scale = DAC_SPEC.max_code / (DAC_SPEC.v_max - DAC_SPEC.v_min)
    raw = round_half_away((out + DAC_OFFSET) * dac_scale)
    clipped = (raw < 0) | (raw > DAC_SPEC.max_code)
    codes = np.clip(raw, 0, DAC_SPEC.max_code).astype(np.int64)
    return codes, clipped


def run_sample_pipeline(
    in0: Signal,
    in1: Signal,
    cfg: SampleChainConfig,
    rng: np.random.Generator | None = None,
    *,
    front_end: bool = True,
) -> Signal:
    """Drive the two-channel sample chain and return the DAC output signal.

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

    pins = input_stage(in0, in1, cfg.sample_rate, condition, cfg.conditioning_noise_rms, rng)
    codes0, codes1 = (quantize_uniform(x, cfg.adc_spec, rng) for x in pins)
    dac_codes, _ = _process_sample_arrays(codes0, codes1, cfg)
    out = dequantize(spi_decode(spi_encode(dac_codes)), DAC_SPEC)
    delay = int(round_half_away(predicted_sample_latency(cfg) * cfg.sample_rate))
    return Signal(delay_samples(out, delay), cfg.sample_rate)
