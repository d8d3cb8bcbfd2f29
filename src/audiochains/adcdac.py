"""Sample-at-a-time chain: SAR ADCs, per-sample arithmetic, external SPI DAC.

Every input sample is one conversion tick: the two channels are conditioned
(`front_end_filter`, in the shared `signals.input_stage`: a pair fed one
`Signal` is distorted and filtered once, the noise after it is still drawn
per channel), quantized there one pin slice at a time (`ADC_SPEC`, 16 bits
over 0-3.3 V; no record-length pin exists), combined by the fixed per-sample
arithmetic and reconstructed by the 16-bit DAC (`DAC_SPEC`, 0-2.5 V), slice by
slice (`signals.delayed_slices`).  The SPI frame between them is the wire
format `spi_encode`/`spi_decode`, an identity on valid codes that the pipeline
does not run.  Given an rng, each channel draws one Gaussian, the speed's
`PIN_NOISE_RMS`, slice by slice: the noise its `THD_DB` and `THDN_DB` imply at
`signals.CALIBRATION_VRMS`.  Without one the chain is its deterministic transfer.
The DAC output keeps its `DAC_OFFSET` = +1.25 V standing offset (the
measurement side AC-couples), and the chain latency `SampleChainConfig.latency`
-- the per-speed `CONVERSION_TIME` plus the `SPI_TRANSFER_TIME` of one 16-bit
frame at 50 MHz -- is applied as a whole-sample delay (`signals.latency_samples`)
at the simulation rate.  `SampleChainConfig.realtime_feasible` tells whether
it fits a sample period and never warns: the CLI warns at hardware rates.
A code outside its spec raises InvalidCode (`QuantizerSpec.checked_codes`).

The per-sample arithmetic subtracts `ADC_OFFSET` = 1.625 V although the
hardware bias (`frontend.BIAS_VOLTAGE`) is 1.65 V; the two constants
are kept separate so the 25 mV systematic offset stays observable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distortion import PolynomialDistortion
from .frontend import check_damage, front_end_filter
from .quantize import QuantizerSpec, dequantize, quantize_uniform
from .signals import CALIBRATION_VRMS, Signal, delayed_slices, input_stage, latency_samples
from .signals import require_positive

SPI_TRANSFER_TIME = 16 / 50e6  # one 16-bit frame at the 50 MHz SPI clock
ADC_OFFSET = 1.625  # subtracted by the per-sample arithmetic
DAC_OFFSET = 1.25  # added back before the DAC
ADC_SPEC = QuantizerSpec(v_max=3.3)
DAC_SPEC = QuantizerSpec(v_max=2.5)


class SamplingSpeed(enum.Enum):
    LOW_SPEED = "LOW_SPEED"
    HIGH_SPEED = "HIGH_SPEED"


# Characterized THD per speed: the distortion polynomial's calibration target.
THD_DB = {SamplingSpeed.LOW_SPEED: -76.0, SamplingSpeed.HIGH_SPEED: -67.0}
# Characterized THD+N per speed.  Each pin draws the noise, rms volts, whose
# power THD+N adds to THD at CALIBRATION_VRMS, twice over: the output
# averages the two pins, which halves their independent noise power.
THDN_DB = {SamplingSpeed.LOW_SPEED: -63.0, SamplingSpeed.HIGH_SPEED: -61.0}
PIN_NOISE_RMS = {
    s: CALIBRATION_VRMS * math.sqrt(2 * (10 ** (THDN_DB[s] / 10) - 10 ** (THD_DB[s] / 10)))
    for s in SamplingSpeed
}

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
    """The board's SPI wire bytes of 16-bit DAC codes, two per code MSB first;
    an identity round trip with `spi_decode`, so the pipeline does not run it."""
    return DAC_SPEC.checked_codes(dac_codes).astype(">u2").tobytes()


def spi_decode(wire: bytes) -> np.ndarray:
    """DAC codes from MSB-first wire bytes, the inverse of `spi_encode`."""
    return np.frombuffer(wire, ">u2").astype(np.int64)


def process_sample(code0, code1):
    """The per-sample arithmetic from two ADC codes to one DAC code, for one
    tick (two codes) or a whole record (two code arrays): returns the DAC
    codes and clipped flags shaped like the input, numpy scalars for a tick.

    Each ADC code is converted to volts (`dequantize`, which rejects a code
    outside `ADC_SPEC`); the mean of the two, less `ADC_OFFSET` and plus
    `DAC_OFFSET` taken as one constant, is converted to a DAC code
    (`quantize_uniform`).  Overflow saturates (with the clipped flag: the
    DAC input lies more than half an LSB outside [0, `DAC_SPEC.v_max`])
    instead of reproducing the undefined float-to-unsigned conversion of
    the reference arithmetic.
    """
    volts = dequantize(code0, ADC_SPEC) + dequantize(code1, ADC_SPEC)
    out = 0.5 * volts + (DAC_OFFSET - ADC_OFFSET)
    half = DAC_SPEC.lsb / 2
    clipped = (out < -half) | (out > DAC_SPEC.v_max + half)
    return quantize_uniform(out, DAC_SPEC), clipped


def run_sample_pipeline(
    in0: Signal,
    in1: Signal,
    cfg: SampleChainConfig,
    rng: np.random.Generator | None = None,
    *,
    front_end: bool = True,
) -> Signal:
    """Drive the two-channel sample chain and return the DAC output signal.

    With an rng each channel draws one Gaussian of its speed's `PIN_NOISE_RMS`, slice by
    slice as its ADC converts; rng=None runs the chain noiseless and draws nothing.
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

    noise_rms = PIN_NOISE_RMS[cfg.sampling_speed]
    adc_codes = input_stage(in0, in1, cfg.sample_rate, condition, noise_rms, rng,
                            lambda volts: quantize_uniform(volts, ADC_SPEC))

    def convert(*codes: np.ndarray) -> np.ndarray:
        return dequantize(process_sample(*codes)[0], DAC_SPEC)

    delay = latency_samples(cfg.latency, cfg.sample_rate)
    return Signal(delayed_slices(convert, delay, *adc_codes), cfg.sample_rate)
