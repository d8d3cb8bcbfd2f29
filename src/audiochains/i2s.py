"""Block-buffered codec chain: signed 16-bit codes through a user callback.

The codec quantizes the line input to signed 16-bit data (full scale
+/-`FULL_SCALE_VOLTS` = +/-1 V maps to +/-32767), the processor callback
sees those values scaled by 1/65535 -- roughly [-0.5, 0.5], not [-1, 1) --
and its output is scaled back by 65535 and re-quantized.  That asymmetric
scaling is reproduced faithfully rather than "fixed".  A pair fed one
`Signal` is distorted once, in the shared `signals.input_stage`; given an
rng, each channel then draws the noise floor `I2S_NOISE_FLOOR_RMS`, the
input noise that `THD_DB` and `THDN_DB` imply at `signals.CALIBRATION_VRMS`.
Without a right input the chain runs the left channel alone, bit for bit the
left of a stereo run; every CLI row that does not write the stereo WAV,
latency rows included, runs the left channel alone.

The callback is a pure per-sample function, so splitting the signal into
blocks cannot change its output: the simulation hands it the whole signal
in one call, and the block size sets only the latency.  The codec's ADC
converts each pin slice as `input_stage` draws it, so no record-length pin
exists; the DAC converts per slice (`signals.delayed_slices`).

The chain latency, `BlockPipelineConfig.latency`, is PIPELINE_BLOCK_COUNT *
block_samples/fs + FIXED_DELAY.  The two constants (3.0 blocks, 536 us) are
a least-squares fit of the four characterized block sizes; the residual is
attributed to codec group delay.  It is applied as a whole-sample delay
(`signals.latency_samples`, ties to even), not interpolated.  A
config whose latency in samples leaves the float range raises OverflowError;
the CLI, not the config, warns about a block outside `STANDARD_BLOCK_SIZES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distortion import PolynomialDistortion
from .errors import ShapeMismatch
from .quantize import INT16_MAX, int16_codes, int16_volts
from .signals import CALIBRATION_VRMS, Signal, delayed_slices, input_stage, latency_samples
from .signals import require_positive

CONVERSION_ADC = 1.0 / 65535.0
CONVERSION_DAC = 65535.0
FULL_SCALE_VOLTS = 1.0

STANDARD_BLOCK_SIZES = (16, 32, 64, 128)
PIPELINE_BLOCK_COUNT = 3.0
FIXED_DELAY = 536e-6

# Characterized THD and THD+N at 1 kHz.  THD_DB calibrates the distortion; the
# noise floor, rms volts per channel at the line input, is the power THD+N adds
# to it at CALIBRATION_VRMS.
THD_DB = -80.0
THDN_DB = -68.0
I2S_NOISE_FLOOR_RMS = CALIBRATION_VRMS * math.sqrt(10 ** (THDN_DB / 10) - 10 ** (THD_DB / 10))

BlockProcessor = Callable[..., tuple[np.ndarray, ...]]


def passthrough(*channels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Identity processor: output sample equals input sample, per channel."""
    return channels


@dataclass(frozen=True)
class BlockPipelineConfig:
    block_samples: int = 128
    sample_rate: float = 44100.0
    distortion: PolynomialDistortion | None = None

    def __post_init__(self):
        b = self.block_samples
        if b < 1 or b & (b - 1):
            raise ValueError("block_samples must be a power of two")
        require_positive("sample_rate", self.sample_rate)
        latency_samples(self.latency, self.sample_rate)  # OverflowError beyond the float range

    @property
    def latency(self) -> float:
        """PIPELINE_BLOCK_COUNT * block/fs + FIXED_DELAY, in seconds."""
        return PIPELINE_BLOCK_COUNT * self.block_samples / self.sample_rate + FIXED_DELAY


def run_block_pipeline(
    input_left: Signal,
    input_right: Signal | None,
    cfg: BlockPipelineConfig,
    proc: BlockProcessor = passthrough,
    rng: np.random.Generator | None = None,
) -> tuple[Signal, ...]:
    """Drive the block pipeline and return its delayed outputs: (left, right),
    or with input_right None (left,), bit for bit the left of a stereo call.

    Distortion, then the noise floor `I2S_NOISE_FLOOR_RMS`, act before the
    codec ADC in `input_stage`: one Signal on both inputs is distorted once,
    and the noise is drawn per channel, left first, a slice at a time as the
    ADC converts, given an rng (rng=None runs noiseless and draws nothing).  The pure
    per-sample callback proc is called once with each channel's whole signal
    and must return one output per channel and input sample.
    """

    def adc(volts):  # the codec's signed 16-bit codes, as the callback sees them
        return int16_codes(volts / FULL_SCALE_VOLTS * INT16_MAX) * CONVERSION_ADC

    def dac(values):  # the callback's values, scaled back and re-quantized
        return int16_volts(int16_codes(values * CONVERSION_DAC), FULL_SCALE_VOLTS)

    shape = cfg.distortion.apply if cfg.distortion is not None else (lambda x: x)
    codes = input_stage(input_left, input_right, cfg.sample_rate, shape, I2S_NOISE_FLOOR_RMS,
                        rng, adc)
    results = proc(*codes)
    if len(results) != len(codes):
        raise ShapeMismatch("processor must return one output per channel")
    delay = latency_samples(cfg.latency, cfg.sample_rate)
    outputs = []
    for res in results:
        res = np.asarray(res, dtype=np.float64)
        if res.shape != input_left.samples.shape:
            raise ShapeMismatch("processor must return one output per input sample")
        outputs.append(Signal(delayed_slices(dac, delay, res), cfg.sample_rate))
    return tuple(outputs)
