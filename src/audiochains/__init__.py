"""Simulation and characterization of two real-time audio I/O chains.

The package models a block-buffered codec pipeline and a sample-at-a-time
ADC/DAC pipeline, and measures both with the same instruments: MLS
impulse-response latency, THD, THD+N and power spectra.
"""

from .adcdac import (
    CONDITIONING_NOISE_RMS,
    CONVERSION_TIME,
    SampleChainConfig,
    SamplingSpeed,
    predicted_sample_latency,
    process_sample,
    run_sample_pipeline,
    spi_decode,
    spi_encode,
)
from .distortion import PolynomialDistortion, calibrate_distortion
from .errors import (
    AliasedStimulus,
    AudioChainError,
    DamageVoltage,
    EmptySignal,
    FundamentalNotFound,
    InvalidCode,
    NoPeak,
    NonStandardBlockSizeWarning,
    OutsideWeakRegime,
    RealtimeFeasibilityWarning,
    ShapeMismatch,
    TruncatedResponse,
    UnsupportedOrder,
    UnsupportedWav,
)
from .frontend import check_damage, front_end_filter
from .i2s import (
    CONVERSION_ADC,
    CONVERSION_DAC,
    I2S_NOISE_FLOOR_RMS,
    BlockPipelineConfig,
    BlockProcessor,
    passthrough,
    predicted_latency,
    run_block_pipeline,
)
from .measure import (
    DistortionReport,
    LatencyReport,
    estimate_latency,
    measure_impulse_response,
    measure_thd,
    measure_thdn,
)
from .mls import PRIMITIVE_TAPS, MlsConfig, generate_mls
from .quantize import QuantizerSpec, dequantize, quantize_uniform, round_half_away
from .signals import Signal, generate_sine
from .spectrum import Spectrum, power_spectrum
from .wavio import read_wav, write_wav

__version__ = "0.1.0"
