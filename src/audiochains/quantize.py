"""Uniform quantizer with an effective-number-of-bits noise model, and the one
code-range rule, `QuantizerSpec.checked_codes`, that every code reader runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCode


def round_half_away(x):
    """Round to the nearest integer with ties away from zero.

    np.round ties to even; the converter model needs a fixed directional
    rule so code values are reproducible bit for bit.  Equal, signed zeros
    included, to sign(x) * floor(|x| + 0.5); -0.0 takes +0.5 and gives +0.0.
    """
    return np.trunc(x + (0.5 - (x < 0)))


INT16_MAX = 32767.0


def int16_codes(x):
    """Round code-unit values to signed 16-bit codes, saturating at the rails.

    Ties go away from zero and the result is clipped to [-32768, 32767]; it
    stays a float array so callers can keep working in code units.  Volts
    map onto code units as volts / full_scale * INT16_MAX.
    """
    return np.clip(round_half_away(x), -INT16_MAX - 1.0, INT16_MAX)


def int16_volts(codes, full_scale: float = 1.0):
    """Map signed 16-bit codes to volts: +/-32767 reads as +/-full_scale."""
    return codes / INT16_MAX * full_scale


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit depth, full-scale range and optional ENOB of one converter.

    Codes 0 .. 2**bits - 1 map linearly onto [v_min, v_max] with both
    endpoints representable, so the step is (v_max - v_min) / (2**bits - 1).
    """

    bits: int
    v_min: float
    v_max: float
    enob: float | None = None

    def __post_init__(self):
        if not 1 <= self.bits <= 32:
            raise ValueError("bits must be in [1, 32]")
        if not self.v_max > self.v_min:
            raise ValueError("v_max must exceed v_min")
        if self.enob is not None and not 0.0 < self.enob <= self.bits:
            raise ValueError("enob must be in (0, bits]")

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1

    @property
    def lsb(self) -> float:
        return (self.v_max - self.v_min) / self.max_code

    def checked_codes(self, code) -> np.ndarray:
        """code as an array; InvalidCode unless every code is in [0, max_code]."""
        codes = np.asarray(code)
        if codes.size and (codes.min() < 0 or codes.max() > self.max_code):
            raise InvalidCode(f"codes [{codes.min()}, {codes.max()}] outside [0, {self.max_code}]")
        return codes

    def noise_rms(self) -> float:
        """Input-referred Gaussian noise rms implied by the ENOB.

        Sized so a full-scale sine through the quantizer reads
        SINAD = 6.02 * enob + 1.76 dB (within a millidecibel; the step-based
        form is used so enob == bits yields exactly zero noise).
        """
        if self.enob is None:
            return 0.0
        span = self.v_max - self.v_min
        q_eff = span / (2.0 ** self.enob - 1.0)
        q_raw = span / self.max_code
        return math.sqrt(max(q_eff * q_eff - q_raw * q_raw, 0.0) / 12.0)


def quantize_uniform(v, spec: QuantizerSpec, rng: np.random.Generator | None = None):
    """Convert volts to integer codes, saturating at the rails.

    With an rng and an ENOB below bits the calibrated Gaussian noise is
    added first; without either the conversion is bit-deterministic and no
    random numbers are consumed.

    Returns an int64 array of the input's shape.
    """
    v = np.asarray(v, dtype=np.float64)
    sigma = spec.noise_rms()
    if sigma > 0.0 and rng is not None:
        v = v + rng.normal(0.0, sigma, size=v.shape)
    scaled = (v - spec.v_min) / (spec.v_max - spec.v_min) * spec.max_code
    return np.clip(round_half_away(scaled), 0, spec.max_code).astype(np.int64)


def dequantize(code, spec: QuantizerSpec):
    """Volts of integer codes, an array of the input's shape; rejects out-of-range codes."""
    codes = spec.checked_codes(code)
    return spec.v_min + codes.astype(np.float64) * (spec.v_max - spec.v_min) / spec.max_code
