"""The 16-bit converters' transfer (`quantize_uniform` and `dequantize` on a
`QuantizerSpec`, which keeps only its full scale), signed 16-bit mapping, and
the one code-range rule, `QuantizerSpec.checked_codes`, that every code
reader runs.  Both conversions round half to even (`np.rint`, IEEE 754's
roundTiesToEven), the package's one rounding rule, which
`signals.latency_samples` follows too."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidCode
from .signals import require_positive

INT16_MAX = 32767.0


def int16_codes(x):
    """Round code-unit values to signed 16-bit codes, saturating at the rails.

    Ties go to the even code and the result is clipped to [-32768, 32767]; it
    stays a float array so callers can keep working in code units.  Volts
    map onto code units as volts / full_scale * INT16_MAX.
    """
    return np.clip(np.rint(x), -INT16_MAX - 1.0, INT16_MAX)


def int16_volts(codes, full_scale: float = 1.0):
    """Map signed 16-bit codes to volts: +/-32767 reads as +/-full_scale."""
    return codes / INT16_MAX * full_scale


@dataclass(frozen=True)
class QuantizerSpec:
    """Full scale of one 16-bit converter.

    Codes 0 .. max_code map linearly onto [0, v_max] with both endpoints
    representable, so the step is v_max / max_code.
    """

    max_code: ClassVar[int] = 65535
    v_max: float

    def __post_init__(self):
        require_positive("v_max", self.v_max)

    @property
    def lsb(self) -> float:
        return self.v_max / self.max_code

    def checked_codes(self, code) -> np.ndarray:
        """code as an array; InvalidCode unless every code is in [0, max_code]."""
        codes = np.asarray(code)
        if codes.size and (codes.min() < 0 or codes.max() > self.max_code):
            raise InvalidCode(f"codes [{codes.min()}, {codes.max()}] outside [0, {self.max_code}]")
        return codes


def quantize_uniform(v, spec: QuantizerSpec):
    """Convert volts to integer codes, saturating at the rails, bit-deterministically.

    No noise is added here: `adcdac` draws its pin noise before it quantizes.

    Returns an int64 array of the input's shape.
    """
    v = np.asarray(v, dtype=np.float64)
    scaled = v / spec.v_max * spec.max_code
    return np.clip(np.rint(scaled), 0, spec.max_code).astype(np.int64)


def dequantize(code, spec: QuantizerSpec):
    """Volts of integer codes, an array of the input's shape; rejects out-of-range codes."""
    codes = spec.checked_codes(code)
    return codes.astype(np.float64) * spec.v_max / spec.max_code
