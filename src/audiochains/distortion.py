"""Memoryless weak distortion of both chains: the cubic term their 3rd-harmonic THD calibrates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideWeakRegime
from .signals import require_positive

WEAK_REGIME_LIMIT_DB = -40.0


@dataclass(frozen=True)
class PolynomialDistortion:
    """y = x + a3*x**3, x in volts normalized to 1 V."""

    a3: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.a3 * x * x * x


def calibrate_distortion(target_hd3_db: float, peak_amplitude: float) -> PolynomialDistortion:
    """The coefficient that puts the 3rd harmonic at the target level.

    For x = A*sin(wt), sin^3 = (3 sin - sin 3wt)/4 gives a 3rd harmonic of
    a3*A^3/4, so a3 = 4 * 10**(hd3/20) / A**2, hd3 being the level relative
    to the fundamental.  A target that is not at or below
    WEAK_REGIME_LIMIT_DB, NaN included, raises OutsideWeakRegime: the one
    weak-regime rule, which bounds a3*A^2 at 0.04 for any A.
    """
    require_positive("peak_amplitude", peak_amplitude)
    if not target_hd3_db <= WEAK_REGIME_LIMIT_DB:
        raise OutsideWeakRegime(
            f"harmonic target {target_hd3_db} dB is not at or below {WEAK_REGIME_LIMIT_DB} dB"
        )
    return PolynomialDistortion(a3=4.0 * 10.0 ** (target_hd3_db / 20.0) / peak_amplitude ** 2)
