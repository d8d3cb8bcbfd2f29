"""Memoryless weak-distortion model shared by both simulated chains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideWeakRegime
from .signals import require_positive

WEAK_REGIME_LIMIT_DB = -40.0


@dataclass(frozen=True)
class PolynomialDistortion:
    """y = x + a2*x**2 + a3*x**3, x in volts normalized to 1 V.

    Coefficients are restricted to the weak-distortion regime so the
    harmonic amplitudes follow the small-signal trig identities.
    """

    a2: float = 0.0
    a3: float = 0.0

    def __post_init__(self):
        if not (abs(self.a2) < 0.1 and abs(self.a3) < 0.1):
            raise ValueError("|a2| and |a3| must be below 0.1 (weak distortion)")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.a2 * x * x + self.a3 * x * x * x


def calibrate_distortion(
    target_hd2_db: float | None = None,
    target_hd3_db: float | None = None,
    peak_amplitude: float = 1.0,
) -> PolynomialDistortion:
    """Coefficients that put the 2nd/3rd harmonic at the target level.

    For x = A*sin(wt):  sin^2 = (1 - cos 2wt)/2 gives a 2nd harmonic of
    a2*A^2/2, and sin^3 = (3 sin - sin 3wt)/4 gives a 3rd harmonic of
    a3*A^3/4, so

        a2 = 2 * 10**(hd2/20) / A        a3 = 4 * 10**(hd3/20) / A**2

    where hd2/hd3 are levels relative to the fundamental.  An absent
    target leaves the coefficient at zero.
    """
    require_positive("peak_amplitude", peak_amplitude)
    for target in (target_hd2_db, target_hd3_db):
        if target is not None and target > WEAK_REGIME_LIMIT_DB:
            raise OutsideWeakRegime(
                f"harmonic target {target} dB is above {WEAK_REGIME_LIMIT_DB} dB"
            )
    a2 = 0.0 if target_hd2_db is None else 2.0 * 10.0 ** (target_hd2_db / 20.0) / peak_amplitude
    a3 = 0.0 if target_hd3_db is None else 4.0 * 10.0 ** (target_hd3_db / 20.0) / peak_amplitude ** 2
    return PolynomialDistortion(a2=a2, a3=a3)
