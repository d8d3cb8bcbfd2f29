"""Three-stage analog conditioning in front of the SAR ADC.

Stage 1 AC-couples the input and re-centers it on the mid-supply bias,
stage 2 is a second-order Sallen-Key low-pass (anti-aliasing), and the
rail-to-rail output stage clamps a few tens of millivolts inside the
supplies.  The stages are fixed hardware, so their values are module
constants.  `front_end_filter` runs all three and is the only conditioning
path; a raw pin voltage outside the absolute-maximum window raises
DamageVoltage before the clamp could hide it.  Filters are discretized at
the signal's own rate: the biquad by bilinear transform with frequency
prewarping, the coupling pole by an exact one-pole recurrence (its
sub-hertz corner would otherwise underflow).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal as sps

from .errors import DamageVoltage
from .signals import Signal

BIAS_VOLTAGE = 1.65  # mid-supply operating point
COUPLING_CUTOFF = 0.040  # AC-coupling corner, Hz
SALLEN_KEY_CUTOFF = 40000.0  # anti-aliasing corner, Hz
SALLEN_KEY_Q = 0.7071  # Butterworth
RAIL_LOW, RAIL_HIGH = 0.030, 3.270  # output-stage clamp, V
DAMAGE_LOW, DAMAGE_HIGH = -0.2, 3.5  # absolute-maximum pin window, V


def highpass_coeffs(cutoff: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """DC-blocker b, a with the pole matched to exp(-2*pi*fc/fs)."""
    p = math.exp(-2.0 * math.pi * cutoff / sample_rate)
    return np.array([p, -p]), np.array([1.0, -p])


def sallen_key_coeffs(cutoff: float, q: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Unity-gain 2nd-order low-pass b, a (bilinear transform, prewarped)."""
    if cutoff >= sample_rate / 2.0:
        raise ValueError(
            f"low-pass corner {cutoff:g} Hz must lie below Nyquist: the sample "
            f"rate must exceed {2.0 * cutoff:g} Hz, got {sample_rate:g} Hz"
        )
    w0 = 2.0 * math.pi * cutoff / sample_rate
    alpha = math.sin(w0) / (2.0 * q)
    b = np.array([(1 - math.cos(w0)) / 2.0, 1 - math.cos(w0), (1 - math.cos(w0)) / 2.0])
    a = np.array([1 + alpha, -2.0 * math.cos(w0), 1 - alpha])
    return b / a[0], a / a[0]


def filter_gain_db(b: np.ndarray, a: np.ndarray, freq: float, sample_rate: float) -> float:
    """Closed-form magnitude of a rational digital filter at one frequency."""
    z = np.exp(-2j * np.pi * freq / sample_rate)
    num = np.polyval(b[::-1], z)
    den = np.polyval(a[::-1], z)
    return 20.0 * math.log10(abs(num / den))


def front_end_filter(sig: Signal) -> Signal:
    """Conditioned pin voltage: AC-couple, bias, Sallen-Key, `check_damage`, rail clamp."""
    bh, ah = highpass_coeffs(COUPLING_CUTOFF, sig.sample_rate)
    x = sps.lfilter(bh, ah, sig.samples)
    x = x + BIAS_VOLTAGE
    bl, al = sallen_key_coeffs(SALLEN_KEY_CUTOFF, SALLEN_KEY_Q, sig.sample_rate)
    raw = sps.lfilter(bl, al, x)
    check_damage(raw)
    return Signal(np.clip(raw, RAIL_LOW, RAIL_HIGH, out=raw), sig.sample_rate)


def check_damage(v) -> None:
    """Raise DamageVoltage when any value leaves the absolute-maximum window.

    Applies to the raw pin voltage before the rail-clamp protection; it
    flags a misconfigured scenario rather than a recoverable sample fault.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return
    low, high = float(v.min()), float(v.max())
    if high > DAMAGE_HIGH or low < DAMAGE_LOW:
        raise DamageVoltage(
            f"voltage range [{low:.3f}, {high:.3f}] V exceeds "
            f"[{DAMAGE_LOW}, {DAMAGE_HIGH}] V absolute maximum"
        )
