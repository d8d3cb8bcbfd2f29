"""Three-stage analog conditioning in front of the SAR ADC.

Stage 1 AC-couples the input and re-centers it on the mid-supply bias,
stage 2 is a second-order Sallen-Key low-pass (anti-aliasing), and the
rail-to-rail output stage clamps a few tens of millivolts inside the
supplies.  The stages are fixed hardware: their values are module constants,
and the coefficient helpers take only the rate.  `front_end_filter` runs
all three and is the only conditioning path; a raw pin voltage outside the
absolute-maximum window raises DamageVoltage before the clamp could hide
it.  Filters are discretized at the signal's own rate: the coupling pole by
an exact one-pole recurrence (its sub-hertz corner would otherwise
underflow), the biquad by the matched design of M. Vicanek ("Matched Second
Order Digital Filters", 2016): impulse-invariant poles and a numerator that
gives the analog |H|^2 at DC, fs/4 and Nyquist, so any rate works.

Coupling pole, bias and Sallen-Key are one 3-state linear system (both
filters in transposed direct form II) driven by the input and by the bias
as a constant second input.  It runs in blocks of `BLOCK` samples (Burrus,
"Block realization of digital filters", IEEE Trans. Audio Electroacoust.
1972): a log-depth scan over the blocks' zero-start end states gives each
block's start state, and one matrix product per `CHUNK` blocks maps
[input | start state | 1] to the output, written over the input's copy.
The result stays within 1e-12 V of running the two filters sample by
sample.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DamageVoltage
from .signals import Signal

BIAS_VOLTAGE = 1.65  # mid-supply operating point
COUPLING_CUTOFF = 0.040  # AC-coupling corner, Hz
SALLEN_KEY_CUTOFF = 40000.0  # anti-aliasing corner, Hz
SALLEN_KEY_Q = 0.7071  # Butterworth
RAIL_LOW, RAIL_HIGH = 0.030, 3.270  # output-stage clamp, V
DAMAGE_LOW, DAMAGE_HIGH = -0.2, 3.5  # absolute-maximum pin window, V
BLOCK = 32  # samples per block of the block realization
CHUNK = 256  # blocks per matrix product; the 74 KB operand stays in cache


def highpass_coeffs(sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Coupling DC-blocker b, a with the pole matched to exp(-2*pi*COUPLING_CUTOFF/fs)."""
    p = math.exp(-2.0 * math.pi * COUPLING_CUTOFF / sample_rate)
    return np.array([p, -p]), np.array([1.0, -p])


def sallen_key_coeffs(sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The Sallen-Key stage's unity-gain low-pass b, a: the matched design, at any rate."""
    w0, zeta = 2.0 * math.pi * SALLEN_KEY_CUTOFF / sample_rate, 0.5 / SALLEN_KEY_Q
    a1 = -2.0 * math.exp(-zeta * w0) * math.cos(w0 * math.sqrt(1.0 - zeta * zeta))
    a2 = math.exp(-2.0 * zeta * w0)
    w = np.array([math.pi / 2.0, math.pi])  # the analog |H|^2 at fs/4 and at Nyquist
    g_quarter, g_nyquist = w0**4 / ((w0 * w0 - w * w) ** 2 + (2.0 * zeta * w0 * w) ** 2)
    s0, s1 = 1.0 + a1 + a2, (1.0 - a1 + a2) * math.sqrt(g_nyquist)  # b0 + b1 + b2, b0 - b1 + b2
    big_b2 = g_quarter * ((1.0 - a2) ** 2 + a1 * a1) - (s0 * s0 + s1 * s1) / 2.0  # -4 b0 b2
    b0 = ((s0 + s1) / 2.0 + math.sqrt((s0 + s1) ** 2 / 4.0 + big_b2)) / 2.0
    return np.array([b0, (s0 - s1) / 2.0, -big_b2 / (4.0 * b0)]), np.array([1.0, a1, a2])


@lru_cache(maxsize=4)
def _block_map(sample_rate: float) -> np.ndarray:
    """(BLOCK + 4, BLOCK + 3) map of one block: row [x | s | 1] -> [y | s'].

    x is the block's input, s the start state (coupling-pole state, then the
    two Sallen-Key states), 1 the bias input; y is the output and s' the end
    state.  Each row is the response to one unit case, stepped through both
    filters' transposed direct form II recurrences.
    """
    (hb0, hb1), (_, ha1) = highpass_coeffs(sample_rate)
    (lb0, lb1, lb2), (_, la1, la2) = sallen_key_coeffs(sample_rate)
    cases = np.eye(BLOCK + 4)
    x, (h, z1, z2), bias = cases[:, :BLOCK], cases[:, BLOCK:-1].T, cases[:, -1] * BIAS_VOLTAGE
    rows = np.empty((BLOCK + 4, BLOCK + 3))
    for n in range(BLOCK):
        y = hb0 * x[:, n] + h
        h = hb1 * x[:, n] - ha1 * y
        v = y + bias
        rows[:, n] = lb0 * v + z1
        z1 = lb1 * v - la1 * rows[:, n] + z2
        z2 = lb2 * v - la2 * rows[:, n]
    rows[:, BLOCK:] = np.stack([h, z1, z2], axis=1)
    rows.flags.writeable = False
    return rows


def _end_states(x_blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each block's end state, the state before the first block being zero.

    The end states from a zero start, then a Hillis-Steele scan adds each
    earlier block's end state carried forward by powers of the block step.
    """
    ends = x_blocks @ rows[:BLOCK, BLOCK:] + rows[-1, BLOCK:]
    step, lag = rows[BLOCK:-1, BLOCK:], 1
    while lag < len(ends):
        ends[lag:] += ends[:-lag] @ step
        step, lag = step @ step, 2 * lag
    return ends


def front_end_filter(sig: Signal) -> Signal:
    """Conditioned pin voltage: AC-couple, bias, Sallen-Key, `check_damage`, rail clamp."""
    n = len(sig)
    raw = np.zeros(-(-n // BLOCK) * BLOCK)
    raw[:n] = sig.samples
    blocks = raw.reshape(-1, BLOCK)  # each block's input, overwritten by its output
    rows = _block_map(sig.sample_rate)
    starts = np.zeros((len(blocks), 4))  # [start state | 1] per block
    starts[1:, :3] = _end_states(blocks[:-1], rows)
    starts[:, 3] = 1.0
    buf = np.empty((CHUNK, BLOCK + 4))
    for i in range(0, len(blocks), CHUNK):
        k = min(CHUNK, len(blocks) - i)
        buf[:k, :BLOCK], buf[:k, BLOCK:] = blocks[i : i + k], starts[i : i + k]
        np.matmul(buf[:k], rows[:, :BLOCK], out=blocks[i : i + k])
    raw = raw[:n]
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
