"""Maximum-length sequences from primitive-polynomial LFSRs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import max_len_seq

from .errors import UnsupportedOrder
from .signals import Signal

# Feedback tap positions (polynomial exponents) giving maximal period for a
# Fibonacci LFSR, one known-primitive set per register length 2..24.  The
# test suite proves primitivity of each entry over GF(2), so the period is
# 2**order - 1 for any nonzero seed.
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}


@dataclass(frozen=True)
class MlsConfig:
    """LFSR degree, output amplitude (peak, +/-), register seed, sample rate."""

    order: int
    amplitude: float = 0.5
    seed: int = 1
    sample_rate: float = 44100.0

    def __post_init__(self):
        if self.order not in PRIMITIVE_TAPS:
            raise UnsupportedOrder(f"no primitive taps for order {self.order}")
        if self.seed % (1 << self.order) == 0:
            raise ValueError("seed must be nonzero modulo 2**order")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def length(self) -> int:
        return (1 << self.order) - 1


def lfsr_bits(order: int, seed: int, count: int) -> np.ndarray:
    """count output bits (the register LSB) of the Fibonacci LFSR.

    The bits come from scipy's max_len_seq with our tap table.  Our
    right-shift form reads polynomial exponent t from register bit
    (order - t), so the x**order term taps the output bit itself; scipy's
    ring holds register bit k at index k and adds the output bit implicitly.
    """
    taps = PRIMITIVE_TAPS.get(order)
    if taps is None:
        raise UnsupportedOrder(f"no primitive taps for order {order}")
    if seed % (1 << order) == 0:
        raise ValueError("seed must be nonzero modulo 2**order")
    state = [(seed >> k) & 1 for k in range(order)]
    ring_taps = [order - t for t in taps if t != order]
    bits, _ = max_len_seq(order, state=state, length=count, taps=ring_taps)
    return bits


def generate_mls(cfg: MlsConfig) -> Signal:
    """One full period (2**order - 1 samples) of +/-amplitude chips.

    Output bit 1 maps to +amplitude, bit 0 to -amplitude.
    """
    bits = lfsr_bits(cfg.order, cfg.seed, cfg.length)
    samples = cfg.amplitude * (2.0 * bits - 1.0)
    return Signal(samples, cfg.sample_rate)
