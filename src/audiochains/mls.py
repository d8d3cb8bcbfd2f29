"""Maximum-length sequences from primitive-polynomial LFSRs.

The register's output bits obey a[n] = XOR over the taps t of a[n - t].
Squaring a polynomial over GF(2) squares each of its terms, so they also
obey a[n] = XOR over t of a[n - 2**k * t] for every k (Golomb, *Shift
Register Sequences*, 1967).  `lfsr_bits` uses the largest such lag set that
the bits already built reach, and so fills 2**k * min(taps) bits with one
shift and XOR per tap of a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOrder
from .signals import Signal, require_positive

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
        require_positive("amplitude", self.amplitude)
        require_positive("sample_rate", self.sample_rate)

    @property
    def length(self) -> int:
        return (1 << self.order) - 1


@lru_cache(maxsize=4)
def lfsr_bits(order: int, seed: int, count: int) -> np.ndarray:
    """count output bits (the register LSB) of the Fibonacci LFSR, read-only int8.

    Our right-shift form reads polynomial exponent t from register bit
    (order - t), so the output bits obey a[n] = XOR over t of a[n - t] and
    start with the seed's bits, LSB first.  A sweep asks for the same
    sequence once per row; the result is cached, hence read-only.
    """
    MlsConfig(order, seed=seed)  # the order and seed rules
    taps = PRIMITIVE_TAPS[order]
    if count < 0:
        raise ValueError("count must be nonnegative")
    bits, done, lag = seed % (1 << order), order, 1
    while done < count:
        while 2 * lag * order <= done:
            lag *= 2
        chunk = min(lag * min(taps), count - done)
        fill = 0
        for t in taps:
            fill ^= bits >> (done - lag * t)
        bits |= (fill & ((1 << chunk) - 1)) << done
        done += chunk
    packed = np.frombuffer(bits.to_bytes((max(count, order) + 7) // 8, "little"), np.uint8)
    out = np.unpackbits(packed, count=count, bitorder="little").view(np.int8)
    out.flags.writeable = False
    return out


def generate_mls(cfg: MlsConfig) -> Signal:
    """One full period (2**order - 1 samples) of +/-amplitude chips.

    Output bit 1 maps to +amplitude, bit 0 to -amplitude.
    """
    bits = lfsr_bits(cfg.order, cfg.seed, cfg.length)
    samples = cfg.amplitude * (2.0 * bits - 1.0)
    return Signal(samples, cfg.sample_rate)
