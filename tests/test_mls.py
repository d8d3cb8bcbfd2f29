"""MLS generator checks, including a self-test of the embedded tap table.

The algebraic self-test proves each tap set's polynomial has x of
multiplicative order 2**n - 1 in GF(2)[x]/(p); that is impossible unless p
is irreducible and primitive, so the register is maximal-period for every
nonzero seed without stepping the long sequences.
"""

import numpy as np
import pytest
from scipy.signal import max_len_seq

from audiochains.errors import UnsupportedOrder
from audiochains.mls import PRIMITIVE_TAPS, MlsConfig, generate_mls, lfsr_bits


def _poly(taps) -> int:
    p = 1
    for t in taps:
        p |= 1 << t
    return p


def _gf2_mulmod(a: int, b: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= mod
    return r


def _gf2_powmod(base: int, exp: int, mod: int) -> int:
    r = 1
    while exp:
        if exp & 1:
            r = _gf2_mulmod(r, base, mod)
        base = _gf2_mulmod(base, base, mod)
        exp >>= 1
    return r


def _prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@pytest.mark.parametrize("order", sorted(PRIMITIVE_TAPS))
def test_tap_table_polynomials_are_primitive(order):
    mod = _poly(PRIMITIVE_TAPS[order])
    period = (1 << order) - 1
    assert _gf2_powmod(2, period, mod) == 1
    for q in _prime_factors(period):
        assert _gf2_powmod(2, period // q, mod) != 1


@pytest.mark.parametrize("order", range(2, 17))
def test_sequence_period_is_maximal(order):
    length = (1 << order) - 1
    bits = lfsr_bits(order, 1, 2 * length)
    assert np.array_equal(bits[:length], bits[length:])
    # no proper divisor of the period is a period
    for q in _prime_factors(length):
        assert not np.array_equal(bits[:length], np.roll(bits[:length], length // q))


def _reference_lfsr_bits(order: int, seed: int, count: int) -> list[int]:
    # Right-shift Fibonacci register stepped one chip at a time: polynomial
    # exponent t reads register bit (order - t), the LSB is the output.
    tap_mask = 0
    for t in PRIMITIVE_TAPS[order]:
        tap_mask |= 1 << (order - t)
    state = seed & ((1 << order) - 1)
    bits = []
    for _ in range(count):
        bits.append(state & 1)
        feedback = (state & tap_mask).bit_count() & 1
        state = (state >> 1) | (feedback << (order - 1))
    return bits


@pytest.mark.parametrize("order", range(2, 17))
def test_sequence_matches_reference_register(order):
    # two periods, so the wrap-around is compared too
    count = 2 * ((1 << order) - 1)
    for seed in (1, 7, (1 << order) - 1):
        bits = lfsr_bits(order, seed, count)
        assert bits.dtype == np.int8
        assert bits.tolist() == _reference_lfsr_bits(order, seed, count)


@pytest.mark.parametrize("order", range(2, 25))
def test_sequence_matches_scipy_max_len_seq(order):
    # scipy's ring holds register bit k at index k and adds the output bit
    # itself, so its taps are (order - t) for every exponent t but order
    period = (1 << order) - 1
    ring_taps = [order - t for t in PRIMITIVE_TAPS[order] if t != order]
    counts = (0, 1, order - 1, period, period + order + 1)
    try:
        for seed in (1, 11, period):
            state = [(seed >> k) & 1 for k in range(order)]
            oracle, _ = max_len_seq(order, state=state, length=counts[-1], taps=ring_taps)
            for count in counts:
                bits = lfsr_bits(order, seed, count)
                assert bits.dtype == np.int8
                assert np.array_equal(bits, oracle[:count]), (seed, count)
    finally:
        lfsr_bits.cache_clear()  # order 24 holds 16 MB per sequence


def test_cached_sequence_is_shared_and_read_only():
    lfsr_bits.cache_clear()
    bits = lfsr_bits(12, 1, 4095)
    assert lfsr_bits(12, 1, 4095) is bits
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0] = 1
    assert lfsr_bits.cache_info().hits == 1


def test_negative_count_raises():
    with pytest.raises(ValueError):
        lfsr_bits(8, 1, -1)


@pytest.mark.parametrize("order", range(2, 17))
def test_balance_one_excess_positive_chip(order):
    sig = generate_mls(MlsConfig(order, amplitude=1.0))
    assert len(sig) == (1 << order) - 1
    assert sig.samples.sum() == 1.0


@pytest.mark.parametrize("order", range(2, 17))
def test_circular_autocorrelation_two_valued(order):
    length = (1 << order) - 1
    chips = (2 * lfsr_bits(order, 1, length).astype(np.int64)) - 1
    if order <= 12:
        # direct integer arithmetic
        corr = np.array([int(np.dot(chips, np.roll(chips, -lag))) for lag in range(length)])
    else:
        # FFT correlation of integers; round and verify the residual is far
        # below 1/2 so the rounded values are the exact integer correlation
        raw = np.fft.irfft(np.abs(np.fft.rfft(chips)) ** 2, n=length)
        corr = np.rint(raw).astype(np.int64)
        assert np.max(np.abs(raw - corr)) < 1e-3
    assert corr[0] == length
    assert np.all(corr[1:] == -1)


def test_length_example_order_4():
    assert len(generate_mls(MlsConfig(4, amplitude=1.0))) == 15


def test_seed_does_not_change_period_or_balance():
    for seed in (1, 7, 12345):
        sig = generate_mls(MlsConfig(10, amplitude=1.0, seed=seed))
        assert sig.samples.sum() == 1.0


def test_validation():
    # lfsr_bits checks the order and the seed through MlsConfig
    for make in (lambda order, seed: MlsConfig(order, seed=seed),
                 lambda order, seed: lfsr_bits(order, seed, 8)):
        for order in (1, 25):
            with pytest.raises(UnsupportedOrder, match=f"^no primitive taps for order {order}$"):
                make(order, 1)
        for seed in (0, 256):  # 256 is zero modulo 2**8
            with pytest.raises(ValueError, match=r"^seed must be nonzero modulo 2\*\*order$"):
                make(8, seed)
