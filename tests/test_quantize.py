from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from audiochains.adcdac import (
    ADC_SPEC,
    DAC_SPEC,
    SampleChainConfig,
    process_sample,
    run_sample_pipeline,
)
from audiochains.errors import InvalidCode
from audiochains.quantize import QuantizerSpec, dequantize, quantize_uniform, round_half_away
from audiochains.signals import SLICE, Signal, latency_samples

SPEC_3V3 = QuantizerSpec(v_max=3.3)


def test_spec_validation():
    # the full scale is positive and finite, signals.require_positive's rule
    for v_max in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"v_max must be positive and finite, got {v_max}"):
            QuantizerSpec(v_max=v_max)
    assert (SPEC_3V3.max_code, SPEC_3V3.lsb) == (65535, 3.3 / 65535)


def test_round_half_away():
    assert round_half_away(0.5) == 1.0
    assert round_half_away(-0.5) == -1.0
    assert round_half_away(2.4) == 2.0
    assert round_half_away(-2.5) == -3.0
    assert np.array_equal(round_half_away(np.array([1.5, -1.5, 0.49])), [2.0, -2.0, 0.0])


def _sign_floor_rounding(x):
    """The defining form of round-half-away, kept here as the reference."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


_ROUNDING_EDGES = [
    0.0,
    -0.0,
    0.49999999999999994,  # largest double below 0.5: x + 0.5 rounds up to 1.0
    -0.49999999999999994,
    *(k + 0.5 for k in range(-4, 4)),  # exact ties
    2.0**51 + 0.5,
    2.0**52,
    2.0**52 + 1.0,  # x + 0.5 is a tie at the last bit: rounds to even
    -(2.0**52 + 1.0),
    2.0**53 + 2.0,
    -1.7976931348623157e308,
    5e-324,
    -5e-324,
]

_finite_or_edge = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(lambda k: k + 0.5),
    st.sampled_from(_ROUNDING_EDGES),
)


@settings(max_examples=300)
@given(x=hnp.arrays(np.float64, st.integers(0, 40), elements=_finite_or_edge))
def test_round_half_away_is_the_sign_floor_form_bit_for_bit(x):
    assert _bits(round_half_away(x)) == _bits(_sign_floor_rounding(x))


def test_round_half_away_edges_bit_for_bit_on_arrays_and_scalars():
    edges = np.array(_ROUNDING_EDGES)
    assert _bits(round_half_away(edges)) == _bits(_sign_floor_rounding(edges))
    assert not np.signbit(round_half_away(-0.0))
    assert np.signbit(round_half_away(-0.25))
    # callers such as int(round_half_away(latency * fs)) pass scalars
    for v in _ROUNDING_EDGES:
        for scalar in (v, np.float64(v)):
            assert _bits(round_half_away(scalar)) == _bits(_sign_floor_rounding(scalar))
    assert int(round_half_away(11.68e-6 * 96000.0)) == 1


def test_rails():
    assert quantize_uniform(0.0, SPEC_3V3) == 0
    assert quantize_uniform(3.3, SPEC_3V3) == 65535
    # saturating outside the range
    assert quantize_uniform(-1.0, SPEC_3V3) == 0
    assert quantize_uniform(5.0, SPEC_3V3) == 65535


def test_midpoint_ties_away_from_zero():
    # Exact-rational oracle: 1.65/3.3 is exactly one half in binary floating
    # point, so the scaled value is the exact tie 32767.5.
    scaled = Fraction(165, 330) * 65535
    assert scaled == Fraction(65535, 2)
    assert quantize_uniform(1.65, SPEC_3V3) == 32768


def test_dequantize_examples():
    assert dequantize(0, SPEC_3V3) == 0.0
    assert dequantize(65535, SPEC_3V3) == pytest.approx(3.3, abs=1e-15)
    oracle = Fraction(32768) * Fraction(33, 10) / 65535
    assert dequantize(32768, SPEC_3V3) == pytest.approx(float(oracle), abs=1e-12)


def test_dequantize_rejects_out_of_range():
    with pytest.raises(InvalidCode):
        dequantize(-1, SPEC_3V3)
    with pytest.raises(InvalidCode):
        dequantize(65536, SPEC_3V3)


def test_roundtrip_within_half_lsb_full_sweep():
    v = np.linspace(-0.5, 3.8, 100001)
    codes = quantize_uniform(v, SPEC_3V3)
    back = dequantize(codes, SPEC_3V3)
    clamped = np.clip(v, 0.0, 3.3)
    assert np.max(np.abs(back - clamped)) <= SPEC_3V3.lsb / 2 + 1e-12


@settings(max_examples=200)
@given(
    v1=st.floats(min_value=-1.0, max_value=4.0),
    v2=st.floats(min_value=-1.0, max_value=4.0),
)
def test_noiseless_quantizer_is_monotone(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    assert quantize_uniform(lo, SPEC_3V3) <= quantize_uniform(hi, SPEC_3V3)


def test_pin_noise_is_drawn_only_with_an_rng():
    # the sample chain draws the pin noise, not quantize_uniform: with an rng
    # it takes n normals per channel; without one it draws nothing and is its
    # noiseless transfer
    cfg = SampleChainConfig()
    n = SLICE + 5
    sig = Signal(np.linspace(1.0, 2.3, n), cfg.sample_rate)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    quiet = run_sample_pipeline(sig, sig, cfg, None, front_end=False)
    noisy = run_sample_pipeline(sig, sig, cfg, rng, front_end=False)
    ref.standard_normal(2 * n)
    assert rng.bit_generator.state == ref.bit_generator.state
    codes = quantize_uniform(sig.samples, ADC_SPEC)
    dac_codes, _ = process_sample(codes, codes)
    ideal = dequantize(dac_codes, DAC_SPEC)
    delay = latency_samples(cfg.latency, cfg.sample_rate)
    assert quiet.samples[:delay].tobytes() == bytes(8 * delay)
    assert quiet.samples[delay:].tobytes() == ideal[: n - delay].tobytes()
    assert not np.array_equal(noisy.samples, quiet.samples)
