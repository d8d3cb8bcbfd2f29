from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiochains.adcdac import (
    ADC_SPEC,
    DAC_SPEC,
    SampleChainConfig,
    process_sample,
    run_sample_pipeline,
    spi_decode,
    spi_encode,
)
from audiochains.errors import InvalidCode
from audiochains.i2s import BlockPipelineConfig
from audiochains.quantize import QuantizerSpec, dequantize, int16_codes, quantize_uniform
from audiochains.signals import SLICE, Signal, latency_samples

SPEC_3V3 = QuantizerSpec(v_max=3.3)


def test_spec_validation():
    assert (SPEC_3V3.max_code, SPEC_3V3.lsb) == (65535, 3.3 / 65535)


def test_ties_round_to_the_even_neighbour():
    # the one rounding rule, half to even, bit for bit with signed zeros
    x = [-2.5, -1.5, -0.5, -0.49999999999999994, 0.49999999999999994, 0.5, 1.5, 2.5,
         32766.5, -32767.5]
    even = [-2.0, -2.0, -0.0, -0.0, 0.0, 0.0, 2.0, 2.0, 32766.0, -32768.0]
    assert int16_codes(np.array(x)).tobytes() == np.array(even).tobytes()
    # ADC inputs whose scaled value, as quantize_uniform computes it, is an
    # exact tie k + 1/2
    ties = np.array([2.5177386129549097e-05, 0.00022659647516594185, 0.00032730601968413824])
    scaled = ties / ADC_SPEC.v_max * ADC_SPEC.max_code
    assert [Fraction(s) for s in scaled] == [Fraction(k, 2) for k in (1, 9, 13)]
    assert quantize_uniform(ties, ADC_SPEC).tolist() == [0, 4, 6]
    assert (latency_samples(0.5, 5.0), latency_samples(0.5, 7.0)) == (2, 4)
    # a tie the CLI reaches: --chain i2s --measure latency --sample-rate 187500
    cfg = BlockPipelineConfig(block_samples=64, sample_rate=187500.0)
    assert cfg.latency * cfg.sample_rate == 292.5
    assert latency_samples(cfg.latency, cfg.sample_rate) == 292


def test_rails():
    assert quantize_uniform(0.0, SPEC_3V3) == 0
    assert quantize_uniform(3.3, SPEC_3V3) == 65535
    # saturating outside the range
    assert quantize_uniform(-1.0, SPEC_3V3) == 0
    assert quantize_uniform(5.0, SPEC_3V3) == 65535


def test_every_converter_returns_float64_integral_codes():
    # the package's one code type: no converter hands back an integer dtype
    def assert_codes(codes, *expected):
        assert codes.dtype == np.float64
        assert np.array_equal(codes, np.rint(codes))
        assert np.asarray(codes).tolist() == list(expected)

    scalar = quantize_uniform(1.65, SPEC_3V3)
    assert isinstance(scalar, np.float64)
    assert_codes(scalar.reshape(1), 32768.0)
    rails = quantize_uniform(np.array([-1e-9, -1.0, 3.3, 5.0]), SPEC_3V3)
    assert_codes(rails, 0.0, 0.0, 65535.0, 65535.0)
    # just below the low rail the code is -0.0, which equals 0 and passes the range check
    assert np.signbit(rails[0]) and dequantize(rails[:1], SPEC_3V3).tolist() == [0.0]
    tick, clipped = process_sample(30000, 34000)
    assert isinstance(tick, np.float64) and tick == np.rint(tick) and not clipped
    codes = quantize_uniform(np.array([1.0, 1.6, 2.3]), ADC_SPEC)
    assert_codes(codes, 19859.0, 31775.0, 45676.0)
    dac_codes, _ = process_sample(codes, codes[::-1])
    assert_codes(dac_codes, *(process_sample(a, b)[0] for a, b in zip(codes, codes[::-1])))
    assert_codes(spi_decode(spi_encode(dac_codes)), *dac_codes)


def test_the_midpoint_tie_rounds_to_32768():
    # Exact-rational oracle: 1.65/3.3 is exactly one half in binary floating
    # point, so the scaled value is the exact tie 32767.5, and 32768 is its
    # even neighbour.
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
