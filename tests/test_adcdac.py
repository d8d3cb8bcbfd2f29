import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from audiochains import adcdac
from audiochains.adcdac import (
    ADC_SPEC,
    DAC_SPEC,
    PIN_NOISE_RMS,
    SPI_TRANSFER_TIME,
    THD_DB,
    SampleChainConfig,
    SamplingSpeed,
    process_sample,
    run_sample_pipeline,
    spi_decode,
    spi_encode,
)
from audiochains.distortion import PolynomialDistortion, calibrate_distortion
from audiochains.errors import (
    DamageVoltage,
    InvalidCode,
    ShapeMismatch,
)
from audiochains.i2s import BlockPipelineConfig, run_block_pipeline
from audiochains.measure import estimate_latency, measure_impulse_response, measure_thd
from audiochains.mls import MlsConfig
from audiochains.frontend import front_end_filter
from audiochains.quantize import dequantize, quantize_uniform
from audiochains.signals import SLICE, Signal, generate_sine, latency_samples
from test_acceptance import _oracle_process  # the exact rational model of process_sample


# ---------------------------------------------------------------- SPI framing


def test_spi_frame_examples():
    assert spi_encode(0) == b"\x00\x00"
    assert spi_encode(65535) == b"\xff\xff"
    assert spi_encode(58810) == b"\xe5\xba"  # MSB first on the wire
    assert spi_encode(np.array([1, 256])) == b"\x00\x01\x01\x00"
    assert spi_decode(b"\xe5\xba").tolist() == [58810]


def test_spi_rejects_out_of_range():
    with pytest.raises(InvalidCode):
        spi_encode(-1)
    with pytest.raises(InvalidCode):
        spi_encode(65536)
    with pytest.raises(InvalidCode):
        spi_encode(np.array([0, 70000, 5]))


# ---------------------------------------------------------------- per-sample arithmetic


def test_process_sample_near_midscale():
    code, clipped = process_sample(32271, 32271)
    assert (code, clipped) == (32767, False)
    assert _oracle_process(32271, 32271) == (32767, False)
    # oracle value of the intermediate input voltage
    conv = Fraction(33, 10) / 65535
    assert float(32271 * conv - Fraction(13, 8)) == pytest.approx(-1.1444e-6, abs=1e-9)


def test_process_sample_saturates_low():
    code, clipped = process_sample(0, 0)
    assert (code, clipped) == (0, True)
    assert _oracle_process(0, 0) == (0, True)


def test_process_sample_high_example():
    conv = Fraction(33, 10) / 65535
    assert float(52000 * conv - Fraction(13, 8)) == pytest.approx(0.993448, abs=1e-6)
    assert process_sample(52000, 52000) == (58810, False)
    assert _oracle_process(52000, 52000) == (58810, False)


def test_process_sample_rejects_bad_codes():
    with pytest.raises(InvalidCode):
        process_sample(-1, 0)
    with pytest.raises(InvalidCode):
        process_sample(0, 70000)
    with pytest.raises(InvalidCode):
        process_sample(np.array([0, 70000]), np.array([0, 0]))
    codes, clipped = process_sample(np.array([], np.int64), np.array([], np.int64))
    assert codes.shape == clipped.shape == (0,)


# ---------------------------------------------------------------- latency model


def test_predicted_latency_table():
    low = SampleChainConfig(sampling_speed=SamplingSpeed.LOW_SPEED)
    high = SampleChainConfig(sampling_speed=SamplingSpeed.HIGH_SPEED)
    assert low.latency == pytest.approx(12.0e-6, abs=0.5e-6)
    assert high.latency == pytest.approx(9.6e-6, abs=0.5e-6)
    assert SPI_TRANSFER_TIME == pytest.approx(0.32e-6, rel=1e-12)


def test_low_speed_at_96k_is_infeasible_without_a_warning():
    # feasibility is a fact about a hardware rate; only the caller knows one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = SampleChainConfig(sample_rate=96000.0)
        high = SampleChainConfig(sample_rate=96000.0, sampling_speed=SamplingSpeed.HIGH_SPEED)
    assert not low.realtime_feasible  # 12 us overruns the 10.4 us period
    assert high.realtime_feasible  # 9.6 us fits in it


def test_mls_latency_at_native_rate_within_one_sample():
    # at the nominal 96 kHz grid the whole 12 us latency rounds to 1 sample
    cfg = SampleChainConfig()

    def system(s):
        biased = Signal(s.samples + 1.65, cfg.sample_rate)
        return run_sample_pipeline(biased, biased, cfg, front_end=False)

    ir = measure_impulse_response(system, MlsConfig(12, 0.5, 1, cfg.sample_rate))
    report = estimate_latency(ir)
    assert report.peak_sample_index == 1
    assert report.latency_seconds == pytest.approx(12e-6, abs=1.0 / cfg.sample_rate)


# ---------------------------------------------------------------- pipeline behavior


def test_zero_input_settles_at_the_code_implied_offset():
    # steady-state arithmetic oracle: bias quantizes to code 32768, the
    # arithmetic subtracts 1.625 and re-offsets by 1.25
    conv_adc = Fraction(33, 10) / 65535
    bias_code = 32768  # 1.65/3.3 is an exact float tie, 32767.5, rounded to even
    out_v = bias_code * conv_adc - Fraction(13, 8) + Fraction(5, 4)
    dac_code, _ = _oracle_process(bias_code, bias_code)
    expected = float(Fraction(dac_code) * Fraction(5, 2) / 65535)
    assert expected == pytest.approx(1.275, abs=1e-3)
    assert float(out_v) == pytest.approx(1.275025, abs=1e-6)

    cfg = SampleChainConfig()
    zeros = Signal(np.zeros(2000), cfg.sample_rate)
    out = run_sample_pipeline(zeros, zeros, cfg)
    # the bias lands exactly on an ADC rounding tie, so float jitter in the
    # settled filter output toggles between two adjacent codes
    assert np.allclose(out.samples[500:], expected, atol=2.6 * 2.5 / 65535)
    assert np.mean(out.samples[500:]) == pytest.approx(1.275, abs=1e-3)


def test_identical_inputs_pass_the_sine_through():
    cfg = SampleChainConfig()
    sine = generate_sine(1000.0, 0.5, 0.5, cfg.sample_rate)
    out = run_sample_pipeline(sine, sine, cfg)
    tail = out.samples[9600:]
    ac = tail - tail.mean()
    assert np.sqrt(np.mean(ac**2)) == pytest.approx(0.5, abs=1e-3)
    report = measure_thd(Signal(tail, cfg.sample_rate), 1000.0)
    assert report.thdn_db < -85.0  # quantization floor only


def test_antiphase_inputs_cancel_to_dc():
    cfg = SampleChainConfig()
    sine = generate_sine(1000.0, 0.5, 0.2, cfg.sample_rate)
    inverted = Signal(-sine.samples, cfg.sample_rate)
    out = run_sample_pipeline(sine, inverted, cfg)
    tail = out.samples[9600:]
    assert np.max(np.abs(tail - tail.mean())) < 1e-3


def test_dc_transfer_is_affine():
    # With noise off and both inputs equal constants, the end-to-end code
    # tracks ((v - 1.625 + 1.25) * 65535 / 2.5).  Each of the two rounding
    # stages contributes at most half a step: the ADC's half LSB is worth
    # 0.66 DAC codes, the DAC rounding 0.5, so the composite bound is 1.16.
    cfg = SampleChainConfig()
    # stay inside the non-saturating window: v - 0.375 must fit in [0, 2.5]
    levels = np.linspace(0.4, 2.85, 997)
    worst = 0.0
    for v in levels:
        sig = Signal(np.full(64, v - 1.65), cfg.sample_rate)  # bias added back below
        shifted = Signal(sig.samples + 1.65, cfg.sample_rate)
        out = run_sample_pipeline(shifted, shifted, cfg, front_end=False)
        code = out.samples[-1] * 65535.0 / 2.5
        ideal = (v - 1.625 + 1.25) * 65535.0 / 2.5
        worst = max(worst, abs(code - ideal))
    assert worst <= 0.66 + 0.5 + 1e-9


def test_code_centered_inputs_round_trip_within_half_dac_lsb():
    cfg = SampleChainConfig()
    codes = np.arange(8000, 57000, 1024)  # keep the DAC out of saturation
    volts = codes * 3.3 / 65535.0
    sig = Signal(np.repeat(volts, 4), cfg.sample_rate)
    out = run_sample_pipeline(sig, sig, cfg, front_end=False)
    ideal = (volts - 1.625 + 1.25) * 65535.0 / 2.5
    got = out.samples[3::4] * 65535.0 / 2.5
    assert np.max(np.abs(got - ideal)) <= 0.5 + 1e-9


def test_noise_is_drawn_exactly_when_an_rng_is_given():
    cfg = SampleChainConfig()
    sine = generate_sine(1000.0, 0.5, 0.01, cfg.sample_rate)
    quiet = run_sample_pipeline(sine, sine, cfg)
    assert quiet.samples.tobytes() == run_sample_pipeline(sine, sine, cfg).samples.tobytes()
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    noisy = run_sample_pipeline(sine, sine, cfg, rng)
    # one draw per channel of the pin noise
    ref.standard_normal(2 * len(sine))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert not np.array_equal(noisy.samples, quiet.samples)


def test_pin_noise_is_the_calibrated_total_input_noise():
    # the one pin draw carries the variance of each speed's THD+N closure
    # (-63 dB over -76 dB LOW_SPEED, -61 dB over -67 dB HIGH_SPEED), as copied
    # from the paper's numbers rather than from the module's targets
    low, high = PIN_NOISE_RMS[SamplingSpeed.LOW_SPEED], PIN_NOISE_RMS[SamplingSpeed.HIGH_SPEED]
    assert low**2 == pytest.approx(0.5 * (10**-6.3 - 10**-7.6), rel=1e-12)
    assert high**2 == pytest.approx(0.5 * (10**-6.1 - 10**-6.7), rel=1e-12)
    assert low == 4.8788747130469373e-04  # the LOW_SPEED level of the single target


def test_damage_voltage_propagates():
    cfg = SampleChainConfig()
    big = generate_sine(1000.0, 3.0, 0.1, cfg.sample_rate)  # ~4.2 V peaks
    with pytest.raises(DamageVoltage):
        run_sample_pipeline(big, big, cfg)
    # bypassing the front end checks the raw inputs against the default limits
    neg = Signal(np.full(100, -0.5), cfg.sample_rate)
    with pytest.raises(DamageVoltage):
        run_sample_pipeline(neg, neg, cfg, front_end=False)


def test_pipeline_runs_the_public_front_end_and_no_spi_round_trip(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(adcdac, name, wrapper)

    for name in ("spi_encode", "spi_decode", "front_end_filter"):
        spy(name, getattr(adcdac, name))
    cfg = SampleChainConfig()
    sine = generate_sine(1000.0, 0.5, 0.01, cfg.sample_rate)
    run_sample_pipeline(sine, sine, cfg)
    # one Signal on both inputs is conditioned once; the SPI frame, an
    # identity on valid codes, is the wire format only
    assert calls == ["front_end_filter"]
    calls.clear()
    twin = Signal(sine.samples.copy(), sine.sample_rate)
    run_sample_pipeline(sine, twin, cfg)
    assert calls == ["front_end_filter", "front_end_filter"]


def test_one_signal_on_both_inputs_matches_two_equal_signals_bit_for_bit(monkeypatch):
    # The shared input stage is deterministic and the noise is still drawn
    # per channel in the same order, so sharing the shaped input changes no
    # bit.  Both chains run it, with distortion and their noise on.
    distortion = PolynomialDistortion(a3=0.02)
    sample_cfg = SampleChainConfig(distortion=distortion)
    block_cfg = BlockPipelineConfig(distortion=distortion)

    def run_adcdac(a, b, rng):
        return [run_sample_pipeline(a, b, sample_cfg, rng)]

    def run_i2s(a, b, rng):
        return list(run_block_pipeline(a, b, block_cfg, rng=rng))

    applied = []
    apply = PolynomialDistortion.apply

    def counted_apply(self, x):
        applied.append(x)
        return apply(self, x)

    monkeypatch.setattr(PolynomialDistortion, "apply", counted_apply)
    for chain, cfg, run in (("adcdac", sample_cfg, run_adcdac), ("i2s", block_cfg, run_i2s)):
        sine = generate_sine(1000.0, 0.5, 0.05, cfg.sample_rate)
        twin = Signal(sine.samples.copy(), sine.sample_rate)
        applied.clear()
        shared = run(sine, sine, np.random.default_rng(5))
        assert len(applied) == 1, chain
        split = run(sine, twin, np.random.default_rng(5))
        assert len(applied) == 3, chain
        assert [s.samples.tobytes() for s in shared] == [s.samples.tobytes() for s in split], chain


def test_shape_mismatch():
    cfg = SampleChainConfig()
    a = Signal(np.zeros(100), cfg.sample_rate)
    b = Signal(np.zeros(50), cfg.sample_rate)
    with pytest.raises(ShapeMismatch):
        run_sample_pipeline(a, b, cfg, front_end=False)
    c = Signal(np.zeros(100), 48000.0)
    with pytest.raises(ShapeMismatch):
        run_sample_pipeline(a, c, cfg, front_end=False)


def test_chain_thdn_bounded_by_worst_table_entry():
    cfg = SampleChainConfig()
    sine = generate_sine(1000.0, 0.5, 1.2, cfg.sample_rate)
    # the rng turns the pin noise on
    out = run_sample_pipeline(sine, sine, cfg, np.random.default_rng(3))
    trimmed = Signal(out.samples[14400:], cfg.sample_rate)
    report = measure_thd(trimmed, 1000.0)
    assert report.thdn_db <= -61.0


# ---------------------------------------------------------------- slices

# the CLI's LOW_SPEED thd row: a 0.5 Vrms tone through the calibrated distortion
LOW_ROW = SampleChainConfig(
    distortion=calibrate_distortion(THD_DB[SamplingSpeed.LOW_SPEED], 0.5 * np.sqrt(2.0))
)


def _whole_record_chain(in0, in1, cfg, rng):
    """The sample chain as whole-record stages: the reference for the sliced one.

    Each distinct Signal is distorted and filtered once, then each channel,
    channel 0 first, takes its whole n-sample noise draw into a record-length pin."""

    def condition(x):
        return front_end_filter(Signal(cfg.distortion.apply(x), cfg.sample_rate)).samples

    shaped = [condition(in0.samples)]
    shaped.append(shaped[0] if in1 is in0 else condition(in1.samples))
    pins = shaped
    if rng is not None:
        noise_rms = PIN_NOISE_RMS[cfg.sampling_speed]
        pins = [noise_rms * rng.standard_normal(len(x)) + x for x in shaped]
    dac_codes, _ = process_sample(*(quantize_uniform(pin, ADC_SPEC) for pin in pins))
    out = dequantize(dac_codes, DAC_SPEC)
    delay = latency_samples(cfg.latency, cfg.sample_rate)
    shifted = np.zeros(len(out))
    shifted[delay:] = out[: max(len(out) - delay, 0)]
    return shifted


@pytest.mark.parametrize("n", [1, SLICE - 1, SLICE, SLICE + 1, SLICE + 2, 3 * SLICE + 5])
@pytest.mark.parametrize("seed", [None, 8])
@pytest.mark.parametrize("distinct", [False, True])
def test_sliced_chain_is_the_whole_record_chain_byte_for_byte(n, seed, distinct):
    # at 96 kHz the chain delay is one sample: n = 1 is a delay >= n, and
    # n = SLICE + 2 keeps a one-sample last slice
    cfg = LOW_ROW
    in0 = Signal(generate_sine(1000.0, 0.5, 1.0, cfg.sample_rate).samples[:n], cfg.sample_rate)
    in1 = Signal(0.8 * in0.samples, cfg.sample_rate) if distinct else in0
    rng = ref = None
    if seed is not None:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_sample_pipeline(in0, in1, cfg, rng)
    assert got.samples.tobytes() == _whole_record_chain(in0, in1, cfg, ref).tobytes()
    if seed is not None:
        assert rng.bit_generator.state == ref.bit_generator.state


def test_peak_memory_of_a_row_stays_under_four_record_lengths():
    # a 3 s, 96 kHz row as the CLI runs it: distortion, front end, pin noise
    cfg = LOW_ROW
    sine = generate_sine(1000.0, 0.5, 3.0, cfg.sample_rate)
    tracemalloc.start()
    try:
        run_sample_pipeline(sine, sine, cfg, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * sine.samples.nbytes
