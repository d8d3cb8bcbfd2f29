import warnings

import numpy as np
import pytest

from audiochains.distortion import calibrate_distortion
from audiochains.errors import ShapeMismatch
from audiochains.i2s import (
    CONVERSION_ADC,
    FIXED_DELAY,
    I2S_NOISE_FLOOR_RMS,
    PIPELINE_BLOCK_COUNT,
    BlockPipelineConfig,
    passthrough,
    run_block_pipeline,
)
from audiochains.measure import estimate_latency, measure_impulse_response, measure_thd
from audiochains.mls import MlsConfig
from audiochains.signals import Signal, generate_sine, latency_samples

FS = 44100.0
TABLE_MS = {16: 1.63, 32: 2.7, 64: 4.9, 128: 9.24}


# ---------------------------------------------------------------- latency model


def test_predicted_latency_against_table():
    for block, ref_ms in TABLE_MS.items():
        cfg = BlockPipelineConfig(block_samples=block)
        assert cfg.latency == pytest.approx(ref_ms * 1e-3, abs=0.05e-3)


def test_defaults_match_least_squares_fit_of_the_table():
    # oracle: ordinary least squares of latency against block/fs
    x = np.array([b / FS for b in TABLE_MS])
    y = np.array([ms * 1e-3 for ms in TABLE_MS.values()])
    slope, intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(3.00, abs=0.01)
    assert intercept == pytest.approx(0.536e-3, abs=2e-6)
    assert PIPELINE_BLOCK_COUNT == pytest.approx(slope, abs=0.01)
    assert FIXED_DELAY == pytest.approx(intercept, abs=2e-6)


def test_latency_linearity_in_block_size():
    for block in (16, 32, 64):
        small = BlockPipelineConfig(block_samples=block)
        large = BlockPipelineConfig(block_samples=2 * block)
        diff = large.latency - small.latency
        assert diff == pytest.approx(3.0 * block / FS, rel=1e-12)


# ---------------------------------------------------------------- pipeline mechanics


def test_zero_input_gives_zero_output():
    cfg = BlockPipelineConfig()
    zero = Signal(np.zeros(1024), FS)
    left, right = run_block_pipeline(zero, zero, cfg)
    assert np.array_equal(left.samples, np.zeros(1024))
    assert np.array_equal(right.samples, np.zeros(1024))


def test_identity_processor_is_a_pure_delay_within_half_lsb():
    cfg = BlockPipelineConfig()
    sine = generate_sine(1000.0, 0.5, 0.25, FS)
    left, _ = run_block_pipeline(sine, sine, cfg)
    delay = latency_samples(cfg.latency, FS)
    half_lsb = 0.5 / 32767.0
    err = left.samples[delay:] - sine.samples[: len(sine) - delay]
    assert np.max(np.abs(err)) <= half_lsb + 1e-12


def test_processor_sees_code_scaled_by_1_over_65535():
    seen = {}

    def spy(left, right):
        seen["value"] = left[0]
        return left, right

    cfg = BlockPipelineConfig(block_samples=16)
    # one volt -> code 32767; 128 samples outlast the 72-sample delay
    full = Signal(np.full(128, 32767.0 / 32767.0), FS)
    left, _ = run_block_pipeline(full, full, cfg, proc=spy)
    assert seen["value"] == pytest.approx(32767.0 / 65535.0, rel=1e-12)
    assert seen["value"] == pytest.approx(0.4999924, abs=1e-7)
    # identity processor returns the same block value
    delay = latency_samples(cfg.latency, FS)
    assert left.samples[delay] == pytest.approx(1.0, abs=1e-12)


def test_output_independent_of_block_partitioning():
    # stateless processing: only the latency differs between block sizes
    sine = generate_sine(997.0, 0.4, 0.2, FS)
    tanh = lambda l, r: (np.tanh(l), np.tanh(r))
    outs = {}
    for block in (32, 128):
        cfg = BlockPipelineConfig(block_samples=block)
        delay = latency_samples(cfg.latency, FS)
        left, _ = run_block_pipeline(sine, sine, cfg, proc=tanh)
        outs[block] = left.samples[delay:]
    n = min(len(outs[32]), len(outs[128]))
    assert np.array_equal(outs[32][:n], outs[128][:n])


@pytest.mark.parametrize("block", [16, 128])
def test_processor_called_once_with_the_whole_signal(block):
    calls = []

    def spy(left, right):
        calls.append((len(left), len(right)))
        return left, right

    sig = Signal(np.linspace(-0.5, 0.5, 1000), FS)  # not a multiple of block
    run_block_pipeline(sig, sig, BlockPipelineConfig(block_samples=block), proc=spy)
    assert calls == [(1000, 1000)]


def test_shape_mismatch_detected():
    cfg = BlockPipelineConfig()
    a = Signal(np.zeros(256), FS)
    b = Signal(np.zeros(128), FS)
    with pytest.raises(ShapeMismatch):
        run_block_pipeline(a, b, cfg)
    c = Signal(np.zeros(256), 48000.0)
    with pytest.raises(ShapeMismatch):
        run_block_pipeline(a, c, cfg)


def test_bad_processor_length_detected():
    cfg = BlockPipelineConfig(block_samples=16)
    sig = Signal(np.zeros(64), FS)
    with pytest.raises(ShapeMismatch):
        run_block_pipeline(sig, sig, cfg, proc=lambda l, r: (l[:-1], r))


def test_nonstandard_block_size_constructs_without_a_warning():
    # a block outside the characterized set is a verdict about a run: the CLI warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert BlockPipelineConfig(block_samples=256).block_samples == 256
        with pytest.raises(ValueError):
            BlockPipelineConfig(block_samples=48)


def test_latency_beyond_the_float_range_is_refused_at_construction():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block, rate in ((2**1024, FS), (2**1023, FS), (16, 5e-324)):
            with pytest.raises(OverflowError):
                BlockPipelineConfig(block_samples=block, sample_rate=rate)


def test_noise_is_drawn_exactly_when_an_rng_is_given():
    sine = generate_sine(1000.0, 0.5, 0.01, FS)
    cfg = BlockPipelineConfig()
    quiet = run_block_pipeline(sine, sine, cfg)
    again = run_block_pipeline(sine, sine, cfg)
    assert [s.samples.tobytes() for s in quiet] == [s.samples.tobytes() for s in again]
    delay = latency_samples(cfg.latency, FS)
    err = quiet[0].samples[delay:] - sine.samples[: len(sine) - delay]
    assert np.max(np.abs(err)) <= 0.5 / 32767.0 + 1e-12  # the codec's rounding only
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    noisy, _ = run_block_pipeline(sine, sine, cfg, rng=rng)
    ref.normal(0.0, I2S_NOISE_FLOOR_RMS, size=(2, len(sine)))  # one draw per channel sample
    assert rng.bit_generator.state == ref.bit_generator.state
    assert not np.array_equal(noisy.samples, quiet[0].samples)


def test_config_rejects_a_rate_that_is_not_positive():
    # inf is refused as a rate, not as a latency beyond the float range
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        message = f"sample_rate must be positive and finite, got {rate}"
        with pytest.raises(ValueError, match=message):
            BlockPipelineConfig(sample_rate=rate)


# ---------------------------------------------------------------- characterization


@pytest.mark.parametrize("block", [16, 32, 64, 128])
def test_mls_latency_matches_prediction_within_one_sample(block):
    cfg = BlockPipelineConfig(block_samples=block)
    rng = np.random.default_rng(1)

    def system(s):
        return run_block_pipeline(s, s, cfg, rng=rng)[0]

    ir = measure_impulse_response(system, MlsConfig(15, 0.5, 1, FS))
    report = estimate_latency(ir)
    assert abs(report.latency_seconds - cfg.latency) <= 1.0 / FS


def test_noiseless_chain_thd_below_minus_90():
    cfg = BlockPipelineConfig()
    sine = generate_sine(1000.0, 0.5, 1.0, FS)
    left, _ = run_block_pipeline(sine, sine, cfg)
    trimmed = Signal(left.samples[4410:], FS)
    assert measure_thd(trimmed, 1000.0).thd_db < -90.0


def test_calibrated_distortion_reproduces_target_thd():
    dist = calibrate_distortion(target_hd3_db=-80.0, peak_amplitude=0.5 * np.sqrt(2.0))
    cfg = BlockPipelineConfig(distortion=dist)
    sine = generate_sine(1000.0, 0.5, 1.2, FS)
    left, _ = run_block_pipeline(sine, sine, cfg, rng=np.random.default_rng(2))
    trimmed = Signal(left.samples[6615:], FS)
    report = measure_thd(trimmed, 1000.0)
    assert report.thd_db == pytest.approx(-80.0, abs=0.5)
    assert report.thdn_db == pytest.approx(-68.0, abs=1.0)
