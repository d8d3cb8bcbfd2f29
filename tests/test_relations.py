"""Metamorphic relations of the analyzers (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

Each relation states how a figure must move when its input moves in a known
way, so it needs no reference value and holds across rewrites that move the
golden outputs.  The input is the CLI's i2s block-128 thd row at seed 0 and
44.1 kHz: the 125 685 samples after the warm-up, 2850 whole cycles of the
1 kHz tone.  Hypothesis draws each transform.  dB figures are held to the
golden manifest's 1e-9 dB; sample indices exactly.

THD under a whole-period rotation is not asserted: its Hann-windowed bands
move by about 1e-3 dB when the record is rolled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiochains import cli
from audiochains.i2s import BlockPipelineConfig, run_block_pipeline
from audiochains.measure import estimate_latency, measure_impulse_response, measure_thd
from audiochains.mls import MlsConfig
from audiochains.signals import CALIBRATION_VRMS, Signal, generate_sine
from audiochains.spectrum import power_spectrum

RATE = 44100.0
TONE = cli.STIMULUS_HZ
DB_TOL = 1e-9
PERIOD = 441  # samples in 10 cycles of the tone, the shortest whole number

# a nonzero gain: a sign, and a magnitude from 1e-3 to 1e3
gains = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                  st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))


@pytest.fixture(scope="module")
def row() -> np.ndarray:
    cfg = cli._chain_config("i2s", 128, RATE, with_distortion=True)
    sine = generate_sine(TONE, CALIBRATION_VRMS, cli.STIMULUS_SECONDS, RATE)
    left, _ = run_block_pipeline(sine, sine, cfg, rng=cli._param_rng(0, 128))
    return left.samples[int(cli.WARMUP_SECONDS * RATE) :]


@pytest.fixture(scope="module")
def figures(row):
    return measure_thd(Signal(row, RATE), TONE)


@settings(max_examples=50, deadline=None)
@given(gain=gains, offset=st.floats(-5.0, 5.0))
def test_thd_and_thdn_ignore_an_affine_map_of_the_input(row, figures, gain, offset):
    moved = measure_thd(Signal(gain * row + offset, RATE), TONE)
    assert moved.thd_db == pytest.approx(figures.thd_db, abs=DB_TOL)
    assert moved.thdn_db == pytest.approx(figures.thdn_db, abs=DB_TOL)


@settings(max_examples=20, deadline=None)
@given(gain=gains)
def test_a_gain_moves_every_spectrum_bin_by_its_level(row, gain):
    base = power_spectrum(Signal(row, RATE)).bin_powers_dbv
    moved = power_spectrum(Signal(gain * row, RATE)).bin_powers_dbv
    np.testing.assert_allclose(moved - base, 20.0 * np.log10(abs(gain)), rtol=0, atol=DB_TOL)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.5, 3.0))
def test_thd_and_thdn_depend_on_the_tone_over_the_rate_only(row, figures, scale):
    moved = measure_thd(Signal(row, scale * RATE), scale * TONE)
    assert moved.thd_db == pytest.approx(figures.thd_db, abs=DB_TOL)
    assert moved.thdn_db == pytest.approx(figures.thdn_db, abs=DB_TOL)


def _latency_index(delay: int) -> int:
    """Peak index of the noiseless block-32 chain followed by `delay` more samples."""
    cfg = BlockPipelineConfig(32)

    def system(s: Signal) -> Signal:
        out = run_block_pipeline(s, s, cfg)[0].samples
        return Signal(np.concatenate([np.zeros(delay), out[: len(out) - delay]]), s.sample_rate)

    ir = measure_impulse_response(system, MlsConfig(12, sample_rate=cfg.sample_rate))
    return estimate_latency(ir).peak_sample_index


@settings(max_examples=15, deadline=None)
@given(delay=st.integers(1, 1000))
def test_a_delay_of_whole_samples_moves_the_latency_peak_by_as_many(delay):
    assert _latency_index(delay) == _latency_index(0) + delay


@settings(max_examples=30, deadline=None)
@given(periods=st.integers(1, 284))  # the row holds 285 of them
def test_thdn_ignores_a_rotation_by_whole_periods(row, figures, periods):
    moved = measure_thd(Signal(np.roll(row, periods * PERIOD), RATE), TONE)
    assert moved.thdn_db == pytest.approx(figures.thdn_db, abs=DB_TOL)
