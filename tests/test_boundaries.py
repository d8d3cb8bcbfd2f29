"""Comparisons in `src` pinned at their exact edge.

Each test runs one comparison on both sides of its boundary, so swapping
its operator (`<` for `<=`, `>` for `>=`, or back) fails the test.
`scripts/mutants.py` lists each of those swaps as a mutant to be killed.
"""

import warnings

import numpy as np
import pytest

from audiochains import cli
from audiochains.adcdac import SampleChainConfig, SamplingSpeed
from audiochains.errors import FundamentalNotFound
from audiochains.i2s import BlockPipelineConfig
from audiochains.measure import estimate_latency, measure_thd
from audiochains.signals import Signal, generate_sine
from audiochains.spectrum import power_spectrum
from audiochains.wavio import write_wav


def test_a_latency_equal_to_the_warm_up_is_refused(tmp_path, monkeypatch):
    # cli._run_rows: cfg.latency >= WARMUP_SECONDS
    latency = BlockPipelineConfig(128).latency
    flags = ["--chain", "i2s", "--measure", "thd", "--block-samples", "128",
             "--out", str(tmp_path / "x.csv")]
    monkeypatch.setattr(cli, "WARMUP_SECONDS", latency)
    assert cli.main(flags) == 2
    monkeypatch.setattr(cli, "WARMUP_SECONDS", np.nextafter(latency, 1.0))
    assert cli.main(flags) == 0


def test_a_wav_in_one_sample_short_of_warm_up_plus_analysis_exits_2(tmp_path, capsys):
    # cli._run_rows: n < int(0.1 * rate), at 44.1 kHz 6615 warm-up samples plus 4410
    tone = generate_sine(1000.0, 0.5, 0.3, 44100.0).samples
    codes = {}
    for samples in (11025, 11024):
        stim = str(tmp_path / f"{samples}.wav")
        write_wav(Signal(tone[:samples], 44100.0), stim)
        codes[samples] = cli.main([
            "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
            "--wav-in", stim, "--out", str(tmp_path / f"{samples}.csv"),
        ])
    assert codes == {11025: 0, 11024: 2}
    err = capsys.readouterr().err
    assert "11024 samples" in err and "need at least 11025" in err


def test_block_1_is_the_smallest_power_of_two():
    # BlockPipelineConfig: b < 1
    assert BlockPipelineConfig(1).block_samples == 1
    with pytest.raises(ValueError, match="power of two"):
        BlockPipelineConfig(0)


@pytest.mark.parametrize("speed", list(SamplingSpeed))
def test_a_latency_of_exactly_one_sample_period_is_not_feasible(speed):
    # SampleChainConfig.realtime_feasible: sample_rate * latency < 1.0
    rate = 1.0 / SampleChainConfig(sampling_speed=speed).latency
    exact = SampleChainConfig(rate, speed)
    assert exact.sample_rate * exact.latency == 1.0
    assert not exact.realtime_feasible
    assert SampleChainConfig(np.nextafter(rate, 0.0), speed).realtime_feasible


def test_a_response_with_nothing_beyond_its_peak_reads_an_infinite_peak_to_noise():
    # estimate_latency: noise_rms > 0.0; a zero noise rms is never divided by
    impulse = np.zeros(4095)
    impulse[100] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = estimate_latency(Signal(impulse, 1.0))
    assert (clean.peak_sample_index, clean.peak_to_noise_db) == (100, np.inf)
    impulse[200] = 1e-3
    assert estimate_latency(Signal(impulse, 1.0)).peak_to_noise_db < np.inf


def test_two_samples_are_the_shortest_spectrum():
    # spectrum.power_spectrum: n < 2; the 2-sample Hann window is [0, 1]
    spec = power_spectrum(Signal(np.array([0.5, -0.25]), 8.0))
    assert spec.bin_frequencies.tolist() == [0.0, 4.0]
    assert spec.bin_powers_dbv == pytest.approx([20.0 * np.log10(0.25)] * 2, abs=1e-12)
    assert spec.bin_powers_dbv[0] == pytest.approx(-12.04, abs=0.005)
    with pytest.raises(ValueError, match="at least 2 samples"):
        power_spectrum(Signal(np.array([0.5]), 8.0))


def test_a_record_of_zeros_has_no_fundamental():
    # measure_thd: p1_fit <= 0.0; a zero fit power is never divided by
    silence = Signal(np.zeros(44100), 44100.0)
    with pytest.raises(FundamentalNotFound, match="no energy at the stated fundamental"):
        measure_thd(silence, 1000.0)
    faint = generate_sine(1000.0, 1e-6, 1.0, 44100.0)
    assert np.isfinite(measure_thd(faint, 1000.0).thdn_db)
