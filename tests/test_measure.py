from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from audiochains.errors import (
    AliasedStimulus,
    EmptySignal,
    FundamentalNotFound,
    NoPeak,
    TruncatedResponse,
)
from audiochains.i2s import BlockPipelineConfig, run_block_pipeline
from audiochains.measure import (
    HARMONIC_HALF_BINS,
    estimate_latency,
    harmonics_below_nyquist,
    measure_impulse_response,
    measure_thd,
)
from audiochains.mls import MlsConfig, generate_mls
from audiochains.signals import Signal, generate_sine
from audiochains.spectrum import power_spectrum

FS = 44100.0


def _tone(freq, amp_rms, duration=1.0, fs=FS, phase=0.0):
    return generate_sine(freq, amp_rms, duration, fs, phase=phase).samples


# ---------------------------------------------------------------- impulse response


def test_identity_system_unit_impulse():
    ir = measure_impulse_response(lambda s: s, MlsConfig(12, 0.5, 1, FS))
    assert ir.samples[0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(ir.samples[1:])) < 1e-9


def test_pure_delay_100_samples():
    def system(s):
        out = np.zeros(len(s))
        out[100:] = s.samples[:-100]
        return Signal(out, s.sample_rate)

    ir = measure_impulse_response(system, MlsConfig(12, 1.0, 3, FS))
    report = estimate_latency(ir)
    assert report.peak_sample_index == 100
    assert report.latency_seconds == pytest.approx(2.2676e-3, abs=1e-7)
    assert ir.samples[100] == pytest.approx(1.0, abs=1e-6)


def test_gain_half_system():
    ir = measure_impulse_response(
        lambda s: Signal(0.5 * s.samples, s.sample_rate), MlsConfig(12, 0.5, 1, FS)
    )
    assert ir.samples[0] == pytest.approx(0.5, abs=1e-6)


def test_output_dc_offset_does_not_disturb_the_peak():
    def system(s):
        out = np.zeros(len(s))
        out[37:] = s.samples[:-37]
        return Signal(out + 1.275, s.sample_rate)

    ir = measure_impulse_response(system, MlsConfig(12, 0.5, 1, FS))
    report = estimate_latency(ir)
    assert report.peak_sample_index == 37
    assert ir.samples[37] == pytest.approx(1.0, abs=1e-3)


def test_the_probe_is_four_periods_of_the_sequence_and_the_first_is_discarded():
    cfg = MlsConfig(10, 0.5, 1, FS)
    period = 2**10 - 1
    seen = []

    def warming_up(stimulus):
        seen.append(stimulus.samples)
        out = stimulus.samples.copy()
        out[:period] = np.random.default_rng(0).standard_normal(period)
        return Signal(out, FS)

    ir = measure_impulse_response(warming_up, cfg)
    (stimulus,) = seen
    assert len(stimulus) == 4 * period
    assert np.array_equal(stimulus, np.tile(generate_mls(cfg).samples, 4))
    assert ir.samples[0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(ir.samples[1:])) < 1e-6


def test_truncated_response_detected():
    def system(s):
        return Signal(s.samples[:-5], s.sample_rate)

    with pytest.raises(TruncatedResponse):
        measure_impulse_response(system, MlsConfig(10, 0.5, 1, FS))


def test_response_longer_than_one_period_raises_instead_of_wrapping():
    # 2.23 s of i2s latency against the 1.49 s order-16 period read 0.7436 s
    cfg = BlockPipelineConfig(block_samples=32768)
    rng = np.random.default_rng(0)

    def system(s):
        left, _ = run_block_pipeline(s, s, cfg, rng=rng)
        return left

    with pytest.raises(NoPeak, match=r"65535 samples, order 16"):
        measure_impulse_response(system, MlsConfig(16, 0.5, 1, cfg.sample_rate))


def test_mls_ir_matches_direct_impulse_response_lti():
    # FIR and IIR test systems; the MLS route must agree with a unit-impulse
    # probe to 1e-4 rms.
    fir = np.array([0.5, 0.25, -0.125, 0.0625, 0.2])
    b, a = sps.butter(2, 0.3)
    systems = [
        lambda s: Signal(sps.lfilter(fir, [1.0], s.samples), s.sample_rate),
        lambda s: Signal(sps.lfilter(b, a, s.samples), s.sample_rate),
    ]
    impulse = np.zeros(4095)
    impulse[0] = 1.0
    for system in systems:
        direct = system(Signal(impulse, FS)).samples
        ir = measure_impulse_response(system, MlsConfig(12, 0.5, 1, FS))
        err = np.sqrt(np.mean((ir.samples - direct) ** 2))
        assert err < 1e-4


# ---------------------------------------------------------------- latency report


def test_estimate_latency_errors():
    with pytest.raises(EmptySignal):
        estimate_latency(Signal(np.array([]), FS))
    with pytest.raises(NoPeak):
        estimate_latency(Signal(np.zeros(100), FS))


def test_latency_report_fields_consistent():
    h = np.zeros(1000)
    h[300] = 2.0
    h[:250] = 1e-4
    report = estimate_latency(Signal(h, FS))
    assert report.peak_sample_index == 300
    assert report.latency_seconds == pytest.approx(300 / FS)
    assert report.peak_to_noise_db > 60.0


def test_peak_to_noise_is_the_peak_over_the_rms_beyond_8_samples_of_it():
    h = np.full(200, 0.01)
    h[1::2] = -0.01
    peak = 100
    h[peak] = 1.0
    h[peak + 5] = 0.5  # excluded; a narrower window would count it
    h[peak - 8] = -0.3  # the window's last excluded sample
    h[[peak - 9, peak + 9]] = 0.02  # the first counted samples
    report = estimate_latency(Signal(h, FS))
    counted = len(h) - 17
    noise_rms = np.sqrt(((counted - 2) * 0.01**2 + 2 * 0.02**2) / counted)
    assert report.peak_sample_index == peak
    assert report.peak_to_noise_db == pytest.approx(20 * np.log10(1.0 / noise_rms), abs=1e-9)


@settings(max_examples=50)
@given(gain=st.floats(min_value=1e-6, max_value=1e6))
def test_latency_invariant_under_gain(gain):
    h = np.zeros(512)
    h[77] = -0.5
    h[100] = 0.02
    base = estimate_latency(Signal(h, FS))
    scaled = estimate_latency(Signal(gain * h, FS))
    assert scaled.peak_sample_index == base.peak_sample_index == 77
    assert scaled.peak_to_noise_db == pytest.approx(base.peak_to_noise_db, abs=1e-9)


# ---------------------------------------------------------------- THD


def test_thd_single_harmonic_minus_40db():
    x = _tone(1000.0, 1.0) + _tone(2000.0, 0.01, phase=0.7)
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thd_db == pytest.approx(-40.0, abs=0.1)
    assert dict(report.harmonic_levels)[2] == pytest.approx(-40.0, abs=0.1)


def test_thd_two_equal_harmonics():
    x = _tone(1000.0, 1.0) + _tone(2000.0, 0.01) + _tone(3000.0, 0.01, phase=1.1)
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thd_db == pytest.approx(10 * np.log10(2e-4), abs=0.1)


def test_pure_sine_reports_floor():
    report = measure_thd(Signal(_tone(997.3, 0.5), FS), 997.3)
    assert report.thd_db <= -120.0
    assert measure_thd(Signal(_tone(997.3, 0.5), FS), 997.3).thdn_db <= -120.0


def test_thd_randomized_profiles_match_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f0 = rng.uniform(300.0, 2500.0)
        rels = 10 ** (rng.uniform(-80.0, -45.0, size=4) / 20.0)
        x = _tone(f0, 0.7)
        for k, rel in zip(range(2, 6), rels):
            x = x + _tone(k * f0, 0.7 * rel, phase=rng.uniform(0, 2 * np.pi))
        expected = 10 * np.log10(np.sum(rels**2))
        report = measure_thd(Signal(x, FS), f0)
        assert report.thd_db == pytest.approx(expected, abs=0.1)


def test_harmonics_above_nyquist_excluded():
    # 15 kHz fundamental at 44.1 kHz: no harmonic band fits below Nyquist
    report = measure_thd(Signal(_tone(15000.0, 0.5), FS), 15000.0)
    assert report.harmonic_levels == ()
    assert report.thd_db == -np.inf


def test_fundamental_not_found():
    x = _tone(5000.0, 1.0) + _tone(1000.0, 0.001)
    with pytest.raises(FundamentalNotFound):
        measure_thd(Signal(x, FS), 1000.0)


@pytest.mark.parametrize("dc_lobe_hz, found", [(2.0, True), (5.0, False)])
def test_peak_search_skips_the_dc_main_lobe(dc_lobe_hz, found):
    # 1 s at 44.1 kHz: 1 Hz per bin.  A tone at bin 2 sits inside the skipped
    # bins 0-3 and loses the search; at bin 5 it is outside and wins it.
    x = Signal(_tone(1000.0, 0.5) + _tone(dc_lobe_hz, 1.0), FS)
    if found:
        measure_thd(x, 1000.0)
    else:
        with pytest.raises(FundamentalNotFound):
            measure_thd(x, 1000.0)


@pytest.mark.parametrize("f0", [22050.0, 30000.0])
def test_fundamental_at_or_above_nyquist_raises_aliased_stimulus(f0):
    with pytest.raises(AliasedStimulus, match=f"{f0:g} Hz .* got 44100 Hz") as caught:
        measure_thd(Signal(_tone(1000.0, 0.5), FS), f0)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("n", [4410, 4411, 9999])
@pytest.mark.parametrize("top_k", [3, 7, 20])
@pytest.mark.parametrize("nudge", [-1e-9, 0.0, 1e-9])
def test_harmonics_below_nyquist_are_the_ones_measure_thd_reads(n, top_k, nudge):
    # f0 puts harmonic top_k's band on the last bins below Nyquist, then a
    # hair inside (nudge < 0) or outside (nudge > 0) them
    f0 = (n // 2 - HARMONIC_HALF_BINS) * FS / (top_k * n) * (1.0 + nudge)
    t = np.arange(n) / FS
    amps = [1.0] + [0.01] * (top_k - 1)
    x = sum(a * np.sin(2 * np.pi * k * f0 * t + k) for k, a in enumerate(amps, start=1))
    read = [k for k, _ in measure_thd(Signal(x, FS), f0).harmonic_levels]
    assert harmonics_below_nyquist(n, f0, FS) == read
    if nudge:
        assert read[-1] == (top_k if nudge < 0 else top_k - 1)


def test_a_band_ending_on_the_nyquist_bin_is_read():
    # 0.1 s at 44.1 kHz: the 3rd harmonic of 7340 Hz sits exactly on bin 2202,
    # so its band ends on bin 2205, the Nyquist bin
    assert harmonics_below_nyquist(4410, 7340.0, FS) == [2, 3]


def test_too_short_signal_rejected():
    with pytest.raises(ValueError):
        measure_thd(Signal(_tone(1000.0, 0.5, duration=0.005), FS), 1000.0)


def test_the_ten_period_minimum_is_exact():
    # at 1 kHz and 44.1 kHz ten periods are 441 samples
    x = np.sin(2 * np.pi * 1000.0 * np.arange(441) / FS)
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thd_db < -100.0 and report.thdn_db < -100.0
    with pytest.raises(ValueError, match="at least 10 fundamental periods"):
        measure_thd(Signal(x[:440], FS), 1000.0)


HARMONIC_RELS = np.array([10 ** (-40 / 20), 10 ** (-50 / 20), 10 ** (-60 / 20)])
HARMONIC_RECORD_THD_DB = 10 * np.log10(np.sum(HARMONIC_RELS**2))


def _harmonic_record(f0, n, fs):
    """Unit fundamental plus harmonics 2-4 at -40/-50/-60 dB, n samples."""
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * f0 * t)
    for k, rel in zip(range(2, 5), HARMONIC_RELS):
        x = x + rel * np.sin(2 * np.pi * k * f0 * t + 0.5 * k)
    return Signal(x, fs)


@pytest.mark.parametrize(
    "f0, n",
    [
        (1000.0, 44122),  # 1000.5 cycles
        (997.3, 443),  # 10.02 cycles, just past the 10-period minimum
    ],
)
def test_thd_of_a_non_whole_cycle_record_matches_closed_form(f0, n):
    report = measure_thd(_harmonic_record(f0, n, FS), f0)
    assert report.thd_db == pytest.approx(HARMONIC_RECORD_THD_DB, abs=0.01)


def test_thdn_of_a_short_non_whole_cycle_record_is_within_its_stated_bound():
    # 10.5 cycles: the harmonics are not orthogonal to the sin/cos fit basis,
    # so THD+N reads about 0.024 dB below the closed form
    report = measure_thd(_harmonic_record(1000.0, 504, 48000.0), 1000.0)
    assert report.thdn_db == pytest.approx(HARMONIC_RECORD_THD_DB, abs=0.05)


# ---------------------------------------------------------------- THD+N


def test_thdn_sine_plus_white_noise_at_68db_snr():
    rng = np.random.default_rng(5)
    x = _tone(1000.0, 0.5, duration=2.0)
    x = x + rng.normal(0.0, 0.5 * 10 ** (-68 / 20), size=len(x))
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thdn_db == pytest.approx(-68.0, abs=0.5)


def test_thdn_equals_thd_for_harmonic_only_signal():
    x = _tone(1000.0, 1.0) + _tone(2000.0, 0.01, phase=0.4)
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thdn_db == pytest.approx(-40.0, abs=0.1)
    assert report.thdn_db == pytest.approx(report.thd_db, abs=0.1)


def test_thdn_never_below_thd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        f0 = rng.uniform(400.0, 3000.0)
        x = _tone(f0, 0.5) + _tone(2 * f0, 0.5 * 10 ** (rng.uniform(-70, -50) / 20))
        x = x + rng.normal(0.0, 10 ** (rng.uniform(-90, -60) / 20), size=len(x))
        report = measure_thd(Signal(x, FS), f0)
        assert report.thdn_db >= report.thd_db - 1e-6


def test_thdn_counts_every_sample_of_the_record():
    # 0.5 s at 44.1 kHz is 500 cycles; noise sits only in the last 30 samples
    x = _tone(1000.0, 0.5, duration=0.5)
    noise = np.zeros_like(x)
    noise[-30:] = np.random.default_rng(3).normal(0.0, 0.05, size=30)
    report = measure_thd(Signal(x + noise, FS), 1000.0)
    assert report.thdn_db == pytest.approx(10 * np.log10(np.mean(noise**2) / 0.25), abs=0.01)


def test_dc_offset_is_removed_before_the_ratio():
    x = _tone(1000.0, 0.5) + 1.275
    report = measure_thd(Signal(x, FS), 1000.0)
    assert report.thdn_db <= -120.0
    assert report.fundamental_power_dbv == pytest.approx(20 * np.log10(0.5), abs=0.01)


@pytest.mark.parametrize(
    "analyze",
    [lambda sig: measure_thd(sig, 1000.0), power_spectrum],
    ids=["measure_thd", "power_spectrum"],
)
def test_analysis_leaves_the_callers_samples_bit_identical(analyze):
    # Signal shares a float64 array with its caller; the analyzers use their
    # own buffers as scratch and only read this one
    x = _tone(1000.0, 0.5) + 1.25 + np.random.default_rng(4).normal(0.0, 1e-4, 44100)
    before = x.copy()
    sig = Signal(x, FS)
    analyze(sig)
    assert sig.samples.tobytes() == before.tobytes()


def _lstsq_fit_reference(sig, f0):
    """THD+N and fundamental power from lstsq on the explicit n x 3 basis.

    The basis angle is reduced exactly: f0 / fs = p / q in lowest terms puts
    sample k at 2 pi ((p k) mod q) / q, in integers, where 2 pi f0 k / fs
    would carry a rounding error that grows with k."""
    ratio = Fraction(str(f0)) / Fraction(str(sig.sample_rate))
    k = np.arange(len(sig), dtype=np.int64)
    angle = 2 * np.pi * (ratio.numerator * k % ratio.denominator) / ratio.denominator
    basis = np.column_stack([np.ones(len(sig)), np.cos(angle), np.sin(angle)])
    coef, *_ = np.linalg.lstsq(basis, sig.samples, rcond=None)
    residual = sig.samples - basis @ coef
    p1 = (coef[1] ** 2 + coef[2] ** 2) / 2.0
    return 10 * np.log10(np.mean(residual**2) / p1), 10 * np.log10(p1)


def _low_residual_record(f0, n, fs, offset=0.0):
    """0.5 Vrms tone, 3rd harmonic at -80 dB where it fits, noise near -90 dB."""
    t = np.arange(n) / fs
    x = 0.5 * np.sqrt(2.0) * np.sin(2 * np.pi * f0 * t + 0.3) + offset
    if 3 * f0 < fs / 2:
        x = x + 0.5 * np.sqrt(2.0) * 1e-4 * np.sin(2 * np.pi * 3 * f0 * t + 1.1)
    rng = np.random.default_rng(int(f0 * n) % 2**32)
    return Signal(x + rng.normal(0.0, 1.5e-5, size=n), fs)


@pytest.mark.parametrize(
    "f0, n, fs, offset",
    [
        (1000.0, 125685, 44100.0, 0.0),  # the CLI's i2s analysis record
        (1000.0, 273600, 96000.0, 1.25),  # the adcdac record with the DAC offset
        (997.3, 443, 44100.0, 0.0),  # 10.02 cycles
        (22000.0, 4410, 44100.0, 0.0),  # 100 Hz below Nyquist
        (1000.0, 512 * 250, 48000.0, 0.0),  # whole 512-sample blocks only
        (1000.0, 512 * 250 + 1, 48000.0, 1.25),  # a last block of one sample
        (1000.0, 500, 44100.0, 0.0),  # shorter than one 512-sample block
        (21609.0, 4410, 44100.0, 0.0),  # 0.49 fs
    ],
)
def test_normal_equation_fit_matches_lstsq_on_the_basis(f0, n, fs, offset):
    sig = _low_residual_record(f0, n, fs, offset)
    report = measure_thd(sig, f0)
    thdn_ref, p1_ref = _lstsq_fit_reference(sig, f0)
    # a basis at 2 pi f0 k / fs puts the 22 kHz record 2.7e-9 dB off the oracle
    assert report.thdn_db == pytest.approx(thdn_ref, abs=1e-10)
    assert report.fundamental_power_dbv == pytest.approx(p1_ref, abs=1e-10)


def test_fit_basis_and_test_tone_evaluate_trig_per_block_not_per_sample(monkeypatch):
    # signals.block_phasors takes cos/sin of about n / 512 block starts and
    # one 512-sample ramp; a per-sample basis would pass 547 200 elements here
    sig = _low_residual_record(1000.0, 273600, 96000.0, 1.25)
    elements = []

    def counted(ufunc):
        def call(x, *args, **kwargs):
            elements.append(np.size(x))
            return ufunc(x, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "cos", counted(np.cos))
    monkeypatch.setattr(np, "sin", counted(np.sin))
    measure_thd(sig, 1000.0)
    assert 0 < sum(elements) < 10_000
    elements.clear()
    assert len(generate_sine(1000.0, 0.5, 3.0, 96000.0)) == 288000
    assert 0 < sum(elements) < 10_000
