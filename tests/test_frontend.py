import tracemalloc

import numpy as np
import pytest
from scipy import signal as sps

from audiochains import frontend
from audiochains.errors import DamageVoltage
from audiochains.frontend import check_damage, front_end_filter, highpass_coeffs, sallen_key_coeffs
from audiochains.signals import Signal, generate_sine

FS = 96000.0


def filter_gain_db(b, a, freq, sample_rate):
    """The coefficients' magnitude at one frequency, read from scipy's freqz."""
    _, h = sps.freqz(b, a, worN=[freq], fs=sample_rate)
    return 20.0 * np.log10(abs(h[0]))


def test_constants_keep_the_physical_ordering():
    assert 0.0 < frontend.COUPLING_CUTOFF < frontend.SALLEN_KEY_CUTOFF
    assert frontend.RAIL_LOW < frontend.BIAS_VOLTAGE < frontend.RAIL_HIGH
    assert frontend.DAMAGE_LOW < frontend.RAIL_LOW and frontend.DAMAGE_HIGH > frontend.RAIL_HIGH
    assert frontend.SALLEN_KEY_Q > 0.0


def test_zero_input_settles_on_the_bias():
    sig = Signal(np.zeros(2000), FS)
    out = front_end_filter(sig)
    tail = out.samples[500:]
    assert np.allclose(tail, 1.65, atol=1e-9)


def test_unity_gain_at_1khz():
    # closed-form oracle: cascade magnitude from the coefficients
    bh, ah = highpass_coeffs(FS)
    bl, al = sallen_key_coeffs(FS)
    oracle_db = filter_gain_db(bh, ah, 1000.0, FS) + filter_gain_db(bl, al, 1000.0, FS)
    assert oracle_db == pytest.approx(0.0, abs=0.01)

    sine = generate_sine(1000.0, 0.5, 0.5, FS)
    out = front_end_filter(sine)
    tail = out.samples[4800:]
    measured = np.sqrt(np.mean((tail - np.mean(tail)) ** 2))
    assert 20 * np.log10(measured / 0.5) == pytest.approx(0.0, abs=0.01)


def _gain_error_db(rate, freqs):
    """The Sallen-Key coefficients' magnitude less the analog prototype's (scipy freqs)."""
    _, h = sps.freqz(*sallen_key_coeffs(rate), worN=freqs, fs=rate)
    wc = 2.0 * np.pi * frontend.SALLEN_KEY_CUTOFF
    _, ha = sps.freqs([wc * wc], [1.0, wc / frontend.SALLEN_KEY_Q, wc * wc], 2.0 * np.pi * freqs)
    return 20.0 * np.log10(np.abs(h / ha))


def test_sallen_key_follows_the_analog_prototype():
    # in band at the audio rates, whose Nyquist lies below the 40 kHz corner or above it
    for rate in (44100.0, 48000.0, 96000.0):
        err = _gain_error_db(rate, np.append(np.geomspace(20.0, 10000.0, 60), 20000.0))
        assert np.max(np.abs(err[:-1])) <= 0.05 and abs(err[-1]) <= 0.2
    # oversampled, the digital corner converges on the analog -3.01 dB
    corner = filter_gain_db(*sallen_key_coeffs(1536000.0), frontend.SALLEN_KEY_CUTOFF, 1536000.0)
    assert corner == pytest.approx(-3.01, abs=0.05)


def test_large_sine_clips_at_the_rail():
    # 1.65 +/- 1.7 V crosses both rails but stays inside the damage window
    sine = generate_sine(1000.0, 1.7 / np.sqrt(2.0), 0.2, FS)
    out = front_end_filter(sine)
    assert np.max(out.samples) == pytest.approx(3.27, abs=1e-12)
    assert np.max(out.samples) <= 3.27
    assert np.min(out.samples) == pytest.approx(0.030, abs=1e-12)
    assert np.min(out.samples) >= 0.030


def test_filter_raises_on_a_damaging_pin_voltage():
    # 1.65 + 3 V peaks leave the 3.5 V absolute maximum before the clamp
    sine = generate_sine(1000.0, 3.0 / np.sqrt(2.0), 0.2, FS)
    with pytest.raises(DamageVoltage):
        front_end_filter(sine)


def test_check_damage():
    with pytest.raises(DamageVoltage):
        check_damage(3.6)
    with pytest.raises(DamageVoltage):
        check_damage(-0.3)
    check_damage(1.65)  # mid-range passes
    check_damage(np.array([0.0, 3.3]))
    with pytest.raises(DamageVoltage):
        check_damage(np.array([1.0, 5.0]))


def test_the_damage_window_is_exact():
    # the documented -0.2 .. 3.5 V window is closed: its edges pass and one
    # ulp beyond either raises
    for edge, outward in ((-0.2, -np.inf), (3.5, np.inf)):
        check_damage(edge)
        with pytest.raises(DamageVoltage):
            check_damage(np.nextafter(edge, outward))


def test_highpass_blocks_dc_exactly():
    bh, ah = highpass_coeffs(FS)
    # passband ripple is bounded by the pole radius, ~1e-5 dB at 40 mHz
    assert filter_gain_db(bh, ah, 1000.0, FS) == pytest.approx(0.0, abs=1e-4)
    z_dc = np.sum(bh) / np.sum(ah)
    assert z_dc == pytest.approx(0.0, abs=1e-15)


def test_sallen_key_is_stable_and_minimum_phase_at_any_rate():
    # 80 kHz puts the corner on Nyquist, 44.1 and 48 kHz above it
    for rate in (44100.0, 48000.0, 80000.0, 96000.0, 1536000.0):
        bl, al = sallen_key_coeffs(rate)
        assert np.max(np.abs(np.roots(al))) < 1.0
        assert np.max(np.abs(np.roots(bl))) < 1.0


def _lfilter_front_end(sig):
    # the two filters run sample by sample, the oracle the block form must match
    bh, ah = highpass_coeffs(sig.sample_rate)
    bl, al = sallen_key_coeffs(sig.sample_rate)
    raw = sps.lfilter(bl, al, sps.lfilter(bh, ah, sig.samples) + frontend.BIAS_VOLTAGE)
    return np.clip(raw, frontend.RAIL_LOW, frontend.RAIL_HIGH)


@pytest.mark.parametrize("rate", [48000.0, 80500.0, 88200.0, 96000.0, 192000.0])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 20000])
def test_block_form_matches_lfilter(rate, n):
    samples = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    sig = Signal(samples, rate)
    out = front_end_filter(sig).samples
    assert out.shape == (n,)
    assert np.max(np.abs(out - _lfilter_front_end(sig)), initial=0.0) <= 1e-12


def test_block_form_matches_lfilter_over_a_60_s_record():
    sig = generate_sine(1000.0, 0.5, 60.0, FS)
    err = np.abs(front_end_filter(sig).samples - _lfilter_front_end(sig))
    assert np.max(err) <= 1e-12


def test_filter_allocates_one_full_length_array():
    # the output overwrites the padded copy of the input; per-block states,
    # the scan's temporaries and the product's operand add a fraction of it
    sig = generate_sine(1000.0, 0.5, 3.0, FS)
    front_end_filter(sig)  # build the cached block map outside the measurement
    tracemalloc.start()
    try:
        front_end_filter(sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sig.samples.nbytes
