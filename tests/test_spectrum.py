import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiochains.errors import EmptySignal
from audiochains.signals import Signal, generate_sine
from audiochains.spectrum import power_spectrum, window_samples


def _coherent_sine(freq, amp_rms, fs, n):
    t = np.arange(n) / fs
    return amp_rms * np.sqrt(2.0) * np.sin(2 * np.pi * freq * t + 0.17)


def _band(spec, center_hz, half_bins=3):
    """ENBW-corrected linear power (V^2 rms) of the spectrum's dBV bins."""
    center = int(round(center_hz / spec.resolution_hz))
    dbv = spec.bin_powers_dbv[max(center - half_bins, 0) : center + half_bins + 1]
    return np.sum(10 ** (dbv / 10)) / spec.enbw_bins


def test_dc_one_volt_reads_zero_dbv_any_window():
    spec = power_spectrum(Signal(np.ones(16384), 44100.0))
    assert spec.bin_powers_dbv[0] == pytest.approx(0.0, abs=1e-9)


def test_bin_centered_sine_peak_reads_tone_power():
    # 1 kHz lands exactly on bin 1000 of a 16384-point segment at 16384 Hz,
    # so the peak bin reads 20*log10(0.5) dBV.
    fs, n = 16384.0, 16384
    spec = power_spectrum(Signal(_coherent_sine(1000.0, 0.5, fs, n), fs))
    peak = int(np.argmax(spec.bin_powers_dbv))
    assert spec.bin_frequencies[peak] == 1000.0
    assert spec.bin_powers_dbv[peak] == pytest.approx(20 * np.log10(0.5), abs=1e-9)


def test_main_lobe_band_power_matches_amplitude():
    # off-bin tone: the ENBW-corrected main-lobe sum still reports the rms
    sig = generate_sine(1000.0, 0.5, 1.0, 44100.0)
    spec = power_spectrum(sig)  # 44100 samples: two 16384-sample segments
    level_db = 10 * np.log10(_band(spec, 1000.0))
    assert level_db == pytest.approx(20 * np.log10(0.5), abs=0.05)


def test_two_tone_band_powers_add():
    # Parseval accounting oracle: total of both tone bands equals the sum of
    # the analytically-known individual powers.
    fs, n = 44100.0, 1 << 17
    a1, a2 = 0.5, 0.2
    x = _coherent_sine(997.0, a1, fs, n) + _coherent_sine(3203.0, a2, fs, n)
    spec = power_spectrum(Signal(x, fs))
    measured = _band(spec, 997.0) + _band(spec, 3203.0)
    expected = a1**2 + a2**2
    assert 10 * np.log10(measured) == pytest.approx(10 * np.log10(expected), abs=0.1)


def test_parseval_hann_exact_on_windowed_frames_and_close_to_mean_square():
    # exact: the ENBW-corrected sum of all bins is the frames' mean of
    # sum((x * w)**2) / sum(w**2); close: the plain mean square of white noise
    x = np.random.default_rng(3).normal(0.0, 0.3, 1 << 18)
    spec = power_spectrum(Signal(x, 48000.0))
    total = _band(spec, 0.0, half_bins=len(spec.bin_powers_dbv))
    w = window_samples(16384)
    windowed = np.mean(np.sum((x.reshape(-1, 16384) * w) ** 2, axis=1)) / np.sum(w**2)
    assert 10 * np.log10(total / windowed) == pytest.approx(0.0, abs=1e-9)
    assert 10 * np.log10(total / np.mean(x**2)) == pytest.approx(0.0, abs=0.1)


def test_hann_enbw_is_1p5_bins():
    spec = power_spectrum(Signal(np.ones(4096), 48000.0))
    assert spec.enbw_bins == pytest.approx(1.5, rel=1e-12)


def test_spectrum_axes_and_resolution():
    # the segment is min(16384, n) rounded down to a power of two
    for n, segment in ((12000, 8192), (40000, 16384)):
        spec = power_spectrum(Signal(np.zeros(n), 44100.0))
        assert spec.resolution_hz == pytest.approx(44100.0 / segment)
        assert spec.bin_frequencies[0] == 0.0
        assert spec.bin_frequencies[-1] == pytest.approx(22050.0)
        assert len(spec.bin_frequencies) == segment // 2 + 1


@settings(max_examples=30, deadline=None)
@given(freq=st.floats(min_value=50.0, max_value=20000.0))
def test_sine_peak_lands_on_nearest_bin(freq):
    sig = generate_sine(freq, 0.5, 0.4, 44100.0)
    spec = power_spectrum(sig)
    peak = int(np.argmax(spec.bin_powers_dbv))
    assert abs(spec.bin_frequencies[peak] - freq) <= spec.resolution_hz * 0.51


@pytest.mark.parametrize("n", [8, 8192, 16384, 125685, 273600])
def test_window_is_the_periodic_hann(n):
    # built from block phasors; the direct cosine is the reference
    w = window_samples(n)
    k = np.arange(n)
    assert len(w) == n
    assert w[0] == 0.0
    assert np.max(np.abs(w - (0.5 - 0.5 * np.cos(2 * np.pi * k / n)))) <= 2e-15


@pytest.mark.parametrize("n_frames, n", [(1, 4096), (5, 16384)])
def test_power_spectrum_matches_the_abs_form(n_frames, n):
    frames = np.random.default_rng(7).normal(0.0, 0.3, (n_frames, n))
    w = window_samples(n)
    acc = np.zeros(n // 2 + 1)
    for frame in frames:
        acc += np.abs(np.fft.rfft(frame * w)) ** 2
    expected = acc / n_frames * 2.0 / w.sum() ** 2
    expected[0] /= 2.0
    expected[-1] /= 2.0
    spec = power_spectrum(Signal(frames.ravel(), 48000.0))
    powers = 10 ** (spec.bin_powers_dbv / 10)  # the dBV round trip
    np.testing.assert_allclose(powers, expected, rtol=1e-13, atol=0)


def test_hann_band_holds_a_tone_anywhere_in_its_bin():
    # the promise measure_thd's THD rests on: +/-3 bins hold the tone to
    # within 0.00031 dB, the worst case (3.05e-4 dB low) at half a bin
    fs = n = 44100
    w = window_samples(n)
    enbw_bins = n * np.sum(w * w) / w.sum() ** 2
    for offset in np.linspace(0.0, 1.0, 11):
        bin_pos = 1000.0 + offset
        x = _coherent_sine(bin_pos * fs / n, 0.5, fs, n)
        z = np.fft.rfft(x * w)
        powers = (z.real**2 + z.imag**2) * 2.0 / w.sum() ** 2
        centre = int(round(bin_pos))
        band = np.sum(powers[centre - 3 : centre + 4]) / enbw_bins
        level_db = 10 * np.log10(band / 0.25)
        assert -3.1e-4 <= level_db <= 1e-12, offset


def test_errors():
    with pytest.raises(EmptySignal):
        power_spectrum(Signal(np.array([]), 44100.0))
    with pytest.raises(ValueError, match="at least 2 samples"):
        power_spectrum(Signal(np.zeros(1), 44100.0))
