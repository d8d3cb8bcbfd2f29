import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiochains.errors import EmptySignal
from audiochains.signals import Signal, generate_sine
from audiochains.spectrum import power_spectrum, windowed_power


def _coherent_sine(freq, amp_rms, fs, n):
    t = np.arange(n) / fs
    return amp_rms * np.sqrt(2.0) * np.sin(2 * np.pi * freq * t + 0.17)


def _rectangular_dbv(x):
    powers, _ = windowed_power(x[np.newaxis], np.ones(len(x)))
    return 10 * np.log10(np.maximum(powers, 1e-300))


def _band(spec, center_hz, half_bins=3):
    """ENBW-corrected linear power (V^2 rms) of the spectrum's dBV bins."""
    center = int(round(center_hz / spec.resolution_hz))
    dbv = spec.bin_powers_dbv[max(center - half_bins, 0) : center + half_bins + 1]
    return np.sum(10 ** (dbv / 10)) / spec.enbw_bins


def test_dc_one_volt_reads_zero_dbv_any_window():
    x = np.ones(16384)
    assert _rectangular_dbv(x)[0] == pytest.approx(0.0, abs=1e-9)
    spec = power_spectrum(Signal(x, 44100.0))
    assert spec.bin_powers_dbv[0] == pytest.approx(0.0, abs=1e-9)


def test_bin_centered_sine_peak_reads_tone_power():
    # 1 kHz lands exactly on bin 1000 of a 16384-point segment at 16384 Hz,
    # so the peak bin reads 20*log10(0.5) dBV for either window.
    fs, n = 16384.0, 16384
    x = _coherent_sine(1000.0, 0.5, fs, n)
    spec = power_spectrum(Signal(x, fs))
    for dbv in (_rectangular_dbv(x), spec.bin_powers_dbv):
        peak = int(np.argmax(dbv))
        assert spec.bin_frequencies[peak] == 1000.0
        assert dbv[peak] == pytest.approx(20 * np.log10(0.5), abs=1e-9)


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


def test_parseval_rectangular_exact_and_hann_close():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 0.3, 1 << 18)
    sig = Signal(x, 48000.0)
    mean_square = float(np.mean(x**2))
    powers_r, enbw_r = windowed_power(x.reshape(-1, 16384), np.ones(16384))
    total_r = np.sum(powers_r) / enbw_r
    assert 10 * np.log10(total_r / mean_square) == pytest.approx(0.0, abs=1e-9)
    spec_h = power_spectrum(sig)
    total_h = _band(spec_h, 0.0, half_bins=len(spec_h.bin_powers_dbv))
    assert 10 * np.log10(total_h / mean_square) == pytest.approx(0.0, abs=0.1)


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


def test_errors():
    with pytest.raises(EmptySignal):
        power_spectrum(Signal(np.array([]), 44100.0))
    with pytest.raises(ValueError, match="at least 2 samples"):
        power_spectrum(Signal(np.zeros(1), 44100.0))
