import numpy as np
import pytest

from audiochains.distortion import calibrate_distortion
from audiochains.errors import OutsideWeakRegime
from audiochains.measure import measure_thd
from audiochains.signals import Signal, generate_sine


def test_weak_regime_bounds():
    # the target check is the one rule: it bounds a3*A^2, whatever the peak A
    for peak in (0.5, 0.6):
        dist = calibrate_distortion(target_hd3_db=-40.0, peak_amplitude=peak)
        assert dist.a3 * peak**2 == pytest.approx(0.04, rel=1e-12)
    with pytest.raises(OutsideWeakRegime):
        calibrate_distortion(target_hd3_db=-30.0, peak_amplitude=1.0)
    # a NaN target is refused by name, not by the coefficient it would make
    with pytest.raises(OutsideWeakRegime, match="harmonic target nan dB"):
        calibrate_distortion(target_hd3_db=float("nan"), peak_amplitude=1.0)


def test_peak_amplitude_must_be_positive_and_finite():
    for peak in (0.0, -1.0, float("nan"), float("inf")):
        message = f"peak_amplitude must be positive and finite, got {peak}"
        with pytest.raises(ValueError, match=message):
            calibrate_distortion(target_hd3_db=-80.0, peak_amplitude=peak)


def test_coefficient_formulas():
    # trig-identity oracle: a3 = 4*10^(hd3/20)/A^2 with A^2 = 0.5 exactly
    dist = calibrate_distortion(target_hd3_db=-80.0, peak_amplitude=0.5 * np.sqrt(2.0))
    assert dist.a3 == pytest.approx(8.0e-4, rel=1e-9)


def _measured_harmonic_db(dist, amp_peak, order):
    fs = 96000.0
    sig = generate_sine(1000.0, amp_peak / np.sqrt(2.0), 1.0, fs)
    out = Signal(dist.apply(sig.samples), fs)
    report = measure_thd(out, 1000.0)
    return dict(report.harmonic_levels)[order]


def test_third_harmonic_lands_at_target():
    dist = calibrate_distortion(target_hd3_db=-80.0, peak_amplitude=0.5 * np.sqrt(2.0))
    assert _measured_harmonic_db(dist, 0.5 * np.sqrt(2.0), 3) == pytest.approx(-80.0, abs=0.1)
