import numpy as np
import pytest

from audiochains import adcdac, i2s
from audiochains.adcdac import SamplingSpeed
from audiochains.distortion import calibrate_distortion
from audiochains.errors import OutsideWeakRegime
from audiochains.frontend import highpass_coeffs, sallen_key_coeffs
from audiochains.measure import measure_thd
from audiochains.signals import CALIBRATION_VRMS, Signal, generate_sine


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


# ------------------------------------------------ the calibration, end to end

# A 3 s record with the first 0.15 s dropped, as each CLI row analyzes it.
RECORD_SECONDS, WARMUP_SECONDS = 3.0, 0.15
I2S_RATE, ADCDAC_RATE = i2s.BlockPipelineConfig.sample_rate, adcdac.SampleChainConfig.sample_rate
LOW, HIGH = SamplingSpeed.LOW_SPEED, SamplingSpeed.HIGH_SPEED
# row: (THD target, sample rate, config given the calibrated distortion)
ROWS = {
    "i2s block 128": (i2s.THD_DB, I2S_RATE, lambda d: i2s.BlockPipelineConfig(128, I2S_RATE, d)),
    "adcdac LOW": (adcdac.THD_DB[LOW], ADCDAC_RATE,
                   lambda d: adcdac.SampleChainConfig(ADCDAC_RATE, LOW, d)),
    "adcdac HIGH": (adcdac.THD_DB[HIGH], ADCDAC_RATE,
                    lambda d: adcdac.SampleChainConfig(ADCDAC_RATE, HIGH, d)),
}


def _row_reading(row: str, freq: float, rng):
    """The row's chain, calibrated as the CLI calibrates it, read at freq."""
    thd_db, rate, config = ROWS[row]
    cfg = config(calibrate_distortion(thd_db, CALIBRATION_VRMS * np.sqrt(2.0)))
    sine = generate_sine(freq, CALIBRATION_VRMS, RECORD_SECONDS, rate)
    if row.startswith("i2s"):
        out = i2s.run_block_pipeline(sine, sine, cfg, rng=rng)[0]
    else:
        out = adcdac.run_sample_pipeline(sine, sine, cfg, rng)
    return measure_thd(Signal(out.samples[int(WARMUP_SECONDS * rate):], rate), freq)


def _front_end_gain(freq: float, rate: float) -> float:
    """|H(freq)| of the adcdac conditioning: the coupling pole times the Sallen-Key stage."""
    z = np.exp(2j * np.pi * freq / rate)
    stages = (highpass_coeffs(rate), sallen_key_coeffs(rate))
    return float(np.prod([abs(np.polyval(b, z) / np.polyval(a, z)) for b, a in stages]))


@pytest.mark.parametrize("row", list(ROWS))
def test_noiseless_chain_thd_at_997_hz_is_the_closed_form(row):
    # 997 Hz (the AES17 test tone) does not repeat within a few hundred
    # samples, so the chains' quantization error spreads into noise instead of
    # landing on the harmonics.  For x = A sin, x + a3 x^3 has the fundamental
    # A (1 + 3r) and the 3rd harmonic A r, r = 10**(THD_DB/20); the adcdac
    # front end then scales the 3rd harmonic by its gain at 3f over that at f.
    thd_db, rate, _ = ROWS[row]
    predicted = thd_db - 20.0 * np.log10(1.0 + 3.0 * 10.0 ** (thd_db / 20.0))
    if row.startswith("adcdac"):
        gain = _front_end_gain(3 * 997.0, rate) / _front_end_gain(997.0, rate)
        predicted += 20.0 * np.log10(gain)
    assert _row_reading(row, 997.0, None).thd_db == pytest.approx(predicted, abs=0.006)


# THD+N target and the converters' quantization noise power, in V^2
ADCDAC_QUANTIZATION = adcdac.ADC_SPEC.lsb**2 / 24.0 + adcdac.DAC_SPEC.lsb**2 / 12.0
NOISE_BUDGET = {
    # one 16-bit step of the codec's +/-1 V full scale
    "i2s block 128": (i2s.THDN_DB, (1.0 / 32767.0) ** 2 / 12.0),
    # two ADC conversions averaged, then the DAC's
    "adcdac LOW": (adcdac.THDN_DB[LOW], ADCDAC_QUANTIZATION),
    "adcdac HIGH": (adcdac.THDN_DB[HIGH], ADCDAC_QUANTIZATION),
}


@pytest.mark.parametrize("row", list(NOISE_BUDGET))
def test_mean_thdn_over_16_seeds_meets_the_noise_budget(row):
    # the budget is built from the targets and the converter steps, not from
    # the noise constants derived from them
    thd_db, (thdn_db, quantization_power) = ROWS[row][0], NOISE_BUDGET[row]
    v2 = CALIBRATION_VRMS**2
    noise_power = v2 * (10.0 ** (thdn_db / 10.0) - 10.0 ** (thd_db / 10.0)) + quantization_power
    budget = 10.0 * np.log10(noise_power / v2 + 10.0 ** (thd_db / 10.0))
    readings = [_row_reading(row, 1000.0, np.random.default_rng(seed)) for seed in range(16)]
    assert np.mean([r.thdn_db for r in readings]) == pytest.approx(budget, abs=0.02)
