"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines with
the measured numbers; a pytest failure on any test is the FAIL line.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import audiochains as ac
from audiochains import cli
from audiochains.measure import (
    estimate_latency,
    measure_impulse_response,
    measure_thd,
)
from audiochains.mls import MlsConfig, lfsr_bits
from audiochains.signals import Signal, generate_sine

I2S_FS = 44100.0
ADCDAC_FS = 96000.0
OVERSAMPLE = 16


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# -------------------------------------------------------------------- 1. i2s latency


def test_i2s_latency_table():
    started = time.time()
    tolerance = 1.0 / I2S_FS  # one sample period, 22.7 us
    table = {16: 1.63e-3, 32: 2.7e-3, 64: 4.9e-3, 128: 9.24e-3}
    measured = {}
    for block, reference in table.items():
        cfg = ac.BlockPipelineConfig(block_samples=block)
        rng = np.random.default_rng(0)

        def system(s):
            return ac.run_block_pipeline(s, s, cfg, rng=rng)[0]

        ir = measure_impulse_response(system, MlsConfig(16, 0.5, 1, I2S_FS))
        latency = estimate_latency(ir).latency_seconds
        measured[block] = latency
        assert latency == pytest.approx(reference, abs=tolerance), f"block {block}"
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(
        "i2s-latency-table",
        " ".join(f"{b}->{measured[b] * 1e3:.4f}ms" for b in table) + f" ({elapsed:.1f}s)",
    )


# -------------------------------------------------------------------- 2. adcdac latency


def test_adcdac_latency_table():
    started = time.time()
    fs_sim = ADCDAC_FS * OVERSAMPLE
    tolerance = 1.0 / fs_sim
    assert tolerance <= 0.7e-6
    table = {ac.SamplingSpeed.LOW_SPEED: 12e-6, ac.SamplingSpeed.HIGH_SPEED: 9.6e-6}
    measured = {}
    for speed, reference in table.items():
        cfg = ac.SampleChainConfig(sample_rate=fs_sim, sampling_speed=speed)
        rng = np.random.default_rng(0)

        def system(s):
            biased = Signal(s.samples + 1.65, fs_sim)
            return ac.run_sample_pipeline(biased, biased, cfg, rng, front_end=False)

        ir = measure_impulse_response(system, MlsConfig(12, 0.5, 1, fs_sim))
        latency = estimate_latency(ir).latency_seconds
        measured[speed] = latency
        assert latency == pytest.approx(reference, abs=tolerance), speed
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(
        "adcdac-latency-table",
        " ".join(f"{s.value}->{measured[s] * 1e6:.3f}us" for s in table)
        + f" (tol {tolerance * 1e6:.3f}us, {elapsed:.1f}s)",
    )


# -------------------------------------------------------------------- helpers for 3/4


def _i2s_chain_report(seed: int):
    dist = ac.calibrate_distortion(target_hd3_db=-80.0, peak_amplitude=0.5 * np.sqrt(2.0))
    cfg = ac.BlockPipelineConfig(distortion=dist)
    sine = generate_sine(1000.0, 0.5, 3.0, I2S_FS)
    out, _ = ac.run_block_pipeline(sine, sine, cfg, rng=np.random.default_rng(seed))
    trimmed = Signal(out.samples[int(0.15 * I2S_FS) :], I2S_FS)
    return measure_thd(trimmed, 1000.0)


def _adcdac_chain_report(seed: int):
    dist = ac.calibrate_distortion(target_hd3_db=-76.0, peak_amplitude=0.5 * np.sqrt(2.0))
    cfg = ac.SampleChainConfig(distortion=dist)  # LOW_SPEED
    sine = generate_sine(1000.0, 0.5, 3.0, ADCDAC_FS)
    out = ac.run_sample_pipeline(sine, sine, cfg, np.random.default_rng(seed))
    trimmed = Signal(out.samples[int(0.15 * ADCDAC_FS) :], ADCDAC_FS)
    return measure_thd(trimmed, 1000.0)


# -------------------------------------------------------------------- 3. THD closure


def test_thd_reproduction():
    i2s_report = _i2s_chain_report(seed=0)
    assert i2s_report.thd_db == pytest.approx(-80.0, abs=0.5)
    adc_report = _adcdac_chain_report(seed=0)
    assert adc_report.thd_db == pytest.approx(-76.0, abs=0.5)
    _report(
        "thd-reproduction",
        f"i2s {i2s_report.thd_db:.2f} dB (target -80), "
        f"adcdac LOW {adc_report.thd_db:.2f} dB (target -76)",
    )


# -------------------------------------------------------------------- 4. THD+N closure


def test_thdn_calibration_closure():
    i2s_report = _i2s_chain_report(seed=1)
    assert i2s_report.thdn_db == pytest.approx(-68.0, abs=1.0)
    adc_report = _adcdac_chain_report(seed=1)
    assert adc_report.thdn_db == pytest.approx(-63.0, abs=1.0)
    _report(
        "thdn-calibration-closure",
        f"i2s {i2s_report.thdn_db:.2f} dB (target -68), "
        f"adcdac LOW {adc_report.thdn_db:.2f} dB (target -63)",
    )


# -------------------------------------------------------------------- 5. analyzer exactness


def test_analyzer_exactness():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        f0 = rng.uniform(200.0, 2500.0)
        n_harmonics = int(rng.integers(1, 6))
        orders = rng.choice(np.arange(2, 9), size=n_harmonics, replace=False)
        rel_amps = 10 ** (rng.uniform(-85.0, -45.0, size=n_harmonics) / 20.0)
        base = rng.uniform(0.2, 1.0)
        sig = generate_sine(f0, base, 0.5, I2S_FS, phase=rng.uniform(0, 2 * np.pi))
        x = sig.samples
        for k, rel in zip(orders, rel_amps):
            x = x + generate_sine(
                k * f0, base * rel, 0.5, I2S_FS, phase=rng.uniform(0, 2 * np.pi)
            ).samples
        expected = 10 * np.log10(np.sum(rel_amps**2))
        got = measure_thd(Signal(x, I2S_FS), f0).thd_db
        worst = max(worst, abs(got - expected))
        assert got == pytest.approx(expected, abs=0.1)

    noise_sig = generate_sine(1000.0, 0.5, 2.0, I2S_FS)
    noisy = noise_sig.samples + rng.normal(0.0, 0.5 * 10 ** (-68 / 20), len(noise_sig))
    thdn = measure_thd(Signal(noisy, I2S_FS), 1000.0).thdn_db
    assert thdn == pytest.approx(-68.0, abs=0.5)
    _report(
        "analyzer-exactness",
        f"worst THD error {worst:.4f} dB over 100 profiles; "
        f"68 dB SNR read {thdn:.2f} dB",
    )


# -------------------------------------------------------------------- 6. MLS properties


def test_mls_properties():
    for order in range(2, 17):
        length = (1 << order) - 1
        bits = lfsr_bits(order, 1, 2 * length)
        assert np.array_equal(bits[:length], bits[length:]), f"period, order {order}"
        chips = (2 * bits[:length].astype(np.int64)) - 1
        assert chips.sum() == 1, f"balance, order {order}"
        if order <= 12:
            corr = np.array(
                [int(np.dot(chips, np.roll(chips, -lag))) for lag in range(length)]
            )
        else:
            raw = np.fft.irfft(np.abs(np.fft.rfft(chips)) ** 2, n=length)
            corr = np.rint(raw).astype(np.int64)
            assert np.max(np.abs(raw - corr)) < 1e-3
        assert corr[0] == length and np.all(corr[1:] == -1), f"autocorr, order {order}"

    # MLS-derived IR of an LTI system against a direct unit-impulse probe
    taps = np.array([0.4, -0.3, 0.2, 0.1, -0.05, 0.025])

    def system(s):
        return Signal(np.convolve(s.samples, taps)[: len(s)], s.sample_rate)

    ir = measure_impulse_response(system, MlsConfig(13, 0.5, 1, I2S_FS))
    impulse = np.zeros(len(ir))
    impulse[0] = 1.0
    direct = system(Signal(impulse, I2S_FS)).samples
    rms_err = float(np.sqrt(np.mean((ir.samples - direct) ** 2)))
    assert rms_err < 1e-4
    _report("mls-properties", f"orders 2..16 exact; LTI IR rms error {rms_err:.2e}")


# -------------------------------------------------------------------- 7. micro-contracts


def _oracle_process(code0: int, code1: int) -> tuple[int, bool]:
    conv_adc = Fraction(33, 10) / 65535
    in0 = code0 * conv_adc - Fraction(13, 8)
    in1 = code1 * conv_adc - Fraction(13, 8)
    value = (in0 / 2 + in1 / 2 + Fraction(5, 4)) * 65535 / Fraction(5, 2)
    floor = value.numerator // value.denominator
    frac = value - floor
    # 100 * value = 66 * (c0 + c1) - 983025 is odd: never a tie
    assert frac != Fraction(1, 2)
    rounded = floor + 1 if frac > Fraction(1, 2) else floor
    clipped = rounded < 0 or rounded > 65535
    return min(max(rounded, 0), 65535), clipped


def test_bit_exact_micro_contracts():
    # SPI framing: exhaustive round trip
    for code in range(65536):
        assert ac.spi_decode(ac.spi_encode(code)) == code

    # per-sample arithmetic against the exact integer form of the rational
    # oracle, 100 * value = 66 * (c0 + c1) - 983025, on 1e7 random pairs.  The
    # right side is odd, so value never ends in .5 and rounding to nearest
    # needs no tie rule: round(value) = floor((100 * value + 50) / 100).
    def integer_oracle(c0, c1):
        rounded = (66 * (c0 + c1) - 983025 + 50) // 100
        return np.clip(rounded, 0, 65535), (rounded < 0) | (rounded > 65535)

    # the rational oracle vouches for the integer form on the rails, on both
    # sides of each clip edge (c0 + c1 = 14893 | 14894 and 114190 | 114191)
    # and on 2000 random pairs
    rng = np.random.default_rng(99)
    edges = [[0, 0], [65535, 65535], [14893, 0], [0, 14894], [65535, 48655], [48656, 65535]]
    subset = np.concatenate([edges, rng.integers(0, 65536, size=(2000, 2))])
    for (c0, c1), code, clip in zip(subset, *integer_oracle(subset[:, 0], subset[:, 1])):
        assert (int(code), bool(clip)) == _oracle_process(int(c0), int(c1))
    checked = 0
    for _ in range(10):  # chunks of 1e6 pairs
        pairs = rng.integers(0, 65536, size=(1_000_000, 2))
        codes, clipped = ac.process_sample(pairs[:, 0], pairs[:, 1])
        expect_code, expect_clip = integer_oracle(pairs[:, 0], pairs[:, 1])
        assert np.array_equal(codes, expect_code)
        assert np.array_equal(clipped, expect_clip)
        checked += len(pairs)

    # quantizer round trip within half an LSB over a full-range sweep
    spec = ac.QuantizerSpec(3.3)
    sweep = np.linspace(0.0, 3.3, 200_001)
    back = ac.dequantize(ac.quantize_uniform(sweep, spec), spec)
    worst = float(np.max(np.abs(back - sweep)))
    assert worst <= spec.lsb / 2 + 1e-12
    _report(
        "bit-exact-micro-contracts",
        f"spi 65536/65536, process_sample {checked}/{checked}, "
        f"round trip worst {worst * 1e6:.3f} uV (half LSB {spec.lsb / 2 * 1e6:.3f} uV)",
    )


# -------------------------------------------------------------------- 8. determinism


def test_determinism_byte_identical_outputs(tmp_path):
    csv_path = str(tmp_path / "report.csv")
    wav_path = str(tmp_path / "out.wav")
    argv = [
        "--chain", "adcdac", "--measure", "thd", "--sampling-speed", "low",
        "--seed", "5", "--out", csv_path, "--wav-out", wav_path,
    ]
    assert cli.main(argv) == 0
    first_csv = open(csv_path, "rb").read()
    first_wav = open(wav_path, "rb").read()
    assert cli.main(argv) == 0
    assert open(csv_path, "rb").read() == first_csv
    assert open(wav_path, "rb").read() == first_wav
    # line 1 echoes the argv and so the temp path; count only the rows below it
    rows_bytes = len(first_csv.split(b"\n", 1)[1])
    _report(
        "determinism",
        f"csv rows {rows_bytes} B and wav {len(first_wav)} B identical across runs",
    )


# -------------------------------------------------------------------- 9. spectrum scenario


def test_spectrum_scenario_consistent_with_configured_thd(tmp_path):
    results = {}
    for chain, target in (("i2s", -80.0), ("adcdac", -76.0)):
        out = str(tmp_path / f"{chain}.csv")
        argv = ["--chain", chain, "--measure", "spectrum", "--out", out]
        if chain == "i2s":
            argv += ["--block-samples", "128"]
        else:
            argv += ["--sampling-speed", "low"]
        assert cli.main(argv) == 0
        _, header, rows = cli.read_csv(out)
        assert header == ["frequency_hz", "power_dbv"]
        freqs = np.array([float(r[0]) for r in rows])
        linear = 10 ** (np.array([float(r[1]) for r in rows]) / 10.0)
        resolution = freqs[1] - freqs[0]

        peak = int(np.argmax(linear))
        assert abs(freqs[peak] - 1000.0) <= resolution

        def band(center_hz):
            center = int(round(center_hz / resolution))
            return linear[center - 3 : center + 4].sum() / 1.5  # hann ENBW

        level = 10 * np.log10(band(3000.0) / band(1000.0))
        assert level == pytest.approx(target, abs=1.0)
        results[chain] = level
    _report(
        "spectrum-scenario",
        f"peak at 1 kHz; H3 i2s {results['i2s']:.2f} dB (cfg -80), "
        f"adcdac {results['adcdac']:.2f} dB (cfg -76)",
    )
