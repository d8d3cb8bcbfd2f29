import inspect
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from audiochains import adcdac, cli, i2s, mls
from audiochains.errors import (
    DamageVoltage,
    NonStandardBlockSizeWarning,
    RealtimeFeasibilityWarning,
    UnsupportedOrder,
)
from audiochains.measure import estimate_latency, measure_impulse_response
from audiochains.mls import MlsConfig
from audiochains.signals import Signal, generate_sine
from audiochains.wavio import read_wav, write_wav


def run_cli(*args) -> int:
    return cli.main(list(args))


def exit_code(*args) -> int:
    try:
        return cli.main(list(args))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


# ---------------------------------------------------------------- CSV contract


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "r.csv")
    rows = [("16", 1.632e-3), ("128", 9.2517006802721e-3)]
    cli.write_csv(path, "# audiochains --demo", ("parameter", "latency_seconds"), rows)
    comments, header, parsed = cli.read_csv(path)
    assert comments == ["# audiochains --demo"]
    assert header == ["parameter", "latency_seconds"]
    assert [r[0] for r in parsed] == ["16", "128"]
    assert [float(r[1]) for r in parsed] == [rows[0][1], rows[1][1]]


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1))
def test_seventeen_digit_formatting_round_trips(tmp_path, values):
    path = str(tmp_path / "f.csv")
    cli.write_csv(path, "#", ("value",), [(v,) for v in values])
    assert [float(r[0]) for r in cli.read_csv(path)[2]] == values


def test_empty_report_refused(tmp_path):
    with pytest.raises(ValueError):
        cli.write_csv(str(tmp_path / "e.csv"), "#", ("a",), [])


# ---------------------------------------------------------------- scenarios


def test_a_latency_sweep_generates_its_mls_once(tmp_path):
    # all four default rows probe with the same order-12, seed-1 sequence
    mls.lfsr_bits.cache_clear()
    assert run_cli("--chain", "i2s", "--measure", "latency", "--out", str(tmp_path / "l.csv")) == 0
    info = mls.lfsr_bits.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_adcdac_latency_sample_rate_is_the_nominal_rate(tmp_path):
    # --sample-rate names the hardware rate; the 16x simulation grid is internal
    default, explicit = str(tmp_path / "d.csv"), str(tmp_path / "e.csv")
    base = ("--chain", "adcdac", "--measure", "latency")
    assert run_cli(*base, "--out", default) == 0
    assert run_cli(*base, "--sample-rate", "96000", "--out", explicit) == 0
    assert cli.read_csv(explicit)[2] == cli.read_csv(default)[2]


def test_adcdac_latency_run_raises_no_feasibility_warning(tmp_path):
    # the 16x simulation grid is not a hardware rate to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RealtimeFeasibilityWarning)
        assert run_cli(
            "--chain", "adcdac", "--measure", "latency", "--out", str(tmp_path / "l.csv")
        ) == 0


def _feasibility_warnings(*args) -> tuple[int, list[str]]:
    """Exit code and RealtimeFeasibilityWarning messages of one adcdac run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code("--chain", "adcdac", *args)
    return code, [str(w.message) for w in caught if w.category is RealtimeFeasibilityWarning]


def test_low_speed_distortion_run_keeps_the_feasibility_warning(tmp_path):
    # 12 us per sample does not fit the 10.4 us period of the nominal 96 kHz;
    # HIGH_SPEED's 9.6 us does
    code, messages = _feasibility_warnings("--measure", "thd", "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert len(messages) == 1
    assert messages[0].startswith("parameter LOW_SPEED: 96000 Hz cannot be sustained")


def test_feasible_or_refused_adcdac_runs_raise_no_feasibility_warning(tmp_path):
    out = str(tmp_path / "t.csv")
    high = ("--sampling-speed", "high")
    assert _feasibility_warnings("--measure", "thd", *high, "--out", out) == (0, [])
    # LOW_SPEED overruns 96000.5 Hz too, but a WAV cannot hold that rate: the
    # run is refused before any row warns
    wav_out = ("--sample-rate", "96000.5", "--wav-out", str(tmp_path / "x.wav"))
    low = ("--sampling-speed", "low", *wav_out)
    assert _feasibility_warnings("--measure", "thd", *low, "--out", out) == (2, [])


def _i2s_warnings(*args) -> tuple[int, list[str]]:
    """Exit code and every warning, as 'Category: message', of one i2s run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code("--chain", "i2s", *args)
    return code, [f"{w.category.__name__}: {w.message}" for w in caught]


def test_sweep_refused_at_its_second_block_warns_nothing(tmp_path):
    # 256 is outside the characterized set, but 48 refuses the run
    blocks = ("--block-samples", "256", "--block-samples", "48")
    assert _i2s_warnings("--measure", "thd", *blocks, "--out", str(tmp_path / "t.csv")) == (2, [])


@pytest.mark.parametrize(
    "flags",
    [
        ("--measure", "thd", "--block-samples", "16", "--block-samples", "256"),
        ("--measure", "latency", "--block-samples", "256"),
    ],
)
def test_nonstandard_block_warns_once_naming_its_row(tmp_path, flags):
    assert _i2s_warnings(*flags, "--out", str(tmp_path / "t.csv")) == (0, [
        "NonStandardBlockSizeWarning: parameter 256: block size outside the "
        "characterized set (16, 32, 64, 128)"
    ])


def test_long_block_latency_does_not_wrap_around_the_probe(tmp_path):
    # 2.23 s is longer than an order-16 period (1.49 s), which read 0.7436 s
    out = str(tmp_path / "lat.csv")
    with pytest.warns(NonStandardBlockSizeWarning):
        assert run_cli(
            "--chain", "i2s", "--measure", "latency", "--block-samples", "32768", "--out", out
        ) == 0
    predicted = i2s.BlockPipelineConfig(block_samples=32768).latency
    assert abs(float(cli.read_csv(out)[2][0][1]) - predicted) <= 1.0 / 44100.0


# ---------------------------------------------------------------- MLS sizing


@pytest.mark.parametrize(
    "latency_samples, order",
    [
        (1.0, 12),  # the floor
        (2047.5, 12),  # twice is 4095, the order-12 period
        (2048.0, 13),
    ],
)
def test_mls_order_is_the_smallest_period_holding_twice_the_latency(latency_samples, order):
    assert cli._mls_order("x", latency_samples, 1.0) == order


def test_mls_order_for_a_65536_block():
    cfg = i2s.BlockPipelineConfig(block_samples=65536)
    assert cli._mls_order("65536", cfg.latency, cfg.sample_rate) == 19


def test_mls_order_beyond_the_tap_table_raises():
    with pytest.raises(UnsupportedOrder, match="parameter 8388608"):
        cli._mls_order("8388608", 2.0**23, 1.0)  # twice is one past the order-24 period


def test_sized_probe_keeps_the_latency_peak_clean():
    cfg = i2s.BlockPipelineConfig(block_samples=128)
    order = cli._mls_order("128", cfg.latency, cfg.sample_rate)
    rng = np.random.default_rng(1)

    def system(s):
        return i2s.run_block_pipeline(s, s, cfg, rng=rng)[0]

    ir = measure_impulse_response(system, MlsConfig(order, sample_rate=cfg.sample_rate))
    assert estimate_latency(ir).peak_to_noise_db > 100.0


@pytest.mark.parametrize(
    "chain,flag,value,label",
    [
        ("i2s", "--block-samples", "128", "128"),
        ("adcdac", "--sampling-speed", "high", "HIGH_SPEED"),
    ],
)
def test_partial_sweep_matches_the_full_sweep_row(tmp_path, chain, flag, value, label):
    full, part = str(tmp_path / "full.csv"), str(tmp_path / "part.csv")
    assert run_cli("--chain", chain, "--measure", "thd", "--out", full) == 0
    assert run_cli("--chain", chain, "--measure", "thd", flag, value, "--out", part) == 0
    full_rows = cli.read_csv(full)[2]
    assert cli.read_csv(part)[2] == [row for row in full_rows if row[0] == label]


def test_comment_line_records_the_command(tmp_path):
    out = str(tmp_path / "c.csv")
    argv = ["--chain", "i2s", "--measure", "latency", "--block-samples", "32", "--out", out]
    assert cli.main(argv) == 0
    comments, _, _ = cli.read_csv(out)
    assert comments[0] == "# audiochains " + " ".join(argv)


def test_seed_changes_noise_not_structure(tmp_path):
    a, b = str(tmp_path / "s0.csv"), str(tmp_path / "s1.csv")
    base = ("--chain", "i2s", "--measure", "thd", "--block-samples", "128")
    assert run_cli(*base, "--seed", "0", "--out", a) == 0
    assert run_cli(*base, "--seed", "1", "--out", b) == 0
    _, _, rows_a = cli.read_csv(a)
    _, _, rows_b = cli.read_csv(b)
    assert rows_a[0][1] != rows_b[0][1]  # different noise draw
    assert float(rows_a[0][1]) == pytest.approx(float(rows_b[0][1]), abs=0.5)


# ---------------------------------------------------------------- wav flow


def test_wav_in_and_out_flow(tmp_path):
    stim_path = str(tmp_path / "stim.wav")
    write_wav(generate_sine(1000.0, 0.5, 1.2, 44100.0), stim_path)
    out = str(tmp_path / "spec.csv")
    wav_out = str(tmp_path / "processed.wav")
    assert run_cli(
        "--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
        "--out", out, "--wav-in", stim_path, "--wav-out", wav_out,
    ) == 0
    channels = read_wav(wav_out)
    assert len(channels) == 2  # block chain emits both channels
    assert len(channels[0]) == int(1.2 * 44100)
    _, _, rows = cli.read_csv(out)
    powers = np.array([float(r[1]) for r in rows])
    freqs = np.array([float(r[0]) for r in rows])
    assert abs(freqs[int(np.argmax(powers))] - 1000.0) <= 44100.0 / 16384


def test_wav_in_holding_code_minus_32768_passes_through(tmp_path):
    import wave

    # A full-scale negative input saturates the chain output at -32768,
    # which --wav-out must write back rather than reject.
    codes = np.round(16000 * np.sin(2 * np.pi * 1000 * np.arange(52920) / 44100))
    frames = np.stack([codes, codes], axis=1).astype("<i2")
    frames[1000, 0] = -32768
    stim_path = str(tmp_path / "neg.wav")
    with wave.open(stim_path, "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(44100)
        f.writeframes(frames.tobytes())
    wav_out = str(tmp_path / "processed.wav")
    assert run_cli(
        "--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
        "--out", str(tmp_path / "spec.csv"), "--wav-in", stim_path, "--wav-out", wav_out,
    ) == 0
    left, _ = read_wav(wav_out)
    assert left.samples.min() == -32768 / 32767


def test_adcdac_wav_out_is_mono(tmp_path):
    stim_path = str(tmp_path / "stim.wav")
    write_wav(generate_sine(1000.0, 0.25, 1.2, 96000.0), stim_path)
    out = str(tmp_path / "thd.csv")
    wav_out = str(tmp_path / "mono.wav")
    assert run_cli(
        "--chain", "adcdac", "--measure", "thd", "--sampling-speed", "low",
        "--out", out, "--wav-in", stim_path, "--wav-out", wav_out,
    ) == 0
    channels = read_wav(wav_out, full_scale=adcdac.DAC_SPEC.v_max)
    assert len(channels) == 1
    assert np.mean(channels[0].samples) == pytest.approx(1.275, abs=0.01)


def _spy_stimulus_sources(monkeypatch):
    """Record each generate_sine/read_wav call with the bytes it returned."""
    made = []

    def spy(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sigs = (result,) if isinstance(result, Signal) else tuple(result)
            made.append((name, [(sig, sig.samples.tobytes()) for sig in sigs]))
            return result

        monkeypatch.setattr(cli, name, wrapper)

    spy("generate_sine")
    spy("read_wav")
    return made


@pytest.mark.parametrize(
    "chain_args, wav_rate, wav_channels",
    [
        (("--chain", "i2s", "--block-samples", "16", "--block-samples", "32",
          "--block-samples", "64", "--block-samples", "128"), None, 0),
        (("--chain", "adcdac"), None, 0),
        (("--chain", "i2s", "--block-samples", "16", "--block-samples", "32",
          "--block-samples", "64", "--block-samples", "128"), 44100.0, 2),
        (("--chain", "adcdac"), 96000.0, 1),
    ],
    ids=["i2s-sine", "adcdac-sine", "i2s-wav", "adcdac-wav"],
)
def test_a_sweep_builds_its_stimulus_once_and_leaves_it_unchanged(
    tmp_path, monkeypatch, chain_args, wav_rate, wav_channels
):
    wav_args = ()
    if wav_rate:
        stim_path = str(tmp_path / "stim.wav")
        tone = generate_sine(1000.0, 0.25, 1.2, wav_rate)
        write_wav(tone, stim_path, right=tone if wav_channels == 2 else None)
        wav_args = ("--wav-in", stim_path)
    made = _spy_stimulus_sources(monkeypatch)
    assert run_cli(*chain_args, "--measure", "thd", "--out", str(tmp_path / "t.csv"),
                   *wav_args) == 0
    assert [name for name, _ in made] == ["read_wav" if wav_rate else "generate_sine"]
    _, sigs = made[0]
    assert len(sigs) == (wav_channels or 1)
    # both pipelines read the shared arrays without writing to them
    for sig, before in sigs:
        assert sig.samples.tobytes() == before


@pytest.mark.parametrize(
    "measure, wav_out",
    [("thd", False), ("thd", True), ("latency", False)],
    ids=["csv", "wav-out", "latency"],
)
def test_an_i2s_thd_sweep_runs_the_right_channel_only_for_the_stereo_wav(
    tmp_path, monkeypatch, measure, wav_out
):
    # no output shows the right channel of a row that writes no WAV, so a spy pins the saving
    run = i2s.run_block_pipeline
    rights = []

    def spy(*args, **kwargs):
        rights.append(inspect.signature(run).bind(*args, **kwargs).arguments["input_right"])
        return run(*args, **kwargs)

    monkeypatch.setattr(i2s, "run_block_pipeline", spy)
    wav_args = ("--wav-out", str(tmp_path / "x.wav")) if wav_out else ()
    assert run_cli("--chain", "i2s", "--measure", measure, "--out", str(tmp_path / "x.csv"),
                   *wav_args) == 0
    assert [right is not None for right in rights] == [wav_out, False, False, False]


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    bad_flag_sets = [
        ("--chain", "i2s", "--measure", "latency", "--sampling-speed", "low", "--out", out),
        ("--chain", "adcdac", "--measure", "latency", "--block-samples", "64", "--out", out),
        ("--chain", "i2s", "--measure", "spectrum", "--out", out),  # multi-param sweep
        ("--chain", "i2s", "--measure", "latency", "--wav-in", "x.wav", "--out", out),
        ("--chain", "nope", "--measure", "latency", "--out", out),
        ("--chain", "i2s", "--out", out),
        ("--chain", "i2s", "--measure", "thdn", "--out", out),  # thd reports THD+N
    ]
    for flags in bad_flag_sets:
        with pytest.raises(SystemExit) as exc:
            cli.main(list(flags))
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith(f"{cli.PROG}: error: ") for line in err) == 1


@pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf", "100", "1000"])
def test_bad_sample_rate_exits_2(tmp_path, rate):
    code = exit_code(
        "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
        f"--sample-rate={rate}", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys):
    code = exit_code(
        "--chain", "i2s", "--measure", "latency", "--block-samples", "16",
        "--seed", "-1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "-1" in err
    assert not (tmp_path / "x.csv").exists()


def _count_probes(monkeypatch) -> list:
    probes = []

    def counted(*args, **kwargs):
        probes.append(args)
        return measure_impulse_response(*args, **kwargs)

    monkeypatch.setattr(cli, "measure_impulse_response", counted)
    return probes


def test_latency_too_long_for_any_mls_exits_2_before_generating(tmp_path, capsys, monkeypatch):
    # alone, and after a block-16 row that a refusal must not probe first
    for blocks in (["4194304"], ["16", "4194304"]):
        probes = _count_probes(monkeypatch)
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "--chain", "i2s", "--measure", "latency",
                *[arg for b in blocks for arg in ("--block-samples", b)],
                "--out", str(tmp_path / "x.csv"),
            )
        assert code == 2
        assert not caught  # a refused run warns about no block size
        assert time.perf_counter() - start < 1.0  # no order-24 sequence was built
        assert probes == []
        err = capsys.readouterr().err
        assert "4194304" in err and "285.3" in err  # the block and its predicted latency
        assert not (tmp_path / "x.csv").exists()


def test_record_too_large_to_allocate_exits_2(tmp_path, capsys):
    # a 3e15-sample record is 21 PiB, beyond any 64-bit user address space:
    # the allocation fails before a page is touched
    out = tmp_path / "x.csv"
    code = run_cli(
        "--chain", "i2s", "--measure", "thd", "--sample-rate", "1e15", "--out", str(out),
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        # 48 / 5e-324 s is inf samples
        ("--measure", "latency", "--block-samples", "16", "--sample-rate", "5e-324"),
        # 2**1024 has no float, so neither has the latency
        ("--measure", "thd", "--block-samples", str(2**1024)),
        # its latency has a float, but latency x rate is inf
        ("--measure", "latency", "--block-samples", str(2**1023)),
        # 3 s of stimulus at 1e308 Hz is inf samples
        ("--measure", "thd", "--sample-rate", "1e308"),
    ],
)
def test_latency_beyond_the_float_range_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("--chain", "i2s", *flags, "--out", str(out)) == 2
    assert not caught  # refused before a block size's warning could print its digits
    err = capsys.readouterr().err
    named = " or ".join(f for f in ("--block-samples", "--sample-rate") if f in flags)
    assert f"error: {named} out of range: " in err
    assert "Traceback" not in err
    assert len(err) < 200
    assert not out.exists()


def test_argument_holding_a_line_break_exits_2_writing_nothing(tmp_path):
    # line 1 echoes the argv: a line break would split it and shift the header
    (tmp_path / "a\nb").mkdir()
    out = tmp_path / "a\nb" / "x.csv"
    code = exit_code(
        "--chain", "i2s", "--measure", "latency", "--block-samples", "16", "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


def test_adcdac_at_the_reference_48k_runs_warning_nothing_and_closes(tmp_path, capsys):
    # the reference per-sample code's rate: both speeds fit its 20.8 us period
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "--chain", "adcdac", "--measure", "thd", "--sample-rate", "48000", "--out", str(out)
        )
    assert (code, caught, capsys.readouterr().err) == (0, [], "")
    (low, low_thd, low_thdn), (high, high_thd, _) = cli.read_csv(str(out))[2]
    assert (low, high) == ("LOW_SPEED", "HIGH_SPEED")
    # the acceptance tolerances of the characterized rows
    assert float(low_thd) == pytest.approx(-76.0, abs=0.5)
    assert float(low_thdn) == pytest.approx(-63.0, abs=1.0)
    assert float(high_thd) == pytest.approx(-67.0, abs=0.5)


@pytest.mark.parametrize(
    "rate, code, refused, latency",
    [
        # 12.0 / 9.6 us at the 16 kHz simulation rate: 0.19 / 0.15 samples
        ("1000", 2, "LOW_SPEED", "1.2e-05 s"),
        # 9.6 us at 48 kHz is 0.46 samples; LOW_SPEED's 12.0 us rounds to 1
        ("3000", 2, "HIGH_SPEED", "9.6e-06 s"),
        # the reference per-sample code's rate
        ("48000", 0, None, None),
    ],
)
def test_adcdac_latency_rounding_to_zero_samples_exits_2(
    tmp_path, capsys, monkeypatch, rate, code, refused, latency
):
    out = tmp_path / "x.csv"
    probes = _count_probes(monkeypatch)
    assert run_cli(
        "--chain", "adcdac", "--measure", "latency", "--sample-rate", rate, "--out", str(out),
    ) == code
    if refused is None:
        # the README's 11.72 and 9.11 us at 48 kHz
        assert cli.read_csv(str(out))[2] == [
            ["LOW_SPEED", "1.171875e-05"], ["HIGH_SPEED", "9.1145833333333341e-06"]
        ]
        return
    assert probes == []  # a refused row stops the sweep before its first probe
    err = capsys.readouterr().err
    sim_rate = f"{16 * float(rate):g} Hz"
    assert refused in err and latency in err and sim_rate in err
    assert not out.exists()


def test_latency_outlasting_the_warm_up_exits_2_before_any_row_runs(tmp_path, capsys):
    # 3 * 4096 / 44.1 kHz + 536 us = 0.279 s: the analyzed record would start
    # inside the delay's zero-fill
    out, wav_out = tmp_path / "x.csv", tmp_path / "x.wav"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "--chain", "i2s", "--measure", "thd", "--block-samples", "16",
            "--block-samples", "4096", "--out", str(out), "--wav-out", str(wav_out),
        )
    assert code == 2
    assert not caught  # a refused run warns about no block size
    err = capsys.readouterr().err
    assert "4096" in err and "0.279 s" in err and "0.15 s" in err
    assert not out.exists() and not wav_out.exists()


def test_thd_without_a_third_harmonic_band_exits_2_naming_the_rate(tmp_path, capsys):
    # at 4500 Hz the 3 kHz H3 the distortion is calibrated on lies above Nyquist
    out = tmp_path / "x.csv"
    code = run_cli(
        "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
        "--sample-rate", "4500", "--out", str(out),
    )
    assert code == 2
    assert "4500 Hz" in capsys.readouterr().err
    assert not out.exists()


def _refusal(monkeypatch, capsys, *args) -> tuple[int, int, list, list[str]]:
    """Exit code, chain runs, warnings and stderr lines of one refused run."""
    runs = _count_chain_runs(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(*args)
    return code, len(runs), caught, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "flags, named",
    [
        # the 3rd harmonic's band lies above Nyquist, and block 8 would warn
        (("--chain", "i2s", "--measure", "thd", "--block-samples", "8",
          "--sample-rate", "4500"), ("4500 Hz", "3rd harmonic")),
        # the sample chain, by the same rule
        (("--chain", "adcdac", "--measure", "thd", "--sample-rate", "4500"),
         ("4500 Hz", "3rd harmonic")),
        # block 8192's latency outlasts the warm-up, and the block would warn
        (("--chain", "i2s", "--measure", "thd", "--block-samples", "8192"),
         ("parameter 8192", "warm-up")),
    ],
)
def test_rate_refusals_run_no_chain_and_warn_nothing(
    tmp_path, capsys, monkeypatch, flags, named
):
    out = tmp_path / "x.csv"
    code, runs, caught, err = _refusal(monkeypatch, capsys, *flags, "--out", str(out))
    assert (code, runs, caught, len(err)) == (2, 0, [], 1)
    assert all(text in err[0] for text in named)
    assert not out.exists()


def _off_frequency_wav(tmp_path) -> str:
    stim = str(tmp_path / "5k.wav")
    write_wav(generate_sine(5000.0, 0.5, 3.0, 44100.0), stim)
    return stim


@pytest.mark.parametrize(
    "where, code",
    [
        # FundamentalNotFound from the analyzer, after the chain ran
        (lambda tmp: ("--out", str(tmp / "x.csv"), "--wav-out", str(tmp / "x.wav"),
                      "--wav-in", _off_frequency_wav(tmp)), 2),
    ],
)
def test_a_run_refused_after_its_chain_ran_prints_only_its_error(
    tmp_path, capsys, monkeypatch, where, code
):
    # block 256 is outside the characterized set: a finished run warns about it
    flags = ("--chain", "i2s", "--measure", "thd", "--block-samples", "256", *where(tmp_path))
    got, runs, caught, err = _refusal(monkeypatch, capsys, *flags)
    assert runs == 1  # refused after the chain ran
    assert (got, caught, len(err)) == (code, [], 1)
    assert sorted(os.listdir(tmp_path)) == ["5k.wav"]  # no report, WAV or temporary left


@pytest.mark.parametrize(
    "flags, outputs",
    [
        (("--chain", "i2s", "--measure", "thd", "--block-samples", "256"), ("no/x.csv",)),
        (("--chain", "i2s", "--measure", "thd", "--block-samples", "256"),
         ("x.csv", "no/x.wav")),
        (("--chain", "i2s", "--measure", "latency", "--block-samples", "16"), ("no/x.csv",)),
        (("--chain", "adcdac", "--measure", "spectrum", "--sampling-speed", "low"),
         ("x.csv", "d")),
        # a writable --wav-out beside an unwritable --out is not written either
        (("--chain", "i2s", "--measure", "thd", "--block-samples", "128"),
         ("no/x.csv", "x.wav")),
    ],
    ids=["out", "wav-out", "latency-out", "wav-out-a-directory", "out-beside-wav-out"],
)
def test_an_unwritable_output_exits_4_before_any_chain_runs(
    tmp_path, capsys, monkeypatch, flags, outputs
):
    (tmp_path / "d").mkdir()
    paths = [str(tmp_path / name) for name in outputs]
    wav_out = ("--wav-out", paths[1]) if len(paths) > 1 else ()
    code, runs, caught, err = _refusal(
        monkeypatch, capsys, *flags, "--out", paths[0], *wav_out
    )
    assert (code, runs, caught, len(err)) == (4, 0, [], 1)
    assert err[0].startswith("audiochains: i/o error: ")
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


def test_outputs_are_moved_into_place_with_the_mode_of_a_plain_write(tmp_path):
    out, wav_out, plain = tmp_path / "x.csv", tmp_path / "x.wav", tmp_path / "plain"
    plain.write_text("")
    assert run_cli(
        "--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
        "--sample-rate", "8000", "--out", str(out), "--wav-out", str(wav_out),
    ) == 0
    assert sorted(os.listdir(tmp_path)) == ["plain", "x.csv", "x.wav"]
    assert out.stat().st_mode == wav_out.stat().st_mode == plain.stat().st_mode


def test_a_chain_fault_prints_only_its_error(tmp_path, capsys, monkeypatch):
    # LOW_SPEED at 96 kHz overruns its sample period: a finished run warns
    def faulty(*args, **kwargs):
        raise DamageVoltage("pin at 4.2 V")

    monkeypatch.setattr(adcdac, "run_sample_pipeline", faulty)
    flags = ("--chain", "adcdac", "--measure", "thd", "--out", str(tmp_path / "x.csv"))
    assert _refusal(monkeypatch, capsys, *flags) == (
        3, 1, [], ["audiochains: chain fault: pin at 4.2 V"]
    )


def test_warnings_follow_the_written_report(tmp_path):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonStandardBlockSizeWarning)
        with pytest.raises(NonStandardBlockSizeWarning):
            cli.main(["--chain", "i2s", "--measure", "latency", "--block-samples", "256",
                      "--out", str(out)])
    assert cli.read_csv(str(out))[2][0][0] == "256"


@pytest.mark.parametrize("measure", ["latency", "thd", "spectrum"])
@pytest.mark.parametrize("block", [48, 0, 3, -8, pytest.param(2**1023, id="2**1023")])
def test_a_bad_block_exits_2_with_one_line_naming_the_flag(tmp_path, capsys, measure, block):
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = exit_code(
            "--chain", "i2s", "--measure", measure, f"--block-samples={block}",
            "--out", str(tmp_path / "x.csv"),
        )
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and "Traceback" not in err[0]
    if block == 2**1023:  # a power of two whose latency in samples overflows
        assert "--block-samples out of range" in err[0]
    else:
        assert f"--block-samples {block}: " in err[0] and "power of two" in err[0]


@st.composite
def cli_flags(draw):
    flags = [
        "--chain", draw(st.sampled_from(["i2s", "adcdac"])),
        "--measure", draw(st.sampled_from(["latency", "thd", "spectrum"])),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    for block in draw(st.lists(st.sampled_from([16, 64, 256, 0, 3, -8]), max_size=2)):
        flags += ["--block-samples", str(block)]
    speed = draw(st.sampled_from([None, "low", "high"]))
    if speed is not None:
        flags += ["--sampling-speed", speed]
    # never a huge rate: the 3 s stimulus is allocated at the given rate
    rate = draw(
        st.sampled_from([None, "0", "-1", "nan", "inf", "5e-324", "100", "48000", "96000"])
    )
    if rate is not None:
        flags.append(f"--sample-rate={rate}")
    return flags


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(flags=cli_flags())
# a run that warns: both reruns must warn alike
@example(flags=["--chain", "i2s", "--measure", "thd", "--seed", "0", "--block-samples", "256"])
# I/O errors: a missing --wav-in, and a --wav-out under a missing directory
@example(flags=["--chain", "i2s", "--measure", "thd", "--seed", "0",
                "--wav-in", "/nonexistent/in.wav"])
@example(flags=["--chain", "adcdac", "--measure", "spectrum", "--seed", "0",
                "--sampling-speed", "low", "--wav-out", "/nonexistent/dir/out.wav"])
def test_cli_exit_codes_and_reruns_are_byte_identical(tmp_path, flags):
    out = tmp_path / "r.csv"
    results = []
    for _ in range(2):
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = exit_code(*flags, "--out", str(out))
        warned = [(w.category, str(w.message)) for w in caught]
        results.append((code, out.read_bytes() if out.exists() else None, warned))
    assert results[0][0] in (0, 2, 3, 4)
    if any(flag.startswith("/nonexistent/") for flag in flags):
        assert results[0][:2] == (4, None)
    assert results[0] == results[1]


def _count_chain_runs(monkeypatch) -> list:
    runs = []

    def counted(run):
        def wrapper(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(i2s, "run_block_pipeline", counted(i2s.run_block_pipeline))
    monkeypatch.setattr(adcdac, "run_sample_pipeline", counted(adcdac.run_sample_pipeline))
    return runs


def test_too_short_wav_in_exits_2(tmp_path, monkeypatch):
    runs = _count_chain_runs(monkeypatch)
    stim = str(tmp_path / "short.wav")
    write_wav(generate_sine(1000.0, 0.5, 0.005, 44100.0), stim)
    code = run_cli(
        "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
        "--out", str(tmp_path / "x.csv"), "--wav-in", stim,
    )
    assert code == 2
    assert runs == []  # refused before any chain runs


def _thd_rows_of_a_cut_wav(tmp_path, channels: int, cut: int) -> list[list[str]]:
    """THD rows read from a 3 s WAV whose last `cut` bytes are gone."""
    sine = generate_sine(1000.0, 0.5, 3.0, 44100.0)
    stim = tmp_path / f"cut_{channels}_{cut}.wav"
    write_wav(sine, str(stim), right=sine if channels == 2 else None)
    stim.write_bytes(stim.read_bytes()[:-cut])
    out = str(tmp_path / f"cut_{channels}_{cut}.csv")
    assert run_cli(
        "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
        "--out", out, "--wav-in", str(stim),
    ) == 0
    return cli.read_csv(out)[2]


@pytest.mark.parametrize("channels, cut, frame", [(2, 1, 4), (2, 2, 4), (2, 3, 4), (1, 1, 2)])
def test_wav_in_ending_mid_frame_reads_its_whole_frames(tmp_path, channels, cut, frame):
    # a cut at a frame boundary drops one whole frame; a mid-frame cut must too
    assert _thd_rows_of_a_cut_wav(tmp_path, channels, cut) == _thd_rows_of_a_cut_wav(
        tmp_path, channels, frame
    )


def test_sample_rate_disagreeing_with_wav_in_exits_2_naming_both(tmp_path, capsys):
    stim = str(tmp_path / "stim.wav")
    write_wav(generate_sine(1000.0, 0.5, 0.5, 44100.0), stim)
    out = tmp_path / "x.csv"
    args = ["--chain", "i2s", "--measure", "thd", "--block-samples", "128",
            "--out", str(out), "--wav-in", stim]
    assert run_cli(*args, "--sample-rate", "48000") == 2
    err = capsys.readouterr().err
    assert "48000 Hz" in err and "44100 Hz" in err
    assert not out.exists()
    assert run_cli(*args, "--sample-rate", "44100") == 0


def test_fractional_sample_rate_with_wav_out_exits_2_writing_nothing(
    tmp_path, capsys, monkeypatch
):
    runs = _count_chain_runs(monkeypatch)
    out, wav_out = tmp_path / "x.csv", tmp_path / "x.wav"
    code = run_cli(
        "--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
        "--sample-rate", "44100.5", "--out", str(out), "--wav-out", str(wav_out),
    )
    assert code == 2
    assert runs == []  # refused before any chain runs
    assert "44100.5" in capsys.readouterr().err
    assert not out.exists() and not wav_out.exists()


def test_unreadable_wav_exits_4(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav at all")
    code = run_cli(
        "--chain", "i2s", "--measure", "thd", "--block-samples", "128",
        "--out", str(tmp_path / "x.csv"), "--wav-in", str(bad),
    )
    assert code == 4


@pytest.mark.parametrize("measure", ["thd", "spectrum"])
def test_a_step_in_a_wav_in_exits_3_with_one_line_and_leaves_no_file(tmp_path, capsys, measure):
    # 8 s at -1 V let the 40 mHz coupling settle at the bias minus 1 V, so the
    # step to +1 V lifts the pin 2 V, past the 3.5 V damage limit
    stim = tmp_path / "step.wav"
    write_wav(Signal(np.repeat([-1.0, 1.0], [64000, 8000]), 8000.0), str(stim))
    out, wav_out = tmp_path / "x.csv", tmp_path / "x.wav"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "--chain", "adcdac", "--measure", measure, "--sampling-speed", "low",
            "--wav-in", str(stim), "--out", str(out), "--wav-out", str(wav_out),
        )
    assert (code, caught) == (3, [])
    assert capsys.readouterr().err.splitlines() == [
        "audiochains: chain fault: voltage range [0.649, 3.518] V exceeds "
        "[-0.2, 3.5] V absolute maximum"
    ]
    assert sorted(os.listdir(tmp_path)) == ["step.wav"]


def test_chain_fault_exits_3(tmp_path, monkeypatch):
    # a latency run reads no --wav-in, so fault its chain directly to pin the
    # exit-code mapping there
    def boom(scenario):
        raise DamageVoltage("pin at 4.2 V")

    monkeypatch.setattr(cli, "_run_latency", boom)
    code = run_cli("--chain", "i2s", "--measure", "latency", "--out", str(tmp_path / "x.csv"))
    assert code == 3
