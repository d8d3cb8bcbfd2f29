"""Workloads of the audiochains benchmark: CLI scenario lists, inputs, checks.

A workload is a fixed list of CLI scenarios; one *pass* runs the list once
through in-process ``audiochains.cli.main`` calls, the way
``scripts/reproduce_*.py`` drive the package.  The workload seed goes to every
call as ``--seed`` and also generates every input file, so one seed always
gives the same inputs.

Why these three workloads:

* ``latency`` -- the MLS generator and the i2s per-block callback loop at
  small blocks do almost all the work; analyzer, spectrum, WAV and CSV layers
  do almost none (6 CSV rows).
* ``distortion`` -- no MLS; the work is the ``measure`` analyzer (a
  least-squares fit plus an rfft over a trimmed length that is prime at
  44.1 kHz) and the adcdac / quantize / frontend sample chain.
* ``spectrum_wav`` -- the same chains used differently: one i2s pass with
  large blocks, a WAV read in place of the sine generator, an averaged
  periodogram, an 8193-row CSV and WAV writes beside the reads.

Output checks use the paper's tables, never stored digests, because later
changes may move CSV numbers on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
import warnings
import wave
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("latency", "distortion", "spectrum_wav")

I2S_RATE = 44100.0
ADCDAC_RATE = 96000.0
ADCDAC_LATENCY_RATE = ADCDAC_RATE * 16  # the CLI's oversampled latency grid

# Paper tables the outputs are checked against, one row per swept parameter.
SWEEP = {"i2s": ("16", "32", "64", "128"), "adcdac": ("LOW_SPEED", "HIGH_SPEED")}
LATENCY_S = {"16": 1.63e-3, "32": 2.7e-3, "64": 4.9e-3, "128": 9.24e-3,
             "LOW_SPEED": 12.0e-6, "HIGH_SPEED": 9.6e-6}
LATENCY_TOLERANCE_S = {"i2s": 1.0 / I2S_RATE, "adcdac": 1.0 / ADCDAC_LATENCY_RATE}
THD_TARGET_DB = {"i2s": -80.0, "LOW_SPEED": -76.0, "HIGH_SPEED": -67.0}
THDN_TARGET_DB = {"i2s": -68.0, "LOW_SPEED": -63.0}
THD_TOLERANCE_DB = 0.5
THDN_TOLERANCE_DB = 1.0
SPECTRUM_PEAK_TOLERANCE_BINS = 2
SPECTRUM_SEGMENT = 16384

TONE_HZ = 1000.0
TONE_VRMS = 0.5
WAV_SECONDS = 3.0
WAV_NOISE_DB = (-60.0, -45.0)  # noise floor relative to the tone, drawn per file


@dataclass(frozen=True)
class Call:
    """One CLI scenario call: its argv and what its output must satisfy."""

    name: str
    chain: str
    measure: str
    argv: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class CallRecord:
    name: str
    chain: str
    seconds: float
    warnings: int
    digest: str | None
    problems: tuple[str, ...]


def _write_tone_wav(path: str, rng: np.random.Generator, rate: float, channels: int) -> None:
    """3 s of the paper's 1 kHz / 0.5 Vrms tone at a drawn phase and noise level."""
    n = int(WAV_SECONDS * rate)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    noise_rms = TONE_VRMS * 10.0 ** (rng.uniform(*WAV_NOISE_DB) / 20.0)
    tone = TONE_VRMS * np.sqrt(2.0) * np.sin(2.0 * np.pi * TONE_HZ * np.arange(n) / rate + phase)
    volts = tone[:, None] + rng.normal(0.0, noise_rms, size=(n, channels))
    codes = np.clip(np.round(volts * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(2)
        f.setframerate(int(rate))
        f.writeframes(codes.tobytes())


def make_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write the input files a workload reads; only spectrum_wav has any."""
    if workload != "spectrum_wav":
        return
    rng = np.random.default_rng(seed)
    _write_tone_wav(os.path.join(out_dir, "in_i2s.wav"), rng, I2S_RATE, 2)
    _write_tone_wav(os.path.join(out_dir, "in_adcdac.wav"), rng, ADCDAC_RATE, 1)


def calls_for(workload: str, seed: int, out_dir: str) -> list[Call]:
    def call(name: str, chain: str, measure: str, *extra: str) -> Call:
        out = os.path.join(out_dir, f"{name}.csv")
        argv = ("--chain", chain, "--measure", measure, *extra, "--seed", str(seed), "--out", out)
        return Call(name, chain, measure, argv, out)

    def wav(name: str) -> tuple[str, ...]:
        return (
            "--wav-in", os.path.join(out_dir, f"in_{name}.wav"),
            "--wav-out", os.path.join(out_dir, f"out_{name}.wav"),
        )

    if workload == "latency":
        return [call("i2s_latency", "i2s", "latency"), call("adcdac_latency", "adcdac", "latency")]
    if workload == "distortion":
        return [call("i2s_thd", "i2s", "thd"), call("adcdac_thd", "adcdac", "thd")]
    if workload == "spectrum_wav":
        return [
            call("i2s_spectrum", "i2s", "spectrum", "--block-samples", "128", *wav("i2s")),
            call("adcdac_spectrum", "adcdac", "spectrum", "--sampling-speed", "low", *wav("adcdac")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("ascii").split("\n")
    if not lines[0].startswith("#") or lines[1] != header or lines[-1] != "":
        raise ValueError("CSV layout differs from '# command', header, LF-terminated rows")
    return [line.split(",") for line in lines[2:-1]]


def _swept_rows(call: Call, data: bytes, header: str) -> tuple[list[list[str]], list[str]]:
    rows = _rows(data, header)
    params = [row[0] for row in rows]
    if sorted(params) != sorted(SWEEP[call.chain]):
        return [], [f"rows {params} are not {list(SWEEP[call.chain])}"]
    return rows, []


def _check_latency(call: Call, data: bytes) -> list[str]:
    rows, problems = _swept_rows(call, data, "parameter,latency_seconds")
    for param, value in rows:
        if abs(float(value) - LATENCY_S[param]) > LATENCY_TOLERANCE_S[call.chain]:
            problems.append(f"latency {param} = {float(value):.4g} s, table {LATENCY_S[param]:.4g} s")
    return problems


def _check_thd(call: Call, data: bytes) -> list[str]:
    rows, problems = _swept_rows(call, data, "parameter,thd_db,thdn_db")
    for param, thd, thdn in rows:
        key = "i2s" if call.chain == "i2s" else param
        if abs(float(thd) - THD_TARGET_DB[key]) > THD_TOLERANCE_DB:
            problems.append(f"THD {param} = {float(thd):.2f} dB, target {THD_TARGET_DB[key]}")
        if key in THDN_TARGET_DB and abs(float(thdn) - THDN_TARGET_DB[key]) > THDN_TOLERANCE_DB:
            problems.append(f"THD+N {param} = {float(thdn):.2f} dB, target {THDN_TARGET_DB[key]}")
    return problems


def _check_spectrum(call: Call, data: bytes) -> list[str]:
    rows = _rows(data, "frequency_hz,power_dbv")
    if len(rows) != SPECTRUM_SEGMENT // 2 + 1:
        return [f"{len(rows)} spectrum rows, expected {SPECTRUM_SEGMENT // 2 + 1}"]
    freqs = np.array([float(f) for f, _ in rows])
    powers = np.array([float(p) for _, p in rows])
    peak = 1 + int(np.argmax(powers[1:]))
    tone_bin = TONE_HZ / (freqs[1] - freqs[0])
    if abs(peak - tone_bin) > SPECTRUM_PEAK_TOLERANCE_BINS:
        return [f"strongest bin at {freqs[peak]:.1f} Hz, not within 2 bins of 1 kHz"]
    return []


CHECKS = {"latency": _check_latency, "thd": _check_thd, "spectrum": _check_spectrum}


def run_call(cli, call: Call) -> CallRecord:
    """Run one scenario through ``cli.main``, time it and check its CSV.

    Warnings are collected instead of printed: every adcdac latency call
    emits RealtimeFeasibilityWarnings, which are informational.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(call.out)  # a call that writes nothing must not pass on a stale CSV
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = cli.main(list(call.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # the run goes on; the call counts as failed
            status = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if status != 0:
        return CallRecord(call.name, call.chain, seconds, len(caught), None, (f"exit {status}",))
    try:
        with open(call.out, "rb") as f:
            data = f.read()
        problems = CHECKS[call.measure](call, data)
    except (OSError, ValueError) as exc:
        return CallRecord(call.name, call.chain, seconds, len(caught), None, (f"bad CSV: {exc}",))
    digest = hashlib.sha256(data).hexdigest()
    return CallRecord(call.name, call.chain, seconds, len(caught), digest, tuple(problems))


def run_pass(cli, calls: list[Call]) -> list[CallRecord]:
    return [run_call(cli, call) for call in calls]


def reference_kernel_s() -> float:
    """Wall time of a fixed kernel: a host-speed reading.

    FFTs, a rounding pass over a 128k-sample array and an interpreter loop,
    the three kinds of work the scenarios do.  It runs on both sides of
    every timed pass; run.py scales pass times by it.
    """
    x = np.sin(np.arange(1 << 15) * 0.001)
    y = np.sin(np.arange(1 << 17) * 0.001)
    np.fft.rfft(x)  # the first call of a size plans the transform
    started = time.perf_counter()
    for _ in range(4):
        np.fft.rfft(x)
    z = y * 1.5 + 0.25
    (np.sign(z) * np.floor(np.abs(z) + 0.5)).sum()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - started
