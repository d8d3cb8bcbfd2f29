"""Command-line scenarios reproducing the characterization tables.

Each run measures one chain (block codec or sample ADC/DAC) and writes a
CSV report; sweeps map one row per swept parameter.  CSV layouts:

    latency      parameter,latency_seconds
    thd / thdn   parameter,thd_db,thdn_db
    spectrum     frequency_hz,power_dbv

The first line is a ``#`` comment holding the exact command line, numbers
carry 17 significant digits, and rows are LF-terminated, so identical flags
reproduce byte-identical files.  Each latency row sizes its MLS to the
smallest order >= 12 whose period holds twice the predicted latency.  Every
row is checked before any chain runs, but for two refusals that only row 0's
run finds: a THD rate that leaves the 3rd harmonic no band, and an adcdac
rate of 80 kHz or less, under the front end's corner (latency runs bypass
the front end).  Then `_warn_rows` warns once per row, naming it: a block
outside `i2s.STANDARD_BLOCK_SIZES`, and an adcdac row that overruns a sample
period at the hardware rate (never on the latency scenario's 16x grid), so
a run refused before any chain runs warns nothing.  Exit codes:
0 success, 2 usage error or unusable input (including a latency too long
for order 24 or for the discarded warm-up, rounding to 0 samples or
overflowing a float, which names the flags given, a THD rate that leaves
the calibrated 3rd harmonic no band, a record too large to allocate and an
argument holding a line break), 3 chain fault (damage voltage), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import adcdac, frontend, i2s
from .distortion import calibrate_distortion
from .errors import AudioChainError, DamageVoltage, NonStandardBlockSizeWarning
from .errors import RealtimeFeasibilityWarning, UnsupportedOrder, UnsupportedWav
from .measure import estimate_latency, measure_impulse_response, measure_thd
from .mls import PRIMITIVE_TAPS, MlsConfig
from .signals import Signal, generate_sine, latency_samples, require_positive
from .spectrum import power_spectrum
from .wavio import read_wav, wav_rate, write_wav

PROG = "audiochains"

DEFAULT_RATE = {
    "i2s": i2s.BlockPipelineConfig.sample_rate,
    "adcdac": adcdac.SampleChainConfig.sample_rate,
}
# adcdac latency runs simulate at 16x the nominal rate (--sample-rate or 96 kHz)
LATENCY_OVERSAMPLE = {"i2s": 1, "adcdac": 16}

STIMULUS_HZ = 1000.0
STIMULUS_VRMS = 0.5
# long enough that broadband noise pooled over the analyzer's twenty
# harmonic bands stays well under the harmonic power itself
STIMULUS_SECONDS = 3.0
WARMUP_SECONDS = 0.15
MIN_MLS_ORDER = 12  # keeps the block-128 i2s peak 109 dB above the correlation noise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Run a characterization scenario on a simulated audio chain.",
    )
    parser.add_argument("--chain", required=True, choices=("i2s", "adcdac"))
    parser.add_argument(
        "--measure", required=True, choices=("latency", "thd", "thdn", "spectrum")
    )
    parser.add_argument(
        "--block-samples",
        type=int,
        action="append",
        metavar="N",
        help="i2s block size; repeat the flag to sweep (default "
        + " ".join(map(str, i2s.STANDARD_BLOCK_SIZES)) + ")",
    )
    parser.add_argument("--sampling-speed", choices=("low", "high"))
    parser.add_argument("--sample-rate", type=float, metavar="HZ")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, metavar="PATH")
    parser.add_argument("--wav-in", metavar="PATH")
    parser.add_argument("--wav-out", metavar="PATH")
    return parser


def _check_args(args: argparse.Namespace, argv: list[str]) -> None:
    """Validate the parsed flags in place, then add the sweep (`params`: i2s
    block sizes or adcdac sampling speeds) and the CSV's ``#`` comment line."""
    if any("\n" in arg for arg in argv):
        raise ValueError("an argument holds a line break; the CSV's first line echoes each one")
    if args.chain == "i2s":
        if args.sampling_speed is not None:
            raise ValueError("--sampling-speed applies only to --chain adcdac")
        args.params = tuple(args.block_samples or i2s.STANDARD_BLOCK_SIZES)
    elif args.block_samples:
        raise ValueError("--block-samples applies only to --chain i2s")
    elif args.sampling_speed is None:
        args.params = tuple(adcdac.SamplingSpeed)
    else:
        args.params = (adcdac.SamplingSpeed(f"{args.sampling_speed.upper()}_SPEED"),)
    if args.sample_rate is not None:
        require_positive("--sample-rate", args.sample_rate)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    for flag, value in (("--wav-in", args.wav_in), ("--wav-out", args.wav_out)):
        if value and args.measure == "latency":
            raise ValueError(f"{flag} does not combine with the MLS latency scenario")
    if args.measure == "spectrum" and len(args.params) > 1:
        raise ValueError("spectrum reports have no parameter column; sweep one value")
    args.command_line = f"# {PROG} " + " ".join(argv)


def write_csv(path: str, comment: str, header: tuple[str, ...], rows) -> None:
    """The comment and header as given, then each row through one template from
    the first row (text as is, numbers to 17 digits): rows share its layout."""
    if not rows:
        raise ValueError("refusing to write an empty report")
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(comment + "\n")
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in rows)


def read_csv(path: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Parse a report written by write_csv: (comments, header, rows)."""
    comments, header, rows = [], [], []
    with open(path, newline="\n") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


def _param_rng(seed: int, param) -> np.random.Generator:
    # Keyed on the row label, not the sweep position: a partial sweep draws
    # what the full sweep draws for the same row.
    return np.random.default_rng([seed, *_row_label(param).encode()])


def _stimulus(args: argparse.Namespace) -> tuple[Signal, Signal]:
    """The 1 kHz sine or the wav-in payload, read once and shared by every row."""
    if args.wav_in is not None:
        channels = read_wav(args.wav_in)  # mono feeds both inputs
        if args.sample_rate not in (None, channels[0].sample_rate):
            raise ValueError(
                f"--sample-rate {args.sample_rate:g} Hz disagrees with the "
                f"{channels[0].sample_rate:g} Hz of --wav-in {args.wav_in}"
            )
        return channels[0], channels[-1]
    sample_rate = args.sample_rate or DEFAULT_RATE[args.chain]
    sine = generate_sine(STIMULUS_HZ, STIMULUS_VRMS, STIMULUS_SECONDS, sample_rate)
    return sine, sine


def _row_label(param) -> str:
    return param.value if isinstance(param, adcdac.SamplingSpeed) else str(param)


def _chain_config(chain: str, param, sample_rate: float, with_distortion: bool):
    """Chain config for one swept parameter (block size or sampling speed)."""
    distortion = None
    if with_distortion:
        distortion = calibrate_distortion(
            target_hd3_db=i2s.THD_DB if chain == "i2s" else adcdac.THD_DB[param],
            peak_amplitude=STIMULUS_VRMS * np.sqrt(2.0),
        )
    if chain == "i2s":
        return i2s.BlockPipelineConfig(
            block_samples=param, sample_rate=sample_rate, distortion=distortion
        )
    return adcdac.SampleChainConfig(
        sample_rate=sample_rate, sampling_speed=param, distortion=distortion
    )


def _mls_order(label: str, latency_s: float, sample_rate: float) -> int:
    """Smallest tabled MLS order >= MIN_MLS_ORDER whose period holds twice the
    predicted latency: a longer response wraps around the circular correlation."""
    need = 2.0 * latency_s * sample_rate
    for order in sorted(PRIMITIVE_TAPS):
        if order >= MIN_MLS_ORDER and (1 << order) - 1 >= need:
            return order
    raise UnsupportedOrder(
        f"parameter {label}: predicted latency {latency_s:.6g} s needs an MLS period of "
        f"{need:.3g} samples, longer than order {max(PRIMITIVE_TAPS)} gives"
    )


def _warn_rows(args: argparse.Namespace, configs: list, hardware_rate: bool) -> None:
    """Every run-level warning, once per row and naming it; called after every
    row has passed its checks, so a run they refuse warns nothing."""
    for param, cfg in zip(args.params, configs):
        if args.chain == "i2s" and param not in i2s.STANDARD_BLOCK_SIZES:
            warnings.warn(
                f"parameter {param}: block size outside the characterized set "
                f"{i2s.STANDARD_BLOCK_SIZES}",
                NonStandardBlockSizeWarning,
            )
        elif args.chain == "adcdac" and hardware_rate and not cfg.realtime_feasible:
            warnings.warn(
                f"parameter {param.value}: {cfg.sample_rate:g} Hz cannot be sustained: one "
                f"conversion plus SPI transfer takes {cfg.latency * 1e6:.2f} us",
                RealtimeFeasibilityWarning,
            )


def _run_latency(args: argparse.Namespace) -> list[tuple]:
    chain = args.chain
    sample_rate = (args.sample_rate or DEFAULT_RATE[chain]) * LATENCY_OVERSAMPLE[chain]
    configs = [_chain_config(chain, p, sample_rate, with_distortion=False) for p in args.params]
    probes = []
    for param, cfg in zip(args.params, configs):  # all rows first: a refusal probes nothing
        label = _row_label(param)
        if latency_samples(cfg.latency, sample_rate) == 0:
            # the chain would apply no delay and the probe would read lag 0
            raise ValueError(
                f"parameter {label}: predicted latency {cfg.latency:.3g} s rounds to 0 samples "
                f"at the {sample_rate:g} Hz simulation rate"
            )
        order = _mls_order(label, cfg.latency, sample_rate)
        probes.append(MlsConfig(order, sample_rate=sample_rate))
    _warn_rows(args, configs, hardware_rate=False)  # the simulation grid, 16x for adcdac
    rows = []
    for param, cfg, mls in zip(args.params, configs, probes):
        rng = _param_rng(args.seed, param)

        def system(stimulus: Signal) -> Signal:
            if chain == "adcdac":
                # Conditioning bypassed: its group delay is folded into the
                # calibrated conversion time.  Bias keeps the MLS in range.
                stimulus = Signal(stimulus.samples + frontend.BIAS_VOLTAGE, stimulus.sample_rate)
            return _run_chain(chain, cfg, (stimulus, stimulus), rng, front_end=False)[0]

        report = estimate_latency(measure_impulse_response(system, mls))
        rows.append((_row_label(param), report.latency_seconds))
    return rows


def _run_chain(chain: str, cfg, stimulus: tuple[Signal, Signal], rng, front_end=True) -> tuple:
    """(left, right) from i2s or (out,) from adcdac; front_end=False bypasses its front end."""
    in0, in1 = stimulus
    if chain == "i2s":
        return i2s.run_block_pipeline(in0, in1, cfg, rng=rng)
    return (adcdac.run_sample_pipeline(in0, in1, cfg, rng, front_end=front_end),)


def _thd_rows(param, measured: Signal) -> list[tuple]:
    report = measure_thd(measured, STIMULUS_HZ)
    if 3 not in dict(report.harmonic_levels):
        raise ValueError(
            f"at {measured.sample_rate:g} Hz the 3rd harmonic ({3 * STIMULUS_HZ:g} Hz), "
            f"which the distortion is calibrated on, has no band below Nyquist"
        )
    return [(_row_label(param), report.thd_db, report.thdn_db)]


def _spectrum_rows(param, measured: Signal) -> list[tuple]:
    # AC-couple before the estimate: the sample chain output carries its
    # standing DAC offset.
    ac = Signal(measured.samples - measured.samples.mean(), measured.sample_rate)
    spec = power_spectrum(ac)
    return list(zip(spec.bin_frequencies, spec.bin_powers_dbv))


def _run_rows(args: argparse.Namespace, analyze) -> list[tuple]:
    """Per swept parameter: run the chain, drop the warm-up, analyze(param, measured)."""
    chain, rows = args.chain, []
    stimulus = _stimulus(args)
    rate, skip = stimulus[0].sample_rate, int(WARMUP_SECONDS * stimulus[0].sample_rate)
    configs = [_chain_config(chain, p, rate, with_distortion=True) for p in args.params]
    for param, cfg in zip(args.params, configs):  # all rows first: a refusal runs no chain
        if cfg.latency >= WARMUP_SECONDS:
            raise ValueError(
                f"parameter {_row_label(param)}: predicted latency {cfg.latency:.3g} s is not "
                f"shorter than the {WARMUP_SECONDS:g} s warm-up the analysis discards"
            )
    if len(stimulus[0]) - skip < int(0.1 * rate):
        raise ValueError(
            f"stimulus too short: need at least {WARMUP_SECONDS + 0.1:.2f} s "
            f"(warm-up plus analysis), got {stimulus[0].duration:.3f} s"
        )
    if args.wav_out:
        wav_rate(rate)
    _warn_rows(args, configs, hardware_rate=True)  # the stimulus's own rate
    for index, (param, cfg) in enumerate(zip(args.params, configs)):
        rng = _param_rng(args.seed, param)
        outputs = _run_chain(chain, cfg, stimulus, rng)
        rows.extend(analyze(param, Signal(outputs[0].samples[skip:], rate)))
        if index == 0 and args.wav_out:
            if chain == "i2s":
                write_wav(outputs[0], args.wav_out, right=outputs[1])
            else:
                # the output carries the DAC's standing offset
                write_wav(outputs[0], args.wav_out, full_scale=adcdac.DAC_SPEC.v_max)
    return rows


def run_scenario(args: argparse.Namespace) -> None:
    if args.measure == "latency":
        rows = _run_latency(args)
        header = ("parameter", "latency_seconds")
    elif args.measure in ("thd", "thdn"):
        rows = _run_rows(args, _thd_rows)
        header = ("parameter", "thd_db", "thdn_db")
    else:
        rows = _run_rows(args, _spectrum_rows)
        header = ("frequency_hz", "power_dbv")
    write_csv(args.out, args.command_line, header, rows)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args, argv)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        run_scenario(args)
    except DamageVoltage as exc:
        print(f"{PROG}: chain fault: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnsupportedWav) as exc:
        print(f"{PROG}: i/o error: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        # sample counts and latencies scale with these two flags alone
        given = (("--block-samples", args.block_samples), ("--sample-rate", args.sample_rate))
        flags = " or ".join(flag for flag, value in given if value is not None)
        print(f"{PROG}: error: {flags} out of range: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, AudioChainError) as exc:
        # unusable scenario data, e.g. a wav-in too short or off-frequency, a rate
        # the stimulus aliases at, a record too large to allocate
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
