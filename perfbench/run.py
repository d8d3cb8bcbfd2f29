#!/usr/bin/env python3
"""audiochains benchmark.

    python3 perfbench/run.py --workload {latency,distortion,spectrum_wav} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  Without ``--trace`` (``--trace 0``) the run

1. starts six fresh interpreters, each timing ``import audiochains.cli``
   (``setup_s``) and then one pass (``first_pass_s``),
2. runs one untimed warm-up pass in this interpreter,
3. runs passes for ``--seconds`` and reports the end-to-end metrics.

With ``--trace 1`` it alternates untraced and traced passes for ``--seconds``
and reports per-layer metrics from the spans (see spans.py) plus the tracing
overhead, traced ``pass_s_p50`` against untraced.

Every time metric is wall time taken to a nominal host speed.  A fixed
reference kernel (scenarios.reference_kernel_s) is timed on both sides of
each timed pass and of each cold start; the wall time is multiplied by 6 ms
over those kernel times (their mean, or for a cold start their median),
6 ms being what the kernel takes on the 2-core host the bounds were set on.
On that shared host the CPU speed drifts by up to a third within minutes and
by 40 % between quarter-hours: the quartile spread of raw wall medians over
ten runs was 10-23 %, that of the scaled metrics 2-8 %.  The raw wall
medians are printed and stored beside the metrics.

``ok_frac`` is 1 minus the failed fraction: scenario calls that passed every
check over calls attempted.  It is reported that way round because a
metric that is 0 at a healthy commit cannot carry a relative bound.

Every scenario call is checked (scenarios.py) and its CSV must match, byte
for byte, every other call of the same scenario in the run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Run context (git sha, versions, nproc, BLAS threads, a
host-speed reading), failures and spans go to
``.perfbench_out/<workload>-<seed>/``.  Exit status 2 means the checkout
has no ``src/audiochains`` to measure.
"""

import os

# One BLAS thread in this process and in the cold-start interpreters it starts.
BLAS_THREADS = {
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import scenarios  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COLD_STARTS = 6
COLD_TIMEOUT_S = 60
# What the reference kernel takes on the 2-core host the bounds were set on.
KERNEL_NOMINAL_S = 6.0e-3

END_TO_END = {
    "pass_s_p50": "s",
    "pass_s_tail": "s",
    "i2s_s_p50": "s",
    "adcdac_s_p50": "s",
    "setup_s": "s",
    "first_pass_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    "mls.chips": "count",
    "mls.distinct_per_call": "ratio",
    "i2s.samples": "count",
    "i2s.blocks": "count",
    "i2s.ns_per_sample": "ns",
    "adcdac.samples": "count",
    "adcdac.ns_per_sample": "ns",
    "quantize.samples": "count",
    "measure.analysis_len": "count",
    "measure.fft_largest_prime": "count",
    "spectrum.segments": "count",
    "wavio.bytes_read": "B",
    "wavio.bytes_written": "B",
    "cli.csv_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "cli.warnings": "count",
    "signals.samples": "count",
    "distortion.calibrations": "count",
    "trace.pass_s_p50": "s",
    "trace.untraced_pass_s_p50": "s",
    "trace.overhead_frac": "frac",
    "trace.absent_names": "count",
}


def host_scale(kernel_s: float) -> float:
    """Factor that takes a wall time measured beside `kernel_s` to the nominal host."""
    return KERNEL_NOMINAL_S / kernel_s


def bracketing_scale(kernel: list[float]) -> float:
    """Host scale of a pass run between the last two kernel readings."""
    return host_scale((kernel[-2] + kernel[-1]) / 2.0)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With 10 or fewer values no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cold_start(workload: str, seed: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), workload, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=COLD_TIMEOUT_S, check=False,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"cold start exited {proc.returncode} without a result")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["records"] = [scenarios.CallRecord(**r) for r in result["records"]]
    return result


def timed_passes(seconds: float, run_one) -> None:
    """Call run_one(i) for pass i = 0, 1, ... until `seconds` have gone by (at least twice)."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        run_one(i)
        i += 1


def failures(records: list[scenarios.CallRecord]) -> list[str]:
    """One line per failed call: a failed check, or a CSV unlike the scenario's first."""
    first = {}
    failed = []
    for r in records:
        problems = list(r.problems)
        if r.digest is not None:
            if first.setdefault(r.name, r.digest) != r.digest:
                problems.append("CSV differs from the first call of this scenario")
        if problems:
            failed.append(f"{r.name}: " + "; ".join(problems))
    return failed


def untraced_run(cli, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    cold = [cold_start(workload, seed, out_dir) for _ in range(COLD_STARTS)]
    calls = scenarios.calls_for(workload, seed, out_dir)
    records = [r for c in cold for r in c["records"]]
    records += scenarios.run_pass(cli, calls)  # warm-up: lazy set-up stays out of the p50
    passes = []  # (records, host scale)
    kernel = [scenarios.reference_kernel_s()]

    def run_one(_):
        done = scenarios.run_pass(cli, calls)
        kernel.append(scenarios.reference_kernel_s())
        passes.append((done, bracketing_scale(kernel)))

    timed_passes(seconds, run_one)
    records += [r for done, _ in passes for r in done]
    wall = [sum(r.seconds for r in done) for done, _ in passes]
    pass_s = [w * scale for w, (_, scale) in zip(wall, passes)]
    tail_s, tail_pct = tail(pass_s)

    def chain_s(chain):
        return [r.seconds * scale for done, scale in passes for r in done if r.chain == chain]

    cold_pass = [sum(r.seconds for r in c["records"]) for c in cold]
    metrics = {
        "pass_s_p50": statistics.median(pass_s),
        "pass_s_tail": tail_s,
        "i2s_s_p50": statistics.median(chain_s("i2s")),
        "adcdac_s_p50": statistics.median(chain_s("adcdac")),
        "setup_s": statistics.median(c["setup_s"] * host_scale(c["kernel_s"]) for c in cold),
        "first_pass_s": statistics.median(
            s * host_scale(c["kernel_s"]) for s, c in zip(cold_pass, cold)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = failures(records)
    metrics["ok_frac"] = 1.0 - len(failed) / len(records)
    notes = {
        "passes": len(passes),
        "cold_starts": COLD_STARTS,
        "pass_s_tail_percentile": tail_pct,
        "failed_frac": len(failed) / len(records),
        "wall_pass_s_p50": statistics.median(wall),
        "wall_setup_s": statistics.median(c["setup_s"] for c in cold),
        "wall_first_pass_s": statistics.median(cold_pass),
        "host_kernel_ms_p50": 1e3 * statistics.median(kernel),
    }
    return {"metrics": metrics, "records": records, "failures": failed, "notes": notes}


def traced_run(cli, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    calls = scenarios.calls_for(workload, seed, out_dir)
    records = scenarios.run_pass(cli, calls)  # warm-up
    tracer = spans.Tracer()
    pass_s = {True: [], False: []}
    traced_scales = []
    kernel = [scenarios.reference_kernel_s()]

    def run_one(i):
        traced = i % 2 == 1
        if traced:
            tracer.begin_pass()
            with tracer.installed():
                done = scenarios.run_pass(cli, calls)
            tracer.counts[-1].add("cli.warnings", sum(r.warnings for r in done))
        else:
            done = scenarios.run_pass(cli, calls)
        kernel.append(scenarios.reference_kernel_s())
        scale = bracketing_scale(kernel)
        if traced:
            traced_scales.append(scale)
        pass_s[traced].append(scale * sum(r.seconds for r in done))
        records.extend(done)

    timed_passes(seconds, run_one)
    metrics = tracer.layer_metrics(traced_scales)
    traced_p50 = statistics.median(pass_s[True])
    untraced_p50 = statistics.median(pass_s[False])
    metrics.update({
        "trace.pass_s_p50": traced_p50,
        "trace.untraced_pass_s_p50": untraced_p50,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
        "trace.absent_names": float(len(tracer.absent)),
    })
    (out_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    notes = {
        "traced_passes": len(pass_s[True]),
        "untraced_passes": len(pass_s[False]),
        "absent_names": tracer.absent,
        "absent_layers": tracer.absent_layers(),
        "counter_failures": sorted(tracer.counter_failures),
        "frontend": "frontend._condition is private and not wrapped: "
                    "the front-end filter time stays in adcdac.self_s",
        "csv_check": "traced and untraced passes must write byte-identical CSVs",
        "host_kernel_ms_p50": 1e3 * statistics.median(kernel),
    }
    return {"metrics": metrics, "records": records, "failures": failures(records), "notes": notes}


def run_context() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="audiochains benchmark")
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "audiochains" / "__init__.py").is_file():
        print(f"no audiochains package under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import audiochains.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "audiochains":
        print(f"imported audiochains from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios.make_inputs(args.workload, args.seed, str(out_dir))
    run = traced_run if args.trace else untraced_run
    result = run(cli, args.workload, args.seed, args.seconds, out_dir)
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}

    context = {**run_context(), "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, **result["notes"],
               "failures": result["failures"], "metrics": metrics}
    (out_dir / f"context-trace{args.trace}.json").write_text(json.dumps(context, indent=1))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"# {key}: {value}")
    for line in result["failures"]:
        print(f"# FAILED {line}")
    attempted, failed = len(result["records"]), len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
