"""Per-layer spans recorded from outside the package.

Each public function a layer exposes is wrapped under the name its caller
looks up (``cli.measure_thd``, ``adcdac.quantize_uniform``, ...), so nothing
under ``src/`` changes.  A span holds its name, layer, start, end, parent
span and the pass it belongs to; spans stay in memory until the run writes
them out.  A layer's self time is its spans' durations minus the time their
child spans cover.

The front end's filter runs under the private ``frontend._condition``, which
is not wrapped: its time stays in ``adcdac.self_s`` and ``frontend`` covers
only ``check_damage``.  ``measure``'s call of ``window_samples`` counts as
``spectrum`` time, the module that defines it.

What each layer metric should move, written down before any change:

* ``i2s.self_s`` / ``i2s.ns_per_sample``: ``i2s_s_p50`` on latency and
  distortion, not on spectrum_wav.
* ``mls.self_s`` / ``mls.distinct_per_call``: ``i2s_s_p50`` on latency only;
  a cache may raise ``peak_rss_mb`` or ``first_pass_s`` there.
* ``measure.self_s`` / ``measure.fft_largest_prime``: ``i2s_s_p50`` on
  distortion only.
* ``adcdac``, ``quantize`` and ``frontend`` self times: ``adcdac_s_p50`` on
  distortion and spectrum_wav, not on latency (16 380 samples, front end
  bypassed).
* ``spectrum.self_s``, ``cli.csv_s`` and ``wavio.self_s``: ``pass_s_p50`` on
  spectrum_wav only.
* import cost: ``setup_s`` on every workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "signals", "mls", "distortion", "i2s", "frontend", "quantize",
    "adcdac", "measure", "spectrum", "wavio", "cli",
)


def _count_sine(c, args, result):
    c.add("signals.samples", len(result))


def _count_mls(c, args, result):
    cfg = args["cfg"]
    c.add("mls.chips", len(result))
    c.distinct("mls", (cfg.order, cfg.seed, cfg.amplitude))


def _count_calibration(c, args, result):
    c.add("distortion.calibrations", 1)


def _count_i2s(c, args, result):
    n = len(args["input_left"])
    c.add("i2s.samples", n)
    c.add("i2s.blocks", -(-n // args["cfg"].block_samples))


def _count_adcdac(c, args, result):
    c.add("adcdac.samples", len(args["in0"]))


def _count_quantize(c, args, result):
    c.add("quantize.samples", getattr(args["v"], "size", 1))


def _count_window(c, args, result):
    c.add("measure.analysis_len", args["n"])
    c.peak("measure.fft_largest_prime", largest_prime_factor(args["n"]))


def _count_power_spectrum(c, args, result):
    c.add("spectrum.segments", len(args["sig"]) // (len(result.bin_frequencies) * 2 - 2))


def _count_read(c, args, result):
    c.add("wavio.bytes_read", os.path.getsize(args["path"]))


def _count_write(c, args, result):
    c.add("wavio.bytes_written", os.path.getsize(args["path"]))


def _count_csv(c, args, result):
    c.add("cli.csv_rows", len(args["rows"]))
    c.add("cli.csv_bytes", os.path.getsize(args["path"]))


# (module or class the caller looks the name up in, attribute, layer, counter)
TARGETS = (
    ("cli", "main", "cli", None),
    ("cli", "write_csv", "cli", _count_csv),
    ("cli", "generate_sine", "signals", _count_sine),
    ("cli", "calibrate_distortion", "distortion", _count_calibration),
    ("distortion.PolynomialDistortion", "apply", "distortion", None),
    ("cli", "measure_impulse_response", "measure", None),
    ("cli", "estimate_latency", "measure", None),
    ("cli", "measure_thd", "measure", None),
    ("measure", "generate_mls", "mls", _count_mls),
    ("measure", "window_samples", "spectrum", _count_window),
    ("cli", "power_spectrum", "spectrum", _count_power_spectrum),
    ("cli", "read_wav", "wavio", _count_read),
    ("cli", "write_wav", "wavio", _count_write),
    ("i2s", "run_block_pipeline", "i2s", _count_i2s),
    ("adcdac", "run_sample_pipeline", "adcdac", _count_adcdac),
    ("adcdac", "check_damage", "frontend", None),
    ("adcdac", "quantize_uniform", "quantize", _count_quantize),
    ("adcdac", "dequantize", "quantize", None),
)


def largest_prime_factor(n: int) -> int:
    largest, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            largest, n = d, n // d
        d += 1
    return max(largest, n) if n > 1 else largest


def _resolve(dotted: str):
    """audiochains.<module>[.<Class>], or None once a refactor removed it."""
    module, _, cls = dotted.partition(".")
    try:
        owner = importlib.import_module(f"audiochains.{module}")
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class _Counts:
    """Work counts of one pass: sums, maxima and distinct keys."""

    def __init__(self):
        self.values = defaultdict(float)
        self.keys = defaultdict(set)

    def add(self, name, amount):
        self.values[name] += amount

    def peak(self, name, value):
        self.values[name] = max(self.values[name], value)

    def distinct(self, name, key):
        self.keys[name].add(key)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, pass id, raised]
        self.counts: list[_Counts] = []
        self.absent = [f"{o}.{a}" for o, a, _, _ in TARGETS if getattr(_resolve(o), a, None) is None]
        self.counter_failures = set()
        self._stack = []

    def begin_pass(self) -> None:
        self.counts.append(_Counts())

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that still exists; restore the originals after."""
        saved = []
        try:
            for owner_name, attr, layer, count in TARGETS:
                owner = _resolve(owner_name)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, f"{owner_name}.{attr}", layer, count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, layer, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    len(self.counts) - 1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts[-1], bound.arguments, result)
                except (TypeError, KeyError, AttributeError, OSError):
                    # a refactor renamed an argument; the count goes missing, the run goes on
                    self.counter_failures.add(name)
            return result

        return wrapper

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus work counts: pass medians.

        Times of pass i are multiplied by scales[i], the run's host-speed factor.
        """
        n_passes = len(self.counts)
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, pass_id, raised in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_pass = [defaultdict(float) for _ in range(n_passes)]
        errors = defaultdict(int)
        for (name, layer, start, end, parent, pass_id, raised), covered in zip(self.spans, child):
            p = per_pass[pass_id]
            p[f"{layer}.calls"] += 1
            p[f"{layer}.self_s"] += (end - start - covered) * scales[pass_id]
            if name == "cli.write_csv":
                p["cli.csv_s"] += (end - start) * scales[pass_id]
            errors[layer] += raised
        for p, counts in zip(per_pass, self.counts):
            p.update(counts.values)
            for layer in ("i2s", "adcdac"):
                if p[f"{layer}.samples"]:
                    p[f"{layer}.ns_per_sample"] = 1e9 * p[f"{layer}.self_s"] / p[f"{layer}.samples"]
            if p["mls.calls"]:
                p["mls.distinct_per_call"] = len(counts.keys["mls"]) / p["mls.calls"]
        names = {name for p in per_pass for name in p}
        metrics = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = float(errors[layer])
        return metrics

    def absent_layers(self) -> list[str]:
        present = {layer for o, a, layer, _ in TARGETS if f"{o}.{a}" not in self.absent}
        return [layer for layer in LAYERS if layer not in present]

    def dump(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "pass", "raised")
        return [dict(zip(keys, span)) for span in self.spans]
