#!/usr/bin/env python3
"""Mutation pass over the documented constants and boundaries.

    python scripts/mutants.py [NAME ...]

Each mutant below edits or adds one line of one source file.  For each (or
only the NAMEs given), the script copies the tree once into a temporary
directory, applies the edit there, runs tier-1 with ``-x`` on the copy and
restores the file.  A failing run kills the mutant.  One line per mutant and
a tally are printed.  The exit status is 1 when a mutant survives that
should be killed, or when a mutant's text does not occur exactly once in its
file; a mutant expected to survive carries its reason, and is reported, not
judged, whichever way it goes.  Each mutant costs one tier-1 run, up to
about 20 s on 2 cores, so this is a check to run by hand, not a CI step.
Standard library only; it uses the interpreter it runs under.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/audiochains/"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

# (name, file, old text, new text, reason it survives, or None if it must be killed)
MUTANTS = [
    # the four promises a first mutation pass found unpinned
    ("mls-periods", PKG + "measure.py", "MLS_PERIODS = 4", "MLS_PERIODS = 3", None),
    ("peak-exclusion", PKG + "measure.py",
     "keep[max(peak - 8, 0) : peak + 9]", "keep[max(peak - 4, 0) : peak + 5]", None),
    ("ten-periods", PKG + "measure.py",
     "n * fundamental_hz < 10 * fs", "n * fundamental_hz < 9 * fs", None),
    ("wav-half-lsb", PKG + "wavio.py",
     "np.abs(codes - scaled) <= 0.5", "np.abs(codes - scaled) <= 0.75", None),
    # the calibration: the targets, the stimulus level and the closed forms
    ("i2s-thdn", PKG + "i2s.py", "THDN_DB = -68.0", "THDN_DB = -67.9", None),
    ("adcdac-thdn", PKG + "adcdac.py", "LOW_SPEED: -63.0", "LOW_SPEED: -62.9", None),
    ("adcdac-thdn-high", PKG + "adcdac.py", "HIGH_SPEED: -61.0", "HIGH_SPEED: -60.9", None),
    ("calibration-vrms", PKG + "signals.py", "CALIBRATION_VRMS = 0.5", "CALIBRATION_VRMS = 0.49",
     None),
    ("pin-noise-factor", PKG + "adcdac.py", "math.sqrt(2 * (10 ** (THDN_DB",
     "math.sqrt(1 * (10 ** (THDN_DB", None),
    ("cubic-coefficient", PKG + "distortion.py",
     "a3=4.0 * 10.0 ** (target_hd3_db", "a3=4.008 * 10.0 ** (target_hd3_db", None),
    # documented constants of the chains and the analyzer
    ("harmonic-half-bins", PKG + "measure.py", "HARMONIC_HALF_BINS = 3", "HARMONIC_HALF_BINS = 2",
     None),
    ("adc-offset", PKG + "adcdac.py", "ADC_OFFSET = 1.625", "ADC_OFFSET = 1.6251", None),
    # the converters: the code range and the DAC's clip edges
    ("max-code", PKG + "quantize.py", "max_code: ClassVar[int] = 65535",
     "max_code: ClassVar[int] = 65534", None),
    ("dac-clip-edge", PKG + "adcdac.py", "half = DAC_SPEC.lsb / 2", "half = 0.0", None),
    # the one rounding rule, ties to even, in both converter forms
    ("tie-rule-int16", PKG + "quantize.py", "np.clip(np.rint(x),", "np.clip(np.floor(x + 0.5),",
     None),
    ("tie-rule-adc", PKG + "quantize.py", "np.clip(np.rint(scaled),",
     "np.clip(np.floor(scaled + 0.5),", None),
    # the one code type: every converter code is a float64 integral value
    ("int64-codes", PKG + "quantize.py", "np.rint(scaled), 0, spec.max_code)\n",
     "np.rint(scaled), 0, spec.max_code).astype(np.int64)\n", None),
    # the symmetric scaling the codec does not use
    ("conversion-dac", PKG + "i2s.py", "CONVERSION_DAC = 65535.0", "CONVERSION_DAC = 32767.0",
     None),
    ("int16-divisor", PKG + "quantize.py",
     "return codes / INT16_MAX * full_scale", "return codes / (INT16_MAX + 1.0) * full_scale",
     None),
    ("warmup", PKG + "cli.py", "WARMUP_SECONDS = 0.15", "WARMUP_SECONDS = 0.1", None),
    ("min-mls-order", PKG + "cli.py", "MIN_MLS_ORDER = 12", "MIN_MLS_ORDER = 11", None),
    ("rail-low", PKG + "frontend.py",
     "RAIL_LOW, RAIL_HIGH = 0.030,", "RAIL_LOW, RAIL_HIGH = 0.031,", None),
    ("damage-high", PKG + "frontend.py",
     "DAMAGE_HIGH = -0.2, 3.5", "DAMAGE_HIGH = -0.2, 3.4", None),
    # the other numeric constants README's module table names
    ("fixed-delay", PKG + "i2s.py", "FIXED_DELAY = 536e-6", "FIXED_DELAY = 540e-6", None),
    ("pipeline-blocks", PKG + "i2s.py", "PIPELINE_BLOCK_COUNT = 3.0", "PIPELINE_BLOCK_COUNT = 3.01",
     None),
    ("i2s-thd", PKG + "i2s.py", "THD_DB = -80.0", "THD_DB = -79.9", None),
    ("i2s-full-scale", PKG + "i2s.py", "FULL_SCALE_VOLTS = 1.0", "FULL_SCALE_VOLTS = 1.001", None),
    ("conversion-low", PKG + "adcdac.py", "LOW_SPEED: 11.68e-6", "LOW_SPEED: 11.78e-6", None),
    ("conversion-high", PKG + "adcdac.py", "HIGH_SPEED: 9.28e-6", "HIGH_SPEED: 9.38e-6", None),
    ("spi-transfer", PKG + "adcdac.py", "SPI_TRANSFER_TIME = 16 / 50e6",
     "SPI_TRANSFER_TIME = 16 / 40e6", None),
    ("dac-offset", PKG + "adcdac.py", "DAC_OFFSET = 1.25", "DAC_OFFSET = 1.2501", None),
    ("adcdac-thd", PKG + "adcdac.py", "LOW_SPEED: -76.0", "LOW_SPEED: -75.9", None),
    ("adcdac-thd-high", PKG + "adcdac.py", "HIGH_SPEED: -67.0", "HIGH_SPEED: -66.9", None),
    ("bias-voltage", PKG + "frontend.py", "BIAS_VOLTAGE = 1.65", "BIAS_VOLTAGE = 1.66", None),
    ("coupling-cutoff", PKG + "frontend.py", "COUPLING_CUTOFF = 0.040", "COUPLING_CUTOFF = 0.041",
     None),
    ("sallen-key-cutoff", PKG + "frontend.py", "SALLEN_KEY_CUTOFF = 40000.0",
     "SALLEN_KEY_CUTOFF = 40100.0", None),
    ("sallen-key-q", PKG + "frontend.py", "SALLEN_KEY_Q = 0.7071", "SALLEN_KEY_Q = 0.7072", None),
    ("rail-high", PKG + "frontend.py", "RAIL_HIGH = 0.030, 3.270", "RAIL_HIGH = 0.030, 3.269",
     None),
    ("damage-low", PKG + "frontend.py", "DAMAGE_HIGH = -0.2,", "DAMAGE_HIGH = -0.19,", None),
    # every output stays within the golden manifest's tolerance; the allocation bound kills it
    ("frontend-block", PKG + "frontend.py", "BLOCK = 32", "BLOCK = 16", None),
    ("max-segment", PKG + "spectrum.py", "MAX_SEGMENT = 16384", "MAX_SEGMENT = 8192", None),
    ("max-harmonics", PKG + "measure.py", "MAX_HARMONICS = 20", "MAX_HARMONICS = 19", None),
    ("weak-regime", PKG + "distortion.py", "WEAK_REGIME_LIMIT_DB = -40.0",
     "WEAK_REGIME_LIMIT_DB = -41.0", None),
    # comparisons at their exact edge (tests/test_boundaries.py)
    ("warmup-edge", PKG + "cli.py", "cfg.latency >= WARMUP_SECONDS", "cfg.latency > WARMUP_SECONDS",
     None),
    ("analysis-edge", PKG + "cli.py", "n < int(0.1 * rate)", "n <= int(0.1 * rate)", None),
    ("block-edge", PKG + "i2s.py", "b < 1", "b <= 1", None),
    ("feasible-edge", PKG + "adcdac.py", "self.latency < 1.0", "self.latency <= 1.0", None),
    ("noise-edge", PKG + "measure.py", "noise_rms > 0.0", "noise_rms >= 0.0", None),
    ("spectrum-edge", PKG + "spectrum.py", "if n < 2:", "if n <= 2:", None),
    ("fundamental-edge", PKG + "measure.py", "if p1_fit <= 0.0:", "if p1_fit < 0.0:", None),
    # work no output shows: an i2s row runs its right channel only for the stereo WAV
    ("right-channel", PKG + "cli.py", "stimulus[1] if wav else None", "stimulus[1]", None),
    ("latency-right-channel", PKG + "cli.py", "run_block_pipeline(stimulus, None,",
     "run_block_pipeline(stimulus, stimulus,", None),
    # the converting input stage: its slices draw what one n-sample draw per channel draws
    ("last-slice-draw", PKG + "signals.py", "rng.standard_normal(out=buf[: len(x)])",
     "rng.standard_normal(out=buf)[: len(x)]", None),
    ("channel-draw-order", PKG + "signals.py",
     "tuple(delayed_slices(pin_codes, 0, x) for x in shaped)",
     "tuple(reversed([delayed_slices(pin_codes, 0, x) for x in reversed(shaped)]))", None),
    ("converter-probe", PKG + "signals.py", "    buf = np.empty(min(len(in0), SLICE))",
     "    [convert(x[:0]) for x in shaped]\n    buf = np.empty(min(len(in0), SLICE))", None),
    # the runtime's imports, judged in the golden run's fresh interpreter (tests/conftest.py)
    ("guarded-scipy-import", PKG + "cli.py", "import numpy as np\n",
     "import numpy as np\nwith contextlib.suppress(ImportError): import scipy.signal\n",
     None),
    ("numpy-ma-import", PKG + "cli.py", "import numpy as np\n",
     "import numpy as np\nimport numpy.ma\n", None),
    ("lazy-numpy-import", PKG + "cli.py", "    ac = Signal(measured.samples - measured.samples",
     "    import numpy.polynomial\n    ac = Signal(measured.samples - measured.samples",
     None),
    # equivalent by design
    ("slice", PKG + "signals.py", "SLICE = 8192", "SLICE = 4096",
     "the chains convert slice by slice into one output, bit for bit the whole-record result"),
    ("phasor-block", PKG + "signals.py", "PHASOR_BLOCK = 512", "PHASOR_BLOCK = 256",
     "the tone's last bits move, but every output stays within the golden manifest's tolerance"),
    # no pair of ADC codes puts the DAC input on a clip edge: of the 2**32 pairs the nearest
    # lies 1.11e-5 V from the low edge and 1.18e-5 V from the high one; half an LSB is 1.91e-5 V
    ("clip-low-edge", PKG + "adcdac.py", "out < -half", "out <= -half",
     "no pair of ADC codes gives a DAC input of exactly -half an LSB"),
    ("clip-high-edge", PKG + "adcdac.py", "out > DAC_SPEC.v_max + half",
     "out >= DAC_SPEC.v_max + half",
     "no pair of ADC codes gives a DAC input of exactly v_max plus half an LSB"),
]


def run_mutant(copy: Path, name, rel, old, new, survives) -> tuple[str, str]:
    """The printed line and the outcome: killed, survived, expected or missing."""
    path = copy / rel
    text = path.read_text()
    if text.count(old) != 1:
        return f"{name}: {old!r} occurs {text.count(old)} times in {rel}", "missing"
    path.write_text(text.replace(old, new))
    started = time.monotonic()
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    finally:
        path.write_text(text)
    took = f"({time.monotonic() - started:.1f} s)"
    if result.returncode == 0:
        if survives:
            return f"{name}: survived, as expected: {survives} {took}", "expected"
        return f"{name}: SURVIVED {took}", "survived"
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    note = ", although expected to survive" if survives else ""
    return f"{name}: killed{note} by {failed[0] if failed else 'an error'} {took}", "killed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = {"killed": 0, "expected": 0, "survived": 0, "missing": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        for mutant in MUTANTS:
            if names and mutant[0] not in names:
                continue
            line, outcome = run_mutant(copy, *mutant)
            outcomes[outcome] += 1
            print(line, flush=True)
    print(f"{outcomes['killed']} killed, {outcomes['expected']} survived as expected, "
          f"{outcomes['survived']} survived unexpectedly, {outcomes['missing']} not found")
    return 1 if outcomes["survived"] or outcomes["missing"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
