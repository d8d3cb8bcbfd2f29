#!/usr/bin/env python3
"""Run one fixed CLI scenario set against two source trees and diff the outputs.

    python scripts/compare_outputs.py BASE_DIR HEAD_DIR

Each tree's `src/` is put on PYTHONPATH for its own runs, which happen in a
fresh directory per tree, so WAV outputs feed the later `--wav-in` runs of
the same tree.  For every output file the script prints "byte-identical",
or for a CSV the largest |delta| per column (line 1, which echoes the
command line and so the `--out` path, is ignored) and for a WAV the largest
|delta| in 16-bit codes.  It exits 1 only when a scenario's exit status
differs between the trees; moved numbers are reported, not judged.
"""

import os
import subprocess
import sys
import tempfile
import wave

import numpy as np

# (name, arguments); every scenario writes name.csv, --wav-out names name.wav
SCENARIOS = [
    ("i2s_latency", ["--chain", "i2s", "--measure", "latency"]),
    ("adcdac_latency", ["--chain", "adcdac", "--measure", "latency"]),
    ("i2s_thd", ["--chain", "i2s", "--measure", "thd"]),
    ("adcdac_thd", ["--chain", "adcdac", "--measure", "thd"]),
    ("i2s_spectrum", ["--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
                      "--wav-out", "i2s_spectrum.wav"]),
    ("adcdac_spectrum", ["--chain", "adcdac", "--measure", "spectrum", "--sampling-speed", "low",
                         "--wav-out", "adcdac_spectrum.wav"]),
    ("i2s_thdn", ["--chain", "i2s", "--measure", "thdn"]),
    ("adcdac_thdn", ["--chain", "adcdac", "--measure", "thdn"]),
    ("i2s_thd_wav_in", ["--chain", "i2s", "--measure", "thd", "--wav-in", "i2s_spectrum.wav",
                        "--wav-out", "i2s_thd_wav_in.wav"]),
    ("adcdac_high_wav_in", ["--chain", "adcdac", "--measure", "spectrum", "--sampling-speed",
                            "high", "--wav-in", "adcdac_spectrum.wav",
                            "--wav-out", "adcdac_high_wav_in.wav"]),
    ("i2s_thd_48k", ["--chain", "i2s", "--measure", "thd", "--sample-rate", "48000"]),
    # a stereo file whose channels differ by their noise, so the adcdac run
    # below feeds two distinct Signals where every scenario above feeds one
    ("i2s_spectrum_96k", ["--chain", "i2s", "--measure", "spectrum", "--sample-rate", "96000",
                          "--block-samples", "128", "--wav-out", "i2s_spectrum_96k.wav"]),
    ("adcdac_thd_distinct_in", ["--chain", "adcdac", "--measure", "thd",
                                "--wav-in", "i2s_spectrum_96k.wav"]),
    # the front-end bypass at a non-default rate, and the latency fit outside
    # the characterized block sizes
    ("adcdac_latency_192k", ["--chain", "adcdac", "--measure", "latency",
                             "--sample-rate", "192000"]),
    ("i2s_latency_256", ["--chain", "i2s", "--measure", "latency", "--block-samples", "256"]),
    # a record short enough that the spectrum derives an 8192-sample segment
    ("i2s_spectrum_5k", ["--chain", "i2s", "--measure", "spectrum", "--sample-rate", "5000",
                         "--block-samples", "16"]),
]


def run_tree(tree: str, workdir: str) -> dict:
    """Exit status per scenario, running the tree's own package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    status = {}
    for name, args in SCENARIOS:
        cmd = [sys.executable, "-m", "audiochains", *args, "--out", f"{name}.csv"]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        status[name] = proc.returncode
        if proc.returncode:
            print(f"  {tree}: {name} exited {proc.returncode}: {proc.stderr.strip()}")
    return status


def _csv_body(path: str) -> list[list[str]]:
    with open(path, newline="\n") as f:
        return [line.rstrip("\n").split(",") for line in f.readlines()[1:]]


def compare_csv(base: str, head: str) -> list[str]:
    a, b = _csv_body(base), _csv_body(head)
    if a == b:
        return ["byte-identical"]
    if len(a) != len(b) or a[0] != b[0]:
        return [f"header or row count differs ({len(a)} vs {len(b)} lines)"]
    notes = []
    for col, label in enumerate(a[0]):
        pairs = [(ra[col], rb[col], ra[0]) for ra, rb in zip(a[1:], b[1:])]
        moved = [(x, y, row) for x, y, row in pairs if x != y]
        if not moved:
            notes.append(f"{label}: byte-identical")
            continue
        try:
            worst = max(abs(float(x) - float(y)) for x, y, _ in moved)
        except ValueError:
            notes.append(f"{label}: {len(moved)} text cells differ")
            continue
        notes.append(f"{label}: {len(moved)} of {len(pairs)} moved, max |delta| {worst:.3g}")
        notes.extend(f"    {row}: {x} -> {y}" for x, y, row in moved[:10])
    return notes


def _wav_codes(path: str) -> np.ndarray:
    with wave.open(path, "rb") as f:
        return np.frombuffer(f.readframes(f.getnframes()), "<i2").astype(np.int64)


def compare_wav(base: str, head: str) -> list[str]:
    with open(base, "rb") as fa, open(head, "rb") as fb:
        if fa.read() == fb.read():
            return ["byte-identical"]
    a, b = _wav_codes(base), _wav_codes(head)
    if len(a) != len(b):
        return [f"length differs ({len(a)} vs {len(b)} samples)"]
    return [f"max |delta| {int(np.max(np.abs(a - b)))} codes"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_tree, head_tree = argv
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as head_dir:
        base_status = run_tree(base_tree, base_dir)
        head_status = run_tree(head_tree, head_dir)
        status = 0
        for name, _ in SCENARIOS:
            if base_status[name] != head_status[name]:
                print(f"{name}: exit status {base_status[name]} -> {head_status[name]}")
                status = 1
        for fname in sorted(set(os.listdir(base_dir)) | set(os.listdir(head_dir))):
            base, head = os.path.join(base_dir, fname), os.path.join(head_dir, fname)
            if not (os.path.exists(base) and os.path.exists(head)):
                print(f"{fname}: written by one tree only")
                continue
            notes = (compare_csv if fname.endswith(".csv") else compare_wav)(base, head)
            print(f"{fname}: {notes[0]}" if len(notes) == 1 else f"{fname}:")
            if len(notes) > 1:
                print("\n".join(f"  {note}" for note in notes))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
