"""Golden outputs of the `scripts/compare_outputs.py` scenario set.

The set runs once per session, through `compare_outputs.run_scenarios`, the
set's one runner: in the `fresh_run` fixture's fresh interpreter (see
`conftest.py`), through `cli.main`, in list order and in one directory, so
later `--wav-in` runs read earlier `--wav-out` files.  Where OpenBLAS runs
on x86, that run takes another CPU's arithmetic: an older OpenBLAS kernel
and numpy's baseline loops, under which the dB cells move in their last
bits.  Every scenario must exit 0, and its outputs are compared with the
committed `golden_outputs.json`:

* exit statuses and latency cells exactly;
* `thd_db`, `thdn_db` and `power_dbv` within 1e-9 dB, because BLAS dot
  products and numpy's SIMD-dispatched ufunc loops may differ in their
  last bits across CPU kernels;
* per spectrum CSV, the row count, the peak row, the rows nearest 1 kHz
  and 3 kHz, and the means of `power_dbv` over 64 consecutive chunks of
  rows, so a 1e-6 dB move of any one row fails;
* the sha256 of every WAV.

`test_runtime_imports.py` reads the same run's import report.

The same outputs are judged against the paper's figures by
`scripts/reproduce_tables.py`'s `PAPER` and `misses`.

A change that moves an output regenerates the manifest in the same diff and
names every moved cell in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py

The script keeps each entry that still matches within the tolerances above
and rewrites only new or moved ones, so last-digit BLAS differences do not
churn the diff; entries of scenarios no longer in the set are dropped.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from audiochains import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_outputs.json")
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402
from compare_outputs import SCENARIOS  # noqa: E402
from reproduce_tables import PAPER, misses  # noqa: E402

DB_COLUMNS = {"thd_db", "thdn_db", "power_dbv"}
DB_TOL = 1e-9
CHUNKS = 64


def _spectrum_rows(rows: list[list[str]]) -> list[list[str]]:
    """The peak row and the rows nearest 1 kHz and 3 kHz (Nyquist's below 6 kHz)."""
    peak = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    step = float(rows[1][0])
    return [rows[peak], *(rows[min(round(hz / step), len(rows) - 1)] for hz in (1000.0, 3000.0))]


def _chunk_means(rows: list[list[str]]) -> list[float]:
    """Means of power_dbv over CHUNKS consecutive, near-equal runs of rows."""
    power = np.array([float(row[1]) for row in rows])
    return [float(chunk.mean()) for chunk in np.array_split(power, CHUNKS)]


def summaries(workdir: Path, status: dict) -> dict:
    """Each scenario's exit status, CSV summary and WAV digest, keyed by name."""
    results = {}
    for name, _ in SCENARIOS:
        entry = results[name] = {"status": status[name]}
        csv, wav = workdir / f"{name}.csv", workdir / f"{name}.wav"
        if csv.exists():
            _, header, rows = cli.read_csv(str(csv))
            entry["header"], entry["row_count"] = header, len(rows)
            if header[0] == "frequency_hz":
                entry["rows"], entry["chunk_means"] = _spectrum_rows(rows), _chunk_means(rows)
            else:
                entry["rows"] = rows
        if wav.exists():
            entry["wav_sha256"] = hashlib.sha256(wav.read_bytes()).hexdigest()
    return results


@pytest.fixture(scope="module")
def outputs(fresh_run):
    """The fresh run's summaries."""
    report, workdir = fresh_run
    return summaries(workdir, report["status"])


def mismatches(got: dict, want: dict) -> list[str]:
    """Where a scenario's outputs depart from its manifest entry beyond the
    tolerances above; empty when they match."""
    inexact = ("rows", "chunk_means")
    found = []
    exact_got = {k: v for k, v in got.items() if k not in inexact}
    exact_want = {k: v for k, v in want.items() if k not in inexact}
    if exact_got != exact_want:
        found.append(f"{exact_got} != {exact_want}")
    got_means, want_means = got.get("chunk_means", []), want.get("chunk_means", [])
    if got_means != pytest.approx(want_means, rel=0, abs=DB_TOL):
        found.append("chunk_means")
    got_rows, want_rows = got.get("rows", []), want.get("rows", [])
    if len(got_rows) != len(want_rows):
        found.append(f"{len(got_rows)} rows != {len(want_rows)}")
    for got_row, want_row in zip(got_rows, want_rows):
        if len(got_row) != len(want_row):
            found.append(f"{got_row} != {want_row}")
            continue
        for column, g, w in zip(want["header"], got_row, want_row):
            if column in DB_COLUMNS:
                close = float(g) == pytest.approx(float(w), rel=0, abs=DB_TOL)
            else:
                close = g == w
            if not close:
                found.append(f"{column} {g} != {w} in {want_row}")
    return found


def test_the_manifest_holds_exactly_the_scenario_set():
    assert list(json.loads(MANIFEST.read_text())) == [name for name, _ in SCENARIOS]


@pytest.mark.parametrize("name", [name for name, _ in SCENARIOS])
def test_outputs_match_the_manifest(outputs, name):
    assert mismatches(outputs[name], json.loads(MANIFEST.read_text())[name]) == []


def test_outputs_match_the_manifest_on_another_blas_kernel_and_baseline_loops(outputs):
    assert {name: got["status"] for name, got in outputs.items()} == {n: 0 for n, _ in SCENARIOS}
    want = json.loads(MANIFEST.read_text())
    assert {name: mismatches(outputs[name], want[name]) for name in want} == {n: [] for n in want}


@pytest.mark.parametrize("name", list(PAPER))
def test_outputs_meet_the_paper(outputs, name):
    assert misses(name, outputs[name].get("rows", [])) == []


@pytest.mark.parametrize("rows, missed", [
    ([["128", "-79.5", "-69.0"]], 0),  # each figure exactly at its tolerance
    ([["128", repr(float(np.nextafter(-79.5, 0.0))), "-68.0"]], 1),
    ([["128", "-80.0", repr(float(np.nextafter(-69.0, -np.inf)))]], 1),
    ([["128", "nan", "-68.0"]], 1),
    ([["64", "-80.0", "-68.0"]], 2),  # the paper's row is absent
    ([["16", "0.0", "0.0"], ["128", "-80.0", "-68.0"]], 0),  # a row the paper does not list
])
def test_misses_judges_each_figure_at_its_tolerance(rows, missed):
    assert len(misses("i2s_thd", rows)) == missed


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = summaries(Path(tmp), compare_outputs.run_scenarios(tmp))
    rewritten = [name for name, got in new.items() if name not in old or mismatches(got, old[name])]
    manifest = {name: new[name] if name in rewritten else old[name] for name in new}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}; rewritten: {', '.join(rewritten) or 'none'}")
