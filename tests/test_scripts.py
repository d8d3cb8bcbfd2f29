"""README's promises for `scripts/reproduce_tables.py` and `scripts/compare_outputs.py`.

No chain runs here: `reproduce_tables.main` reads CSVs that a stand-in for
`cli.main` writes, and the comparisons read tiny files under `tmp_path`.
`PAPER`'s i2s latencies are also held to the chain's fitted latency form.
"""

import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from audiochains import cli
from audiochains.i2s import FIXED_DELAY, PIPELINE_BLOCK_COUNT

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import reproduce_tables  # noqa: E402
from compare_outputs import compare_csv, compare_wav  # noqa: E402
from reproduce_tables import PAPER  # noqa: E402


def _run_tables(monkeypatch, tmp_path, capsys, moved=None, status=0):
    """reproduce_tables.main on CSVs holding each of the paper's figures, except
    that moved maps (scenario, row label, column) to a value of its own; every
    run exits with status."""
    moved = moved or {}

    def fake_main(argv):
        path = argv[argv.index("--out") + 1]
        name = Path(path).stem
        lines = [",".join([label, *(repr(moved.get((name, label, i), figure))
                                    for i, (figure, _) in enumerate(figures))])
                 for label, figures in PAPER[name].items()]
        Path(path).write_text("# fixed\nparameter,value\n" + "\n".join(lines) + "\n")
        return status

    monkeypatch.setattr(cli, "main", fake_main)
    code = reproduce_tables.main(["--outdir", str(tmp_path)])
    return code, [line for line in capsys.readouterr().out.splitlines() if line.startswith("MISS")]


def test_reproduce_tables_exits_0_when_every_figure_is_within_tolerance(
        monkeypatch, tmp_path, capsys):
    # each figure moved by most of its tolerance, in both directions
    moved = {("i2s_thd", "128", 0): -80.0 + 0.49, ("i2s_thd", "128", 1): -68.0 - 0.99,
             ("i2s_latency", "16", 0): 1.63e-3 + 0.9 / 44100.0}
    assert _run_tables(monkeypatch, tmp_path, capsys, moved) == (0, [])


def test_reproduce_tables_prints_one_miss_line_per_missed_figure(monkeypatch, tmp_path, capsys):
    moved = {("i2s_thd", "128", 0): -79.4, ("adcdac_thd", "HIGH_SPEED", 1): -59.9}
    code, missed = _run_tables(monkeypatch, tmp_path, capsys, moved)
    assert code == 1
    assert [line.split(":")[0] for line in missed] == [
        "MISS i2s_thd 128", "MISS adcdac_thd HIGH_SPEED"]


def test_each_i2s_latency_figure_is_predicted_by_the_other_three_and_fits_the_constants():
    # The i2s latency form PIPELINE_BLOCK_COUNT * b / fs + FIXED_DELAY is fitted to
    # PAPER's four figures.  A least-squares line through three of them predicts the
    # fourth within its one-sample tolerance: misses of -0.47, +0.89, -0.62 and +0.95
    # samples at blocks 16, 32, 64 and 128 (cross-validation; Stone 1974).  The fit
    # through all four, 2.9995 blocks and 536.52 us, holds i2s.py's 3.0 and 536 us.
    rate = cli.DEFAULT_RATE["i2s"]
    x = np.array([int(label) / rate for label in PAPER["i2s_latency"]])
    figures = [row[0] for row in PAPER["i2s_latency"].values()]
    y = np.array([figure for figure, _ in figures])
    for k, (figure, tol) in enumerate(figures):
        rest = np.arange(len(x)) != k
        slope, intercept = np.polyfit(x[rest], y[rest], 1)
        assert abs(slope * x[k] + intercept - figure) <= tol
    slope, intercept = np.polyfit(x, y, 1)
    assert abs(PIPELINE_BLOCK_COUNT - slope) <= 1e-3
    assert abs(FIXED_DELAY - intercept) <= 1e-6


def test_reproduce_tables_exits_with_the_clis_nonzero_status(monkeypatch, tmp_path, capsys):
    # a failed run's rows are not read, so every figure also reads as missed
    code, missed = _run_tables(monkeypatch, tmp_path, capsys, status=3)
    assert code == 3
    assert len(missed) == sum(len(figures) for rows in PAPER.values() for figures in rows.values())


def _csv(path: Path, *rows: str) -> str:
    path.write_text(f"# audiochains --out {path.name}\n" + "".join(f"{row}\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("head_rows, notes", [
    # line 1 echoes the command line and is ignored
    (["parameter,thd_db", "16,-80.5", "32,-79.5"], ["byte-identical"]),
    (["parameter,thd_db", "16,-80.5", "32,-79.25"],
     ["parameter: byte-identical", "thd_db: 1 of 2 moved, max |delta| 0.25",
      "    32: -79.5 -> -79.25"]),
    (["parameter,thd_db", "16,-80.5"], ["header or row count differs (3 vs 2 lines)"]),
    (["parameter,thdn_db", "16,-80.5", "32,-79.5"],
     ["header or row count differs (3 vs 3 lines)"]),
])
def test_compare_csv_reports_each_kind_of_difference(tmp_path, head_rows, notes):
    base = _csv(tmp_path / "base.csv", "parameter,thd_db", "16,-80.5", "32,-79.5")
    assert compare_csv(base, _csv(tmp_path / "head.csv", *head_rows)) == notes


def _wav(path: Path, codes: list[int]) -> str:
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(44100)
        f.writeframes(np.array(codes, "<i2").tobytes())
    return str(path)


@pytest.mark.parametrize("head_codes, notes", [
    ([0, 100, -32768], ["byte-identical"]),
    ([0, 97, -32766], ["max |delta| 3 codes"]),
    ([0, 100], ["length differs (3 vs 2 samples)"]),
])
def test_compare_wav_reports_each_kind_of_difference(tmp_path, head_codes, notes):
    base = _wav(tmp_path / "base.wav", [0, 100, -32768])
    assert compare_wav(base, _wav(tmp_path / "head.wav", head_codes)) == notes
