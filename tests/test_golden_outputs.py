"""Golden outputs of the `scripts/compare_outputs.py` scenario set.

Every scenario runs in-process through `cli.main`, in list order and in one
directory, so later `--wav-in` runs read earlier `--wav-out` files.  The
outputs are compared with the committed `golden_outputs.json`:

* exit statuses and latency cells exactly;
* `thd_db`, `thdn_db` and `power_dbv` within 1e-9 dB, because BLAS dot
  products may differ in their last bits across CPU kernels;
* per spectrum CSV, the row count, the peak row and the rows nearest 1 kHz
  and 3 kHz;
* the sha256 of every WAV.

A change that moves an output regenerates the manifest in the same diff and
names every moved cell in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from audiochains import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_outputs.json")
sys.path.insert(0, str(ROOT / "scripts"))
from compare_outputs import SCENARIOS  # noqa: E402

pytestmark = pytest.mark.filterwarnings(
    "ignore::audiochains.errors.NonStandardBlockSizeWarning"  # i2s_latency_256
)

DB_COLUMNS = {"thd_db", "thdn_db", "power_dbv"}
DB_TOL = 1e-9


def _spectrum_rows(rows: list[list[str]]) -> list[list[str]]:
    """The peak row and the rows nearest 1 kHz and 3 kHz (Nyquist's below 6 kHz)."""
    peak = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    step = float(rows[1][0])
    return [rows[peak], *(rows[min(round(hz / step), len(rows) - 1)] for hz in (1000.0, 3000.0))]


def run_scenarios(workdir: Path) -> dict:
    """Each scenario's exit status, CSV summary and WAV digest, keyed by name."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        results = {}
        for name, args in SCENARIOS:
            entry = results[name] = {"status": cli.main([*args, "--out", f"{name}.csv"])}
            if os.path.exists(f"{name}.csv"):
                _, header, rows = cli.read_csv(f"{name}.csv")
                entry["header"], entry["row_count"] = header, len(rows)
                entry["rows"] = _spectrum_rows(rows) if header[0] == "frequency_hz" else rows
            if os.path.exists(f"{name}.wav"):
                entry["wav_sha256"] = hashlib.sha256(Path(f"{name}.wav").read_bytes()).hexdigest()
        return results
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_scenarios(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in SCENARIOS])
def test_outputs_match_the_manifest(outputs, name):
    want = json.loads(MANIFEST.read_text())[name]
    got = outputs[name]
    assert {k: v for k, v in got.items() if k != "rows"} == {
        k: v for k, v in want.items() if k != "rows"
    }
    assert len(got.get("rows", ())) == len(want.get("rows", ()))
    for got_row, want_row in zip(got.get("rows", ()), want.get("rows", ())):
        for column, g, w in zip(want["header"], got_row, want_row, strict=True):
            if column in DB_COLUMNS:
                assert float(g) == pytest.approx(float(w), rel=0, abs=DB_TOL), (column, want_row)
            else:
                assert g == w, (column, want_row)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_scenarios(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
