"""The runtime needs numpy alone: scipy stays a test-only oracle.

Each check runs in a fresh interpreter, because the one running the
tests has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import audiochains

PACKAGE_ROOT = str(Path(audiochains.__file__).resolve().parent.parent)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from compare_outputs import SCENARIOS as ALL_SCENARIOS  # noqa: E402

# the six default scenarios; a spectrum run sweeps one value and writes its WAV
SCENARIOS = [dict(ALL_SCENARIOS)[name] for name in (
    "i2s_latency", "adcdac_latency", "i2s_thd", "adcdac_thd", "i2s_spectrum", "adcdac_spectrum"
)]

BLOCKED_RUN = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
import audiochains.cli as cli

runs = []
for i, args in enumerate(json.loads(sys.argv[1])):
    before = set(sys.modules)
    status = cli.main(args + ["--out", f"run{i}.csv"])
    added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
    runs.append({"args": args, "status": status, "added": added})
print(json.dumps(runs))
"""


def _python(code: str, *args: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_scipy(tmp_path):
    out = _python(
        "import sys, audiochains.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        cwd=tmp_path,
    )
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_numpy_ma(tmp_path):
    # no code path uses numpy.ma (the latency probe's median is one
    # partition, not np.median), so loading it would only slow the import
    out = _python(
        "import sys, audiochains.cli; "
        "print([m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')])",
        cwd=tmp_path,
    )
    assert out.strip() == "[]"


def test_default_scenarios_run_without_scipy_and_import_nothing_lazily(tmp_path):
    runs = json.loads(_python(BLOCKED_RUN, json.dumps(SCENARIOS), cwd=tmp_path))
    for run in runs:
        assert run["status"] == 0, run
        assert run["added"] == [], run
    assert len(runs) == len(SCENARIOS)
