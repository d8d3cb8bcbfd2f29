"""Suite-wide settings and the golden scenario set's one run.

Every Hypothesis test draws the same examples on every run.  The `fresh_run`
fixture runs `scripts/compare_outputs.py`'s scenario set once per session, in
a fresh interpreter, which holds the runtime promises that the one running
the tests, with scipy and pytest loaded, cannot.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

ROOT = Path(__file__).resolve().parent.parent

# the runner module and the package are its only imports before the snapshot
FRESH_RUN = """
import importlib.abc, json, sys

scipy_imports = []

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            scipy_imports.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, RefuseScipy())
import audiochains.cli, compare_outputs
numpy_ma = [m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")]
before = set(sys.modules)
status = compare_outputs.run_scenarios(sys.argv[1])
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps(dict(scipy_imports=scipy_imports, numpy_ma=numpy_ma, added=added, status=status)))
"""


def _blas_is_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # an older numpy prints its config and cannot name its BLAS
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"]


def _features_above_baseline() -> list[str]:
    """The features numpy dispatches to above its build baseline that this CPU
    has, in the running numpy's names (numpy 1.x says AVX2 where 2.x says X86_V3)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


@pytest.fixture(scope="session")
def fresh_run(tmp_path_factory) -> tuple[dict, Path]:
    """The report of the golden set's one run, and the directory it wrote to.

    The report holds every scipy import attempted (each refused), the
    `numpy.ma` modules loaded by importing the CLI, the numpy and scipy
    modules the 16 scenarios added after that import, and each scenario's
    exit status.  Where OpenBLAS runs on x86, the run takes another CPU's
    arithmetic: an older OpenBLAS kernel and numpy's baseline loops.
    """
    workdir = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]))
    if _blas_is_openblas() and platform.machine() in ("x86_64", "AMD64"):
        # another CPU's arithmetic, imitated in one process: the dB cells move in their last bits
        env.update(OPENBLAS_CORETYPE="Sandybridge",
                   NPY_DISABLE_CPU_FEATURES=" ".join(_features_above_baseline()))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", FRESH_RUN, str(workdir)],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout), workdir
