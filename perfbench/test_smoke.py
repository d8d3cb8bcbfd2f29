"""Smoke test of the benchmark itself: ``python -m pytest perfbench``.

Runs every workload at minimal length, traced and untraced, and checks that
each metric BENCHMARK.json names appears with its unit and that no scenario
call fails at this commit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac is 0
        assert result["metrics"]["setup_s"]["value"] > 0.0
    else:
        assert result["metrics"]["trace.absent_names"]["value"] == 0.0
        assert result["metrics"]["cli.calls"]["value"] >= 2.0


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "latency", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import audiochains.measure

    import spans

    monkeypatch.delattr(audiochains.measure, "generate_mls")
    tracer = spans.Tracer()
    assert tracer.absent == ["measure.generate_mls"]
    assert tracer.absent_layers() == ["mls"]
    with tracer.installed():
        assert not hasattr(audiochains.measure, "generate_mls")
