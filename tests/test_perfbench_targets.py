"""Every name the benchmark's tracer wraps still exists in the package, and
every counter it attaches still binds its arguments.

`perfbench/spans.py` wraps public names from outside (its `TARGETS`); one
that a refactor drops leaves its layer untraced, and one whose argument a
refactor renames drops that counter's metric.  The benchmark's own smoke
test is the only other check that notices.  This test only reads
`perfbench/`.
"""

import importlib.util
from pathlib import Path

from audiochains import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_in_the_package():
    spans = _spans()
    assert len(spans.TARGETS) > 0
    # the names the benchmark reports as trace.absent_names
    assert spans.Tracer().absent == []


def test_every_counter_binds_its_arguments(tmp_path):
    # four short runs that between them call every target with a counter
    spans = _spans()
    wav = str(tmp_path / "x.wav")
    runs = (
        ["--chain", "i2s", "--measure", "latency", "--block-samples", "16"],
        ["--chain", "adcdac", "--measure", "latency"],
        ["--chain", "i2s", "--measure", "spectrum", "--block-samples", "128",
         "--sample-rate", "8000", "--wav-out", wav],
        ["--chain", "i2s", "--measure", "thd", "--block-samples", "128", "--wav-in", wav],
    )
    tracer = spans.Tracer()
    tracer.begin_pass()
    with tracer.installed():
        for i, argv in enumerate(runs):
            assert cli.main([*argv, "--out", str(tmp_path / f"{i}.csv")]) == 0
    # a counter whose argument was renamed lands here instead of in a metric
    assert tracer.counter_failures == set()
    counted = {f"{o}.{a}" for o, a, _, count in spans.TARGETS if count is not None}
    assert counted - {span[0] for span in tracer.spans} == set()
