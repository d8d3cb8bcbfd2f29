"""Every name the benchmark's tracer wraps still exists in the package.

`perfbench/spans.py` wraps public names from outside (its `TARGETS`); one
that a refactor drops leaves its layer untraced, and the benchmark's own
smoke test is the only other check that notices.  This test only reads
`perfbench/`.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 0
    # the names the benchmark reports as trace.absent_names
    assert spans.Tracer().absent == []
