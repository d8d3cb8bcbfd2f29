"""One cold start: time ``import audiochains.cli`` in this fresh interpreter,
then run one pass of a workload and the host-speed kernel, and print the
result as one JSON line.

Usage: ``python3 perfbench/cold.py WORKLOAD SEED OUT_DIR`` (run.py starts it).
Nothing that imports numpy may run before the timed import.
"""

import json
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main() -> None:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    import audiochains.cli as cli

    setup_s = time.perf_counter() - started
    import scenarios

    # host-speed readings on both sides of the pass; numpy is loaded by now
    kernel = [scenarios.reference_kernel_s() for _ in range(3)]
    records = scenarios.run_pass(cli, scenarios.calls_for(workload, seed, out_dir))
    kernel += [scenarios.reference_kernel_s() for _ in range(3)]
    kernel_s = statistics.median(kernel)
    print(json.dumps({
        "setup_s": setup_s, "kernel_s": kernel_s, "records": [asdict(r) for r in records],
    }))


if __name__ == "__main__":
    main()
