#!/usr/bin/env python3
"""Run the 1 kHz / 0.5 Vrms distortion scenarios for both chains.

Each row is printed next to the paper's figures.  The exit status is 1 when
a row misses them by more than the acceptance tolerance (0.5 dB for THD,
1 dB for THD+N).
"""

import argparse
import os
import sys

from audiochains.cli import main as cli_main
from audiochains.cli import read_csv

REFERENCE = {
    ("i2s", "128"): (-80.0, -68.0),
    ("adcdac", "LOW_SPEED"): (-76.0, -63.0),
    ("adcdac", "HIGH_SPEED"): (-67.0, -61.0),
}
THD_TOLERANCE_DB, THDN_TOLERANCE_DB = 0.5, 1.0


def run(outdir: str, seed: int) -> int:
    os.makedirs(outdir, exist_ok=True)
    status, missed = 0, False
    print(f"{'chain':>8} {'parameter':>12} {'THD [dB]':>10} {'ref':>7} {'THD+N [dB]':>11} {'ref':>7}")
    for chain, extra in (("i2s", ["--block-samples", "128"]), ("adcdac", [])):
        path = os.path.join(outdir, f"{chain}_distortion.csv")
        status |= cli_main(
            ["--chain", chain, "--measure", "thd", "--seed", str(seed), "--out", path] + extra
        )
        _, _, rows = read_csv(path)
        for param, thd, thdn in rows:
            ref_thd, ref_thdn = REFERENCE[(chain, param)]
            miss = (abs(float(thd) - ref_thd) > THD_TOLERANCE_DB
                    or abs(float(thdn) - ref_thdn) > THDN_TOLERANCE_DB)
            missed |= miss
            print(
                f"{chain:>8} {param:>12} {float(thd):>10.2f} {ref_thd:>7.1f} "
                f"{float(thdn):>11.2f} {ref_thdn:>7.1f}{'  MISS' if miss else ''}"
            )
    return status or int(missed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(run(args.outdir, args.seed))
