#!/usr/bin/env python3
"""Run both latency sweeps and print them next to the reference values.

The exit status is 1 when a row misses its reference by more than the
acceptance tolerance of one sample: 1/44.1 kHz for the block chain, and
1/1.536 MHz, the 16x simulation rate, for the sample chain.
"""

import argparse
import os
import sys

from audiochains.cli import main as cli_main
from audiochains.cli import read_csv

I2S_REFERENCE_MS = {16: 1.63, 32: 2.7, 64: 4.9, 128: 9.24}
ADCDAC_REFERENCE_US = {"LOW_SPEED": 12.0, "HIGH_SPEED": 9.6}
I2S_TOLERANCE_S, ADCDAC_TOLERANCE_S = 1 / 44100.0, 1 / 1.536e6


def run(outdir: str, seed: int) -> int:
    os.makedirs(outdir, exist_ok=True)
    i2s_csv = os.path.join(outdir, "i2s_latency.csv")
    adc_csv = os.path.join(outdir, "adcdac_latency.csv")
    status = cli_main(
        ["--chain", "i2s", "--measure", "latency", "--seed", str(seed), "--out", i2s_csv]
    )
    status |= cli_main(
        ["--chain", "adcdac", "--measure", "latency", "--seed", str(seed), "--out", adc_csv]
    )

    missed = False
    print("block-buffered chain (44.1 kHz)")
    print(f"{'blocks':>8} {'measured [ms]':>14} {'reference [ms]':>15}")
    _, _, rows = read_csv(i2s_csv)
    for param, latency in rows:
        reference = I2S_REFERENCE_MS[int(param)]
        miss = abs(float(latency) - reference * 1e-3) > I2S_TOLERANCE_S
        missed |= miss
        mark = "  MISS" if miss else ""
        print(f"{param:>8} {float(latency) * 1e3:>14.4f} {reference:>15.2f}{mark}")

    print("\nsample chain (96 kHz nominal, 16x oversampled simulation)")
    print(f"{'speed':>12} {'measured [us]':>14} {'reference [us]':>15}")
    _, _, rows = read_csv(adc_csv)
    for param, latency in rows:
        reference = ADCDAC_REFERENCE_US[param]
        miss = abs(float(latency) - reference * 1e-6) > ADCDAC_TOLERANCE_S
        missed |= miss
        mark = "  MISS" if miss else ""
        print(f"{param:>12} {float(latency) * 1e6:>14.3f} {reference:>15.1f}{mark}")
    return status or int(missed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(run(args.outdir, args.seed))
