#!/usr/bin/env python3
"""Run the four default scenarios the paper tabulates and judge them against it.

    python scripts/reproduce_tables.py [--outdir DIR]

Each scenario `PAPER` names runs through `cli.main` with its
`compare_outputs.SCENARIOS` arguments (seed 0) and writes DIR/name.csv.
Every judged row is printed beside the paper's figures and its family's role,
then one MISS line per figure that a row misses by more than the acceptance
tolerance, lacks or holds as NaN: one sample for latency (1/44.1 kHz for i2s,
1/1.536 MHz for adcdac's 16x simulation grid), 0.5 dB for THD and 1 dB for
THD+N.  The last line counts the figures, the parameters set from them and so
the figures the model predicts.  The exit status is the CLI's when nonzero,
else 1 on a miss, else 0.
`tests/test_golden_outputs.py` judges the golden run by the same `PAPER`.
"""

import argparse
import math
import os
import sys
from typing import NamedTuple

from compare_outputs import SCENARIOS

from audiochains import cli

I2S_TOL_S, ADCDAC_TOL_S = 1 / 44100.0, 1 / 1.536e6
THD_TOL_DB, THDN_TOL_DB = 0.5, 1.0


class Family(NamedTuple):
    """One family of the paper's figures and what the model takes from it: role
    "fit" where a least-squares fit sets fewer parameters than the family has
    figures, so the rest are predictions, or "set" where each figure sets one
    parameter that the run reads back; params counts the parameters set."""

    name: str
    role: str
    params: int
    tol: float


I2S_LATENCY = Family("i2s latency", "fit", 2, I2S_TOL_S)  # PIPELINE_BLOCK_COUNT, FIXED_DELAY
ADCDAC_LATENCY = Family("adcdac latency", "set", 2, ADCDAC_TOL_S)  # CONVERSION_TIME per speed
THD = Family("THD", "set", 3, THD_TOL_DB)  # each chain's THD_DB per speed
THDN = Family("THD+N", "set", 3, THDN_TOL_DB)  # each chain's THDN_DB per speed

# scenario -> row label -> one (figure, family) per value column
PAPER = {
    "i2s_latency": {str(block): [(ms * 1e-3, I2S_LATENCY)]
                    for block, ms in {16: 1.63, 32: 2.7, 64: 4.9, 128: 9.24}.items()},
    "adcdac_latency": {"LOW_SPEED": [(12.0e-6, ADCDAC_LATENCY)],
                       "HIGH_SPEED": [(9.6e-6, ADCDAC_LATENCY)]},
    "i2s_thd": {"128": [(-80.0, THD), (-68.0, THDN)]},
    "adcdac_thd": {"LOW_SPEED": [(-76.0, THD), (-63.0, THDN)],
                   "HIGH_SPEED": [(-67.0, THD), (-61.0, THDN)]},
}


def misses(name: str, rows: list[list[str]]) -> list[str]:
    """Each figure of PAPER[name] that the CSV rows (a label, then values)
    miss by more than its tolerance, lack or hold as NaN; a row PAPER does
    not list is ignored."""
    got = {row[0]: row[1:] for row in rows}
    found = []
    for label, figures in PAPER[name].items():
        cells = got.get(label, [])
        for i, (figure, family) in enumerate(figures):
            value = float(cells[i]) if i < len(cells) else math.nan
            if not abs(value - figure) <= family.tol:
                found.append(f"{name} {label}: {value:.6g} against {figure:g} +- {family.tol:.3g}")
    return found


def ledger() -> str:
    """The count of PAPER's figures, of the parameters set from them and of the
    figures left to predict."""
    columns = [family for rows in PAPER.values() for row in rows.values() for _, family in row]
    params = sum(family.params for family in set(columns))
    predicted = len(columns) - params
    return f"{len(columns)} figures, {params} parameters set from them, {predicted} predicted"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out")
    outdir = parser.parse_args(argv).outdir
    os.makedirs(outdir, exist_ok=True)
    status, missed = 0, []
    for name, args in SCENARIOS:
        if name in PAPER:
            path = os.path.join(outdir, f"{name}.csv")
            run_status = cli.main([*args, "--out", path])
            status = status or run_status
            rows = [] if run_status else cli.read_csv(path)[2]
            for label, *values in (row for row in rows if row[0] in PAPER[name]):
                figures = PAPER[name][label]
                roles = "/".join(dict.fromkeys(family.role for _, family in figures))
                cells = (f"{float(v):>12.6g} ({f:g})" for v, (f, _) in zip(values, figures))
                print(f"{name:>14} {label:>10} {roles}  " + "  ".join(cells))
            missed += misses(name, rows)
    for miss in missed:
        print(f"MISS {miss}")
    print(ledger())
    return status or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
