"""Seed-sweep report for acceptance criteria 1-3.

The acceptance suite (tests/test_acceptance.py) decides criteria 1-3 on five
seeds.  This script makes the same per-seed comparisons over seeds 0-49 of
the synthetic benchmark, so a reader can see how often each comparison holds:

  criterion 1  exponential mixture (moe), mean error err_ex:  repulsive <= plain
  criterion 2  Gaussian grid (mog), mean error err_ex:        repulsive <= plain
  criterion 3  exponential mixture (moe), ESS:                repulsive >= plain

For each criterion it prints the per-seed win rate, the wins in each block
of five consecutive seeds, and the medians of the compared quantities.  It is
a report only: it sets no test, seed or bound.

Run from the repository root:

  PYTHONPATH=src python scripts/criteria_sweep.py
"""

from __future__ import annotations

import operator

import numpy as np

from steinmc import cli

SEEDS = range(50)
BLOCK = 5

# criterion, distribution, compared column of the bench-synthetic table, and
# the comparison of (repulsive, plain) that counts as a win
CRITERIA = (
    (1, "moe", "err_ex", operator.le),
    (2, "mog", "err_ex", operator.le),
    (3, "moe", "ess", operator.ge),
)


def report(seeds) -> list[str]:
    """The report's lines for the synthetic benchmark run on ``seeds``."""
    seeds = list(seeds)
    table = [dict(zip(cli.BENCH_HEADER.split(","), row)) for row in cli.bench_rows(seeds)]

    def column(dist, kind, name):  # in seed order, as bench_rows returns them
        return [row[name] for row in table if (row["distribution"], row["sampler"]) == (dist, kind)]

    lines = []
    for criterion, dist, name, wins in CRITERIA:
        rep, plain = column(dist, "repulsive_sgld", name), column(dist, "sgld", name)
        won = [wins(r, p) for r, p in zip(rep, plain)]
        blocks = [sum(won[i:i + BLOCK]) for i in range(0, len(won), BLOCK)]
        sign = "<=" if wins is operator.le else ">="
        lines += [
            f"criterion {criterion} ({dist} {name}, repulsive {sign} plain): "
            f"win rate {np.mean(won):.2f} over {len(seeds)} seeds",
            f"  wins per block of {BLOCK} seeds: {','.join(map(str, blocks))}",
            f"  median repulsive {np.median(rep):.4g}, plain {np.median(plain):.4g}",
        ]
    return lines


if __name__ == "__main__":
    print("\n".join(report(SEEDS)))
