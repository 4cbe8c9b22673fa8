"""Stationary-variance table of every sampler kind on isotropic Gaussians.

Each kind of :data:`steinmc.samplers.SAMPLER_KINDS` samples N(0, s^2 I_2)
for s^2 in {0.25, 1, 4} with L = 20 particles started at N(0, s^2 I_2),
20,000 iterations, burn-in 4,000 and thin 4, on seeds 0-4.  Every kind gets
a per-particle step of 0.01 s^2 through :func:`steinmc.samplers.scaled_step`:
eps = 0.01 s^2 for sgld and 0.01 s^2 L for the interacting kinds, whose drift
and noise carry a 1/L.  A sampler that leaves its target stationary draws
a pooled variance of s^2, so each cell shows the min-max over seeds of

  pooled sample variance (mean over coordinates) / s^2,

and how many seeds diverged, if any did.  It is a report only: it sets no
test, seed or bound.

Run from the repository root:

  PYTHONPATH=src python scripts/stationarity_table.py
"""

from __future__ import annotations

import numpy as np

from steinmc import samplers
from steinmc.errors import DivergenceError
from steinmc.targets import TargetModel

VARIANCES = (0.25, 1.0, 4.0)
SEEDS = range(5)
PARTICLES = 20
ITERATIONS = 20_000
BURN_IN = 4_000
THIN = 4
DIM = 2


def gaussian(var: float) -> TargetModel:
    """N(0, var I_2), scored by numpy alone."""
    return TargetModel(
        name=f"gaussian_var{var:g}",
        dim=DIM,
        log_density=lambda z, ops=None: -0.5 * (z * z).sum(axis=1) / var,
        grad_log_density=lambda z, ops=None: -z / var,
    )


def cell(ratios: list[float], diverged: int) -> str:
    """min-max of the ratios, with the count of diverged seeds."""
    if not ratios:
        return f"all {diverged} seeds diverge"
    text = f"{min(ratios):.3g}–{max(ratios):.3g}"
    return text + (f" ({diverged} diverged)" if diverged else "")


def report(variances=VARIANCES, seeds=SEEDS, particles=PARTICLES, iterations=ITERATIONS,
           burn_in=BURN_IN, thin=THIN) -> list[str]:
    """The table's lines, a markdown table with one row per sampler kind."""
    policy = samplers.CollectionPolicy(burn_in=burn_in, thin=thin)
    lines = ["| kind | " + " | ".join(f"s² = {var:g}" for var in variances) + " |",
             "| --- |" + " --- |" * len(variances)]
    for kind in samplers.SAMPLER_KINDS:
        cells = []
        for var in variances:
            eps = samplers.scaled_step(kind, 0.01 * var, particles)
            spec = samplers.RunSpec(kind, particles, iterations,
                                    samplers.StepSchedule(eps0=eps), policy,
                                    init_std=float(np.sqrt(var)))
            ratios, diverged = [], 0
            for seed in seeds:
                try:
                    result = samplers.run(spec, gaussian(var), seed)
                except DivergenceError:
                    diverged += 1
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    ratios.append(float(result.samples.var(axis=0).mean() / var))
            cells.append(cell(ratios, diverged))
        lines.append(f"| `{kind}` | " + " | ".join(cells) + " |")
    return lines


if __name__ == "__main__":
    print("\n".join(report()))
