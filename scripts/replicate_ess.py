"""Replicate-seed check of the ESS that ``run`` reports.

:func:`steinmc.samplers.run` reports, in ``RunResult.ess``, an effective
sample size for the pooled mean of one run.  The yardstick it should match
needs no assumption about how the particles interact: run one protocol on S
seeds, take each run's pooled mean (in moment space), and

  replicate ESS = sigma^2 / Var over seeds of the pooled mean,

with sigma^2 the target's exact variance, taking the minimum over
dimensions.  Each row prints it beside the median of ``RunResult.ess`` over
the same seeds and their ratio; the replicate estimate's relative standard
error is about sqrt(2/S).

Rows use the bench-synthetic protocol (``cli.BENCH_PROTOCOL``, 1,000
iterations, burn-in 500, thin 10): ``moe`` with L = 10 and ``mog`` with
L = 20, plus a 1-d standard Gaussian with L = 10, per-particle step 0.1 and
init std 1, each with ``sgld`` and ``repulsive_sgld``, whose step is
:func:`steinmc.samplers.scaled_step` of the per-particle step.  It is a
report only: it sets no test, seed or bound.

Run from the repository root (S defaults to 200):

  PYTHONPATH=src python scripts/replicate_ess.py [S]
"""

from __future__ import annotations

import sys

import numpy as np

from steinmc import cli, samplers, targets

SEEDS = 200
KINDS = ("sgld", "repulsive_sgld")
GAUSSIAN_PROTOCOL = {"particles": 10, "per_particle_step": 0.1, "init_std": 1.0}


def rows(seeds, iterations: int = cli.BENCH_ITERATIONS, policy: dict = cli.BENCH_POLICY):
    """(target, kind, replicate ESS, median run ESS) for each row, run on ``seeds``."""
    protocols = {"gaussian d=1": (targets.std_gaussian(1), GAUSSIAN_PROTOCOL)}
    for dist, proto in cli.BENCH_PROTOCOL.items():
        protocols[dist] = (targets.make_target(dist), proto)
    out = []
    for name, (target, proto) in protocols.items():
        moments = {ref.order: ref.exact for ref in target.reference_moments}
        variance = moments[2] - moments[1] ** 2
        for kind in KINDS:
            eps = samplers.scaled_step(kind, proto["per_particle_step"], proto["particles"])
            spec = samplers.RunSpec(
                kind, proto["particles"], iterations, samplers.StepSchedule(eps),
                samplers.CollectionPolicy(**policy), init_std=proto["init_std"],
            )
            results = [samplers.run(spec, target, seed) for seed in seeds]
            means = np.array([result.samples.mean(axis=0) for result in results])
            replicate = float(np.min(variance / means.var(axis=0, ddof=1)))
            out.append((name, kind, replicate, float(np.median([r.ess for r in results]))))
    return out


def report(seeds, **protocol) -> list[str]:
    """The report's lines: a title and a Markdown table with one line per row."""
    seeds = list(seeds)
    lines = [
        f"replicate ESS over {len(seeds)} seeds (relative standard error about "
        f"{np.sqrt(2 / len(seeds)):.2f}) against the median run ESS",
        "| target | kind | replicate | run (median) | run / replicate |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, kind, replicate, median in rows(seeds, **protocol):
        lines.append(f"| {name} | {kind} | {replicate:.0f} | {median:.0f} | "
                     f"{median / replicate:.2f} |")
    return lines


if __name__ == "__main__":
    print("\n".join(report(range(int(sys.argv[1]) if len(sys.argv) > 1 else SEEDS))))
