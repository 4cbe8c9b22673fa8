"""The four benchmark workloads: seeded inputs, command lines, artifact checks.

Each workload drives one or more steinmc CLI commands.  One *round* is the
unit the benchmark times: the command calls for a single CLI seed.  Every
call names the artifacts it must leave behind; ``quality`` reads them back,
checks that each carries a schema version and that every metric in it is
finite, and returns the per-job quality figures.

Some protocols are module constants of ``steinmc.cli`` with no command-line
flag.  ``overrides`` lists the constants a workload replaces before its
first call; the values are part of the workload definition and are recorded
in every result.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCHEMA_LINE = "# schema_version="


class ArtifactError(Exception):
    """An artifact is missing, unversioned, or holds a non-finite metric."""


@dataclass
class Call:
    argv: list[str]
    artifacts: list[str]


def cli_seeds(workload: str, seed: int) -> list[int]:
    """The two CLI seeds a run cycles through, derived from the workload seed.

    Cycling makes every round after the second repeat an earlier command, so
    its artifacts can be compared byte for byte with the first repetition.
    """
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(2)]


def _common(seed: int, out: Path) -> list[str]:
    return ["--seed", str(seed), "--out", str(out), "--threads", "1", "--timing", "off"]


def _finite(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ArtifactError(f"{what} is not a number: {value!r}") from None
    if not math.isfinite(x):
        raise ArtifactError(f"{what} is not finite: {value!r}")
    return x


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise ArtifactError(f"missing artifact {path.name}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ArtifactError(f"{path.name} is not JSON: {err}") from None
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ArtifactError(f"{path.name} lacks schema_version")
    return payload


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise ArtifactError(f"missing artifact {path.name}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(SCHEMA_LINE):
        raise ArtifactError(f"{path.name} lacks schema_version")
    return list(csv.DictReader(lines[1:]))


class Workload:
    name = ""
    reference = "mixed"  # the reference computation its times are divided by

    def overrides(self, cli, tiny: bool) -> dict:
        return {}

    def prepare(self, inputs: Path, seed: int, tiny: bool) -> None:
        """Write the workload's input files for this workload seed."""

    def calls(self, cli_seed: int, inputs: Path, out: Path) -> list[Call]:
        raise NotImplementedError

    def work(self, cli, inputs: Path) -> int:
        """Particle-iterations (funnel: samples x outer iterations) per round."""
        raise NotImplementedError

    def quality(self, call: Call, out: Path) -> dict[str, list[float]]:
        raise NotImplementedError


class Synthetic(Workload):
    name = "synthetic"
    def overrides(self, cli, tiny):
        if not tiny:
            return {}
        return {"BENCH_ITERATIONS": 120, "BENCH_POLICY": {"burn_in": 20, "thin": 1}}

    def calls(self, cli_seed, inputs, out):
        return [Call(["bench-synthetic", *_common(cli_seed, out)], ["bench_synthetic.csv"])]

    def work(self, cli, inputs):
        per_seed = sum(p["particles"] for p in cli.BENCH_PROTOCOL.values())
        return per_seed * 2 * cli.BENCH_ITERATIONS  # sgld and repulsive_sgld

    def quality(self, call, out):
        rows = _read_csv(out / "bench_synthetic.csv")
        if not rows:
            raise ArtifactError("bench_synthetic.csv has no rows")
        q = {"ess": [], "err_ex": [], "err_ex2": []}
        for i, row in enumerate(rows):
            for key in q:
                q[key].append(_finite(row.get(key), f"bench_synthetic.csv row {i} {key}"))
        return q


class Funnel(Workload):
    name = "funnel"
    reference = "tape"
    def overrides(self, cli, tiny):
        # 50 outer iterations take 5-7 s per call; ten keep a round near 1 s
        # with the per-iteration tape work unchanged.
        if tiny:
            return {"FUNNEL_OUTER_ITERATIONS": 3, "FUNNEL_SAMPLES": 4}
        return {"FUNNEL_OUTER_ITERATIONS": 10}

    def calls(self, cli_seed, inputs, out):
        names = [f"vis_funnel_T{t}.csv" for t in (0, 1, 2)] + ["vis_funnel_params.json"]
        return [Call(["vis-funnel", *_common(cli_seed, out)], names)]

    def work(self, cli, inputs):
        return cli.FUNNEL_SAMPLES * cli.FUNNEL_OUTER_ITERATIONS * 3  # T = 0, 1, 2

    def quality(self, call, out):
        for name in call.artifacts[:3]:
            for i, row in enumerate(_read_csv(out / name)):
                _finite(row.get("neg_elbo"), f"{name} row {i} neg_elbo")
        learned = _read_json(out / "vis_funnel_params.json").get("learned", {})
        finals = []
        for t in ("0", "1", "2"):
            runs = learned.get(t)
            if not runs:
                raise ArtifactError(f"vis_funnel_params.json has no runs for T={t}")
            for seed, entry in runs.items():
                value = _finite(entry.get("final_neg_elbo"), f"T={t} seed {seed} final_neg_elbo")
                if t == "2":
                    finals.append(value)
        return {"final_neg_elbo": finals}


BNN_ROWS = 500
BNN_FEATURES = 4


class Bnn(Workload):
    name = "bnn"
    def overrides(self, cli, tiny):
        # The CLI's 2000-iteration protocol takes 10-13 s per job, longer than a
        # run; per-iteration work is unchanged by the shorter chain.
        short = {"iterations": 40, "burn_in": 10} if tiny else {"iterations": 200, "burn_in": 100}
        return {"BNN_PROTOCOL": {**cli.BNN_PROTOCOL, **short}}

    def prepare(self, inputs, seed, tiny):
        rng = random.Random(f"bnn-data:{seed}")
        weights = [rng.gauss(0.0, 1.0) for _ in range(BNN_FEATURES)]
        lines = [",".join([f"x{j + 1}" for j in range(BNN_FEATURES)] + ["y"])]
        for _ in range(BNN_ROWS):
            x = [rng.gauss(0.0, 1.0) for _ in range(BNN_FEATURES)]
            signal = math.tanh(sum(w * v for w, v in zip(weights, x))) + 0.3 * x[0] * x[1]
            y = 2.0 * signal + rng.gauss(0.0, 0.3)
            lines.append(",".join(format(v, ".17g") for v in [*x, y]))
        (inputs / "regression.csv").write_text("\n".join(lines) + "\n")

    def calls(self, cli_seed, inputs, out):
        data = ["--data", str(inputs / "regression.csv"), "--target-column", "y"]
        return [
            Call(
                ["bnn", *data, "--sampler", sampler, *_common(cli_seed, out)],
                [f"bnn_regression_{sampler}_seed{cli_seed}.json"],
            )
            for sampler in ("sgld", "repulsive_sgld")
        ]

    def work(self, cli, inputs):
        proto = cli.BNN_PROTOCOL
        return proto["particles"] * proto["iterations"] * 2

    def quality(self, call, out):
        report = _read_json(out / call.artifacts[0])
        name = call.artifacts[0]
        return {
            "rmse": [_finite(report.get("rmse"), f"{name} rmse")],
            "test_ll": [_finite(report.get("test_ll"), f"{name} test_ll")],
        }


ENSEMBLE_SAMPLERS = (
    ("svgd", 0.05),
    ("repulsive_sgld", 0.05),
    ("repulsive_sgdm", 0.05),
    ("repulsive_adam", 0.01),
)


class Ensemble(Workload):
    name = "ensemble"
    def _config(self, seed: int, tiny: bool) -> dict:
        particles, dim, iterations, burn_in, thin = (
            (10, 5, 40, 10, 2) if tiny else (100, 50, 200, 100, 10)
        )
        return {
            "schema_version": 1,
            "target": {"name": "gaussian", "params": {"dim": dim}},
            "samplers": [
                {"name": name, "particles": particles, "step_size": step}
                for name, step in ENSEMBLE_SAMPLERS
            ],
            "iterations": iterations,
            "collection": {"burn_in": burn_in, "thin": thin},
            "init": {"mean": 0.0, "std": 1.0},
            "seeds": [seed],
        }

    def prepare(self, inputs, seed, tiny):
        config = self._config(seed, tiny)
        (inputs / "ensemble.json").write_text(json.dumps(config, indent=2) + "\n")

    def calls(self, cli_seed, inputs, out):
        names = []
        for name, _ in ENSEMBLE_SAMPLERS:
            stem = f"gaussian_{name}_seed{cli_seed}"
            names += [f"{stem}.report.json", f"{stem}.trajectory.csv"]
        argv = ["run", "--config", str(inputs / "ensemble.json"), *_common(cli_seed, out)]
        return [Call(argv, names)]

    def work(self, cli, inputs):
        config = json.loads((inputs / "ensemble.json").read_text())
        per = config["iterations"] * len(config["samplers"])
        return per * config["samplers"][0]["particles"]

    def quality(self, call, out):
        q = {"ess": [], "err_ex": [], "err_ex2": []}
        for name in call.artifacts:
            if name.endswith(".trajectory.csv"):
                path = out / name
                if not path.is_file():
                    raise ArtifactError(f"missing artifact {name}")
                with path.open() as fh:
                    if not fh.readline().startswith(SCHEMA_LINE):
                        raise ArtifactError(f"{name} lacks schema_version")
                continue
            report = _read_json(out / name)
            q["ess"].append(_finite(report.get("ess"), f"{name} ess"))
            q["err_ex"].append(_finite(report.get("err_mean"), f"{name} err_mean"))
            q["err_ex2"].append(
                _finite(report.get("err_second_moment"), f"{name} err_second_moment")
            )
            for j, r in enumerate(report.get("rhat") or []):
                _finite(r, f"{name} rhat[{j}]")
        return q


WORKLOADS = {w.name: w for w in (Synthetic(), Funnel(), Bnn(), Ensemble())}
