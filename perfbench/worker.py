"""Benchmark worker: set up one workload, run rounds until the time is up,
check every artifact, and print the measurements as one JSON line.

Started by ``run.py`` from the root of a checkout with ``PYTHONPATH=src``.
Everything it writes goes under ``.perfbench_out/`` in that directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from reference import reference_seconds
from tracer import MODULES, Tracer
from workloads import WORKLOADS, ArtifactError, cli_seeds

OUT_DIR = ".perfbench_out"

# module (or modules) predicted to hold the largest self-time share
PREDICTED_TOP = {
    "synthetic": ("targets",),
    "funnel": ("autodiff", "refine"),
    "bnn": ("bnn",),
    "ensemble": ("kernels",),
}
MIN_COVERAGE_PCT = 90.0


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every regular file under ``root`` except bytecode caches."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(_sha256_file(path).encode())
    return digest.hexdigest()


class Bench:
    def __init__(self, cli, workload, work_dir: Path, identity: list, corrupt: bool):
        self.cli = cli
        self.wl = workload
        self.inputs = work_dir / "inputs"
        self.out = work_dir / "out"
        self.identity = identity
        self.corrupt = corrupt
        self.digest_path = work_dir.parent / "digests.json"
        try:
            self.digests = json.loads(self.digest_path.read_text())
        except (OSError, json.JSONDecodeError):
            self.digests = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv), ""
        except SystemExit as err:
            return (err.code if isinstance(err.code, int) else 1), f"exit {err.code}"
        except Exception as err:  # a crash fails the job; the benchmark goes on
            return 1, f"{type(err).__name__}: {err}"

    def _key(self, argv: list[str]) -> str:
        argv = ["<out>" if a == str(self.out) else a for a in argv]
        return hashlib.sha256(json.dumps([self.identity, argv]).encode()).hexdigest()

    def _check(self, call, rc: int, err: str) -> dict:
        """Raise ArtifactError unless the call left correct artifacts."""
        if rc != 0:
            raise ArtifactError(f"exit code {rc} {err}".strip())
        quality = self.wl.quality(call, self.out)
        seen = self.digests.setdefault(self._key(call.argv), {})
        for name in call.artifacts:
            digest = _sha256_file(self.out / name)
            if seen.setdefault(name, digest) != digest:
                raise ArtifactError(f"{name} differs from the first repetition")
        return quality

    def round(self, cli_seed: int, tracer: Tracer | None = None, before_call=None):
        """Run one round; returns (wall seconds of the calls, quality lists)."""
        shutil.rmtree(self.out, ignore_errors=True)
        wall = 0.0
        quality: dict[str, list[float]] = defaultdict(list)
        for call in self.wl.calls(cli_seed, self.inputs, self.out):
            if before_call is not None:
                before_call()
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                rc, err = self._invoke(call.argv)
                wall += time.perf_counter() - start
            if self.corrupt:
                self.corrupt = False
                self._corrupt(call)
            self.attempted += 1
            try:
                for key, values in self._check(call, rc, err).items():
                    quality[key] += values
            except (ArtifactError, OSError) as problem:
                self.failures.append(f"{' '.join(call.argv)}: {problem}")
        shutil.rmtree(self.out, ignore_errors=True)
        return wall, quality

    def _corrupt(self, call) -> None:
        """Break the first artifact's schema marker (smoke test of the checks)."""
        path = self.out / call.artifacts[0]
        if path.is_file():
            path.write_text(path.read_text().replace("schema_version", "schema_ver"))

    def save_digests(self) -> None:
        self.digest_path.write_text(json.dumps(self.digests, sort_keys=True))


def _median(values):
    return statistics.median(values) if values else float("nan")


def e2e_report(workload: str, rounds, refs, work: int) -> list[tuple[str, float, str]]:
    walls = [wall for wall, _ in rounds]
    # refs were timed before every call and once after the last one, so the
    # ``per + 1`` refs from index i * per bracket the calls of round i.  Each
    # round is scaled by the median ref over it and its neighbours: local
    # enough to follow the machine's speed, robust to one outlying ref.
    per = (len(refs) - 1) // len(walls)
    wall_ref = statistics.median(
        wall / statistics.median(refs[max(0, (i - 1) * per) : (i + 2) * per + 1])
        for i, wall in enumerate(walls)
    )
    report = [
        ("wall_s", _median(walls), "s"),
        ("steps_per_s", work * len(walls) / sum(walls), "1/s"),
        ("wall_ref", wall_ref, "ref"),
        ("steps_per_ref", work / wall_ref, "1/ref"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    ]
    pooled: dict[str, list[float]] = defaultdict(list)
    for _, q in rounds:
        for key, values in q.items():
            pooled[key] += values
    if workload in ("synthetic", "ensemble"):
        report += [
            ("ess_per_s", _median([sum(q["ess"]) / wall for wall, q in rounds if q["ess"]]), "1/s"),
            ("err_ex_median", _median(pooled["err_ex"]), "1"),
            ("err_ex2_median", _median(pooled["err_ex2"]), "1"),
        ]
    elif workload == "funnel":
        report.append(("final_neg_elbo_median", _median(pooled["final_neg_elbo"]), "nats"))
    elif workload == "bnn":
        report += [
            ("test_rmse_median", _median(pooled["rmse"]), "y"),
            ("test_ll_median", _median(pooled["test_ll"]), "nats"),
        ]
    return report


def layer_report(workload: str, tracer: Tracer, pairs) -> tuple[list, list[str]]:
    """Per-layer metrics per traced round, plus human-readable findings."""
    n = len(pairs)
    traced_wall = sum(tr for _, tr in pairs)
    inclusive, calls, self_by_name = tracer.durations()
    counts = tracer.counts
    self_by_module: dict[str, float] = defaultdict(float)
    for name, seconds in self_by_name.items():
        self_by_module[name.split(".")[0]] += seconds

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    def per_round(name):
        return calls.get(name, 0) / n

    backward_calls = calls.get("autodiff.backward", 0)
    report = [
        ("targets.score_calls", counts["targets.score_rows"] / n, "count"),
        ("kernels.kernel_matrix_calls", per_round("kernels.kernel_matrix"), "count"),
        ("kernels.pair_bytes_computed", counts["kernels.pair_bytes_computed"] / n, "B"),
        ("kernels.degenerate_bandwidth_count", counts["kernels.degenerate_bandwidth_count"] / n, "count"),
        ("samplers.run_calls", per_round("samplers.run"), "count"),
        ("samplers.step_calls", per_round("samplers.step"), "count"),
        ("autodiff.backward_calls", backward_calls / n, "count"),
        ("autodiff.nodes_per_tape", counts["autodiff.nodes"] / backward_calls if backward_calls else 0.0, "count"),
        ("refine.elbo_calls", per_round("refine.elbo"), "count"),
        ("bnn.potential_grad_calls", per_round("bnn.potential_grad"), "count"),
        ("bnn.flops_computed", counts["bnn.flops_computed"] / n, "flop"),
        ("cli.write_calls", per_round("cli.write"), "count"),
        ("cli.bytes_written", counts["cli.bytes_written"] / n, "B"),
    ]
    for span in (
        "targets.score", "targets.build", "kernels.kernel_matrix", "kernels.squared_distances",
        "kernels.median_bandwidth", "kernels.noise", "samplers.run", "diagnostics.ess",
        "diagnostics.rhat", "diagnostics.moment_error", "autodiff.backward", "refine.elbo",
        "refine.optimize", "bnn.potential_grad", "bnn.load_csv", "bnn.evaluate", "cli.write",
        "cli.validate",
    ):
        report.append((f"{span}_pct", pct(inclusive.get(span, 0.0)), "%"))
    for module in MODULES:
        report.append((f"{module}.self_pct", pct(self_by_module.get(module, 0.0)), "%"))
    coverage = 100.0 - pct(self_by_name.get("cli.main", 0.0))
    report += [
        ("trace.overhead_s", _median([tr - un for un, tr in pairs]), "s"),
        ("trace.coverage_pct", coverage, "%"),
    ]

    # absolute seconds per round, printed for reading but not gated
    seconds = [(f"{span}_s", value / n, "s") for span, value in sorted(inclusive.items())]
    seconds += [(f"{m}.self_s", self_by_module.get(m, 0.0) / n, "s") for m in MODULES]

    findings = []
    predicted = PREDICTED_TOP[workload]
    share = {m: self_by_module.get(m, 0.0) for m in MODULES}
    grouped = sum(share[m] for m in predicted)
    rival = max((m for m in MODULES if m not in predicted), key=share.get)
    verdict = "as predicted" if grouped > share[rival] else "NOT as predicted"
    findings.append(
        f"largest self share: {'+'.join(predicted)} {pct(grouped):.1f} % vs "
        f"next {rival} {pct(share[rival]):.1f} % ({verdict})"
    )
    verdict = "ok" if coverage >= MIN_COVERAGE_PCT else f"BELOW {MIN_COVERAGE_PCT:.0f} %"
    findings.append(
        f"span coverage {coverage:.1f} % of traced wall time ({verdict}); the rest is "
        "cli.main self time outside any layer span"
    )
    for name in sorted(tracer.missing):
        findings.append(f"entry point not found, not traced: {name}")
    return report + seconds, findings


def blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, AttributeError):
        return {"name": None, "version": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: imports, protocol overrides and input files, up to the first call
    import numpy as np
    from steinmc import cli

    wl = WORKLOADS[args.workload]
    work_dir = Path(OUT_DIR) / wl.name
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    overrides = wl.overrides(cli, args.tiny)
    for name, value in overrides.items():
        setattr(cli, name, value)
    wl.prepare(inputs, args.seed, args.tiny)
    setup_done = time.monotonic()
    if args.setup_only or not args.trace:
        # set-up time is scaled by the ``mixed`` reference timed right after it
        setup_ref = reference_seconds("mixed")
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_ref": setup_ref}))
        return 0

    code_id = tree_digest(Path(cli.__file__).parent)
    identity = [code_id, wl.name, overrides, tree_digest(inputs)]
    bench = Bench(cli, wl, work_dir, identity, args.corrupt)
    seeds = cli_seeds(wl.name, args.seed)
    tracer = Tracer() if args.trace else None
    rounds, pairs, refs = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seed = seeds[i % len(seeds)]
        rounds.append(
            bench.round(seed, before_call=None if tracer else lambda: refs.append(reference_seconds(wl.reference)))
        )
        if tracer:
            traced_wall, _ = bench.round(seed, tracer)
            pairs.append((rounds[-1][0], traced_wall))
        i += 1
    if not tracer:
        refs.append(reference_seconds(wl.reference))
    bench.save_digests()

    result = {
        "setup_done": setup_done,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "rounds": len(rounds),
        "round_walls": [wall for wall, _ in rounds],
        "ref_walls": refs,
        "commands": [" ".join(["steinmc", *c.argv]) for s in seeds for c in wl.calls(s, inputs, bench.out)],
        "overrides": overrides,
        "code_sha256": code_id,
        "numpy": np.__version__,
        "blas": blas_info(np),
        "cli_seeds": seeds,
    }
    if tracer:
        result["report"], result["findings"] = layer_report(wl.name, tracer, pairs)
        trace_path = work_dir / f"spans_seed{args.seed}.csv"
        tracer.write(trace_path)
        result["spans_file"] = str(trace_path)
    else:
        result["report"] = e2e_report(wl.name, rounds, refs, wl.work(cli, inputs))
        result["setup_ref"] = setup_ref
        result["findings"] = []
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
