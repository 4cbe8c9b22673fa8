"""Run one steinmc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synthetic --seed 0 --seconds 20 --trace 0

Run it from the root of a steinmc checkout; it imports the library from
``./src``.  The workloads are closed loops: one worker process runs the
workload's CLI commands one after another with ``--threads 1`` and one BLAS
thread, checks every artifact, and starts a new round while time is left.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``tracer.py``) and prints the per-layer metrics.
Every metric is printed by name with its unit, followed by the provenance of
the run; the last line is one JSON object with the metrics named in
``BENCHMARK.json``.  Everything the run writes goes under ``.perfbench_out/``.

``--tiny`` shrinks every protocol and ``--corrupt`` damages one artifact;
both exist for ``smoke_test.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7  # set-ups per run, the measured one included; the median is reported
BLAS_THREADS = 1
# setup_s is set-up time rescaled to a machine on which the ``mixed`` reference
# computation (reference.py) takes this long
REF_NOMINAL_S = 0.1
DEADLINE_S = 175.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def _worker(argv: list[str], root: Path, timeout: float) -> tuple[float, dict]:
    """Run the worker to completion; returns (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = _last_json(stdout)
    return result["setup_done"] - start, result


def _spec(root: Path, trace: int) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny protocols (smoke test)")
    parser.add_argument("--corrupt", action="store_true", help="damage one artifact (smoke test)")
    args = parser.parse_args(argv)

    begun = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "steinmc" / "cli.py").is_file():
        print("run.py: ./src/steinmc not found; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        wanted = _spec(root, args.trace)
    except (OSError, KeyError, json.JSONDecodeError) as err:
        print(f"run.py: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    probes = 0 if args.trace else SETUP_REPEATS - 1
    setups = []  # (set-up seconds, reference seconds timed right after it)

    def probe(count):
        for _ in range(count):
            setup, done = _worker([*common, "--seconds", "0", "--setup-only"], root, 60.0)
            setups.append((setup, done["setup_ref"]))

    try:
        # half the set-up probes before the measured run and half after, so
        # the median samples the machine's speed across the whole run
        probe(probes // 2)
        run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.corrupt:
            run_args.append("--corrupt")
        setup, result = _worker(run_args, root, DEADLINE_S - (time.monotonic() - begun))
        if not args.trace:
            setups.append((setup, result["setup_ref"]))
        probe(probes - probes // 2)
    except (RuntimeError, json.JSONDecodeError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    report = [tuple(row) for row in result["report"]]
    if not args.trace:
        report[:0] = [
            ("setup_s", statistics.median(REF_NOMINAL_S * s / r for s, r in setups), "s"),
            ("setup_raw_s", statistics.median(s for s, _ in setups), "s"),
        ]
    attempted, failed = result["attempted"], result["failed"]
    report.append(("failed_frac", failed / attempted, "1"))

    provenance = {
        "git_sha": _git_sha(root),
        "code_sha256": result["code_sha256"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": result["rounds"],
        "cli_seeds": result["cli_seeds"],
        "protocol_overrides": result["overrides"],
        "commands": result["commands"],
    }

    values = {name: (value, unit) for name, value, unit in report}
    metrics = {}
    for entry in wanted:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())

    for name, value, unit in report:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in result["findings"]:
        print(f"{args.workload} trace: {line}")
    for line in result["failures"]:
        print(f"{args.workload} FAILED: {line}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "provenance": provenance,
        "report": report,
        "findings": result["findings"],
        "failures": result["failures"],
        "setups_and_refs": setups,
        "round_walls": result["round_walls"],
        "ref_walls": result.get("ref_walls"),
        "spans_file": result.get("spans_file"),
    }
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
