"""Smoke test of the benchmark itself at tiny protocol sizes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout.  Checks that every workload prints each
metric by name with its unit, that the last line carries exactly the metrics
``BENCHMARK.json`` names, that a damaged artifact is counted in
``failed_frac``, and that the benchmark fails without printing a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_out") / "smoke"

# metrics printed on every workload (trace 0), then the workload's own
COMMON = ("setup_s", "setup_raw_s", "wall_s", "steps_per_s", "wall_ref", "steps_per_ref", "peak_rss_mb", "failed_frac")
QUALITY = {
    "synthetic": ("ess_per_s", "err_ex_median", "err_ex2_median"),
    "funnel": ("final_neg_elbo_median",),
    "bnn": ("test_rmse_median", "test_ll_median"),
    "ensemble": ("ess_per_s", "err_ex_median", "err_ex2_median"),
}
LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)$")


def run(workload: str, trace: int, *extra: str, cwd: Path | None = None):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def printed(stdout: str, workload: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        m = LINE.match(line)
        if m and m.group(1) == workload:
            out[m.group(2)] = (float(m.group(3)), m.group(4))
    return out


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_every_metric_printed_with_unit():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            check(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}")
            lines = printed(proc.stdout, workload)
            names = list(wanted) + (list(COMMON + QUALITY[workload]) if trace == 0 else [])
            for name in names:
                check(name in lines, f"{workload} trace {trace}: {name} not printed")
                check(lines[name][1] != "", f"{workload}: {name} printed without unit")
                if name in wanted:
                    check(lines[name][1] == wanted[name], f"{workload}: {name} unit {lines[name][1]}")


def test_corrupted_artifact_counts_as_failed():
    proc = run("synthetic", 0, "--corrupt")
    check(proc.returncode == 0, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["failed"] >= 1 and not result["correct"], f"corruption not caught: {result}")
    frac = printed(proc.stdout, "synthetic")["failed_frac"][0]
    expected = result["failed"] / result["attempted"]
    check(frac > 0 and abs(frac - expected) < 1e-5, f"failed_frac {frac}, expected {expected}")


def test_fails_without_sources():
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("synthetic", 0, cwd=bare)
        check(proc.returncode != 0, "benchmark succeeded without the program's sources")
        check('"metrics"' not in proc.stdout, "benchmark printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [test_every_metric_printed_with_unit, test_corrupted_artifact_counts_as_failed,
             test_fails_without_sources]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
