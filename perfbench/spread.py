"""Run the benchmark several times per workload and report run-to-run spread.

    python3 perfbench/spread.py --workloads synthetic,funnel --runs 10 --first-seed 100

Each run uses the next seed.  For every metric it prints the median and the
quartiles of the runs (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the bound in ``BENCHMARK.json``.  ``--baseline``
merges the figures into a JSON file, one entry per workload and trace mode,
with the provenance of the first run.
Run from the root of a checkout, like ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), elapsed


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", default=None, help="JSON file to merge the figures into")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    figures = {}
    for workload in args.workloads.split(","):
        runs, elapsed, failed = [], [], 0
        for i in range(args.runs):
            result, took = one_run(workload, args.first_seed + i, seconds, args.trace)
            runs.append(result)
            elapsed.append(took)
            failed += result["failed"] + (not result["correct"])
        print(f"{workload}: {args.runs} runs, {sum(elapsed):.0f} s in all, "
              f"longest {max(elapsed):.1f} s, failures {failed}")
        record = Path(".perfbench_out") / f"result_{workload}_seed{args.first_seed}_trace{args.trace}.json"
        provenance = json.loads(record.read_text())["provenance"]
        entry = {"runs": args.runs, "first_seed": args.first_seed, "seconds": seconds,
                 "failed": failed, "provenance_of_first_run": provenance, "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = first["unit"]
            entry["metrics"][name] = s
            bound = bounds.get(name) if not args.trace else None
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            limit = f" (bound {bound})" if bound is not None else ""
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{limit}")
        figures[f"{workload}/trace{args.trace}"] = entry

    if args.baseline:
        path = Path(args.baseline)
        merged = json.loads(path.read_text()) if path.is_file() else {}
        merged.update(figures)
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
