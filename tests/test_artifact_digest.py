import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digest.py"


def test_digest_of_one_invocation_is_reproducible(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    # digest() runs BLAS on this process's threads, unpinned; it digests only
    # vis-funnel, whose artifacts were the same on one OpenBLAS thread and on two
    first = digest.digest(ROOT, ["vis-funnel"])
    assert first == digest.digest(ROOT, ["vis-funnel"])
    assert [line.split()[1] for line in first] == [
        "vis_funnel_T0.csv", "vis_funnel_T1.csv", "vis_funnel_T2.csv", "vis_funnel_params.json"
    ]
    assert all(line.startswith("vis-funnel ") and len(line.split()[2]) == 64 for line in first)


def test_listing_does_not_depend_on_the_blas_thread_count():
    # two OpenBLAS threads round x @ x.T differently from one; the script pins one
    listings = []
    for threads in ("2", "1"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT)], env=env,
                              capture_output=True, text=True, check=True)
        listings.append(done.stdout)
    assert "run-ensemble gaussian_repulsive_adam_seed0.trajectory.csv" in listings[0]
    assert listings[0] == listings[1]
