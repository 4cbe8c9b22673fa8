import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digest.py"


def test_digest_of_one_invocation_is_reproducible(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    first = digest.digest(ROOT, ["vis-funnel"])
    assert first == digest.digest(ROOT, ["vis-funnel"])
    assert [line.split()[1] for line in first] == [
        "vis_funnel_T0.csv", "vis_funnel_T1.csv", "vis_funnel_T2.csv", "vis_funnel_params.json"
    ]
    assert all(line.startswith("vis-funnel ") and len(line.split()[2]) == 64 for line in first)
