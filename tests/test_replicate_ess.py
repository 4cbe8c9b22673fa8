import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replicate_ess.py"


def test_table_on_a_tiny_protocol():
    spec = importlib.util.spec_from_file_location("replicate_ess", SCRIPT)
    replicate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replicate)
    lines = replicate.report(range(3), iterations=40, policy={"burn_in": 20, "thin": 2})
    assert lines[0].startswith("replicate ESS over 3 seeds (relative standard error about 0.82)")
    assert lines[1:3] == ["| target | kind | replicate | run (median) | run / replicate |",
                          "| --- | --- | --- | --- | --- |"]
    cells = [line.split(" | ") for line in lines[3:]]
    assert [(row[0], row[1]) for row in cells] == [
        (f"| {name}", kind) for name in ("gaussian d=1", "moe", "mog")
        for kind in ("sgld", "repulsive_sgld")
    ]
    for row in cells:
        replicate_ess, run_ess, ratio = float(row[2]), float(row[3]), float(row[4].rstrip(" |"))
        assert replicate_ess > 0 and run_ess > 0 and ratio > 0
