import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "criteria_sweep.py"


def test_report_on_two_seeds():
    spec = importlib.util.spec_from_file_location("criteria_sweep", SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    lines = sweep.report(range(2))
    assert len(lines) == 3 * len(sweep.CRITERIA)
    for criterion, head in zip((1, 2, 3), lines[::3]):
        assert head.startswith(f"criterion {criterion} (")
        assert head.split("win rate ")[1] in ("0.00 over 2 seeds", "0.50 over 2 seeds",
                                               "1.00 over 2 seeds")
    assert all(line.startswith("  wins per block of 5 seeds: ") for line in lines[1::3])
    assert all(line.startswith("  median repulsive ") for line in lines[2::3])
