import importlib.util
from pathlib import Path

from steinmc import samplers

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stationarity_table.py"
_spec = importlib.util.spec_from_file_location("stationarity_table", SCRIPT)
table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(table)


def test_report_on_a_tiny_protocol():
    lines = table.report(variances=(0.25, 4.0), seeds=range(2), particles=3, iterations=40,
                         burn_in=20, thin=4)
    assert lines[:2] == ["| kind | s² = 0.25 | s² = 4 |", "| --- | --- | --- |"]
    assert [line.split(" | ")[0] for line in lines[2:]] == [
        f"| `{kind}`" for kind in samplers.SAMPLER_KINDS
    ]
    for line in lines[2:]:
        cells = line.strip("| ").split(" | ")[1:]
        assert len(cells) == 2
        assert all("–" in cell or cell == "all 2 seeds diverge" for cell in cells)


def test_cell_counts_diverged_seeds():
    assert table.cell([0.96, 1.0], 0) == "0.96–1"
    assert table.cell([0.5], 4) == "0.5–0.5 (4 diverged)"
    assert table.cell([], 5) == "all 5 seeds diverge"
