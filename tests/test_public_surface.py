"""The documented public surface: module import paths, the README's
library examples and the entry points the benchmark's tracer wraps."""

import importlib.util
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import steinmc

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_package_exposes_modules_only():
    assert not hasattr(steinmc, "__all__")
    public = {name: value for name, value in vars(steinmc).items() if not name.startswith("_")}
    assert all(isinstance(value, ModuleType) for value in public.values()), sorted(public)
    assert {"autodiff", "bnn", "diagnostics", "kernels", "refine", "samplers", "targets"} <= set(public)
    assert callable(steinmc.samplers.run)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_tracer_entry_points_resolve(monkeypatch):
    # a renamed entry point is skipped by the tracer, so its per-layer
    # metrics would read 0 instead of failing; the tracer is read, not cached
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer.ENTRY_POINTS
        if not callable(vars(tracer._resolve(owner)).get(attr))
    ]
    assert not unresolved
