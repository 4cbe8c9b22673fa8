"""The documented public surface: module import paths and the README's
library examples."""

import re
from pathlib import Path
from types import ModuleType

import pytest

import steinmc

README = Path(__file__).resolve().parents[1] / "README.md"
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
