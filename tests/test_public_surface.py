"""The documented public surface: module import paths, the README's
library examples, the entry points the benchmark's tracer wraps and the
parameter that each library ConfigError names."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import steinmc
from steinmc import samplers, targets
from steinmc.errors import ConfigError
from steinmc.kernels import KernelConfig
from steinmc.refine import DiagonalGaussianGuide, RefinedGuide
from steinmc.samplers import CollectionPolicy, MomentumState, RunSpec, StepSchedule

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


def run_spec(**bad):
    """A RunSpec of sgld, 2 particles and 10 iterations, with ``bad`` in place."""
    return RunSpec(**{"kind": "sgld", "n_particles": 2, "iterations": 10,
                      "schedule": StepSchedule(), "policy": CollectionPolicy(), **bad})


@pytest.mark.parametrize(
    "raiser, call",
    [
        (StepSchedule, lambda: StepSchedule(eps0=0.0)),
        (StepSchedule, lambda: StepSchedule(gamma=2.0)),
        (KernelConfig, lambda: KernelConfig(bandwidth=-1.0)),
        (CollectionPolicy, lambda: CollectionPolicy(burn_in=-1)),
        (CollectionPolicy, lambda: CollectionPolicy(thin=0)),
        (RunSpec, lambda: run_spec(kind="mala")),
        (RunSpec, lambda: run_spec(n_particles=0)),
        (RunSpec, lambda: run_spec(iterations=0)),
        (RunSpec, lambda: run_spec(init_mean=np.nan)),
        (RunSpec, lambda: run_spec(init_std=-1.0)),
        (RunSpec, lambda: run_spec(schedule=StepSchedule(5e-324, gamma=0.55))),
        (RunSpec, lambda: run_spec(init_mean=[0.0, 0.0]).initial(3)),
        (MomentumState, lambda: MomentumState(np.zeros((2, 1)), beta1=1.0)),
        (MomentumState, lambda: MomentumState(np.zeros((2, 1)), stabilizer=-1.0)),
        (targets.std_gaussian, lambda: targets.std_gaussian(0)),
        (targets.funnel, lambda: targets.funnel(0.0)),
        (targets.funnel, lambda: targets.funnel(1e-160)),
        (RefinedGuide, lambda: RefinedGuide(DiagonalGaussianGuide([0.0], [0.0]), steps_refine=-1)),
    ],
    ids=["eps0", "gamma", "bandwidth", "burn_in", "thin", "kind", "n_particles", "iterations",
         "init_mean", "init_std", "schedule", "init_size", "beta1", "stabilizer", "dim",
         "scale", "scale_precision", "steps_refine"],
)
def test_config_error_names_a_parameter_of_its_raiser_once(raiser, call):
    # the library names its own parameter; the CLI alone maps it to a config path
    with pytest.raises(ConfigError) as exc:
        call()
    assert exc.value.field in inspect.signature(raiser).parameters
    assert not exc.value.reason.startswith(exc.value.field)


def load_tracer(monkeypatch):
    """The benchmark's tracer module, read from its file and not cached."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_entry_points_resolve(monkeypatch):
    # a renamed entry point is skipped by the tracer, so its per-layer
    # metrics would read 0 instead of failing
    tracer = load_tracer(monkeypatch)
    unresolved = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer.ENTRY_POINTS
        if not callable(vars(tracer._resolve(owner)).get(attr))
    ]
    assert not unresolved


def test_tracer_sees_every_runner_kernel(monkeypatch):
    # a kernel built through an entry point the tracer does not wrap would
    # leave the kernel counters at 0 while the steps still count
    tracer = load_tracer(monkeypatch).Tracer()
    spec = samplers.RunSpec(
        "repulsive_sgld", 5, 20, samplers.StepSchedule(eps0=0.01), samplers.CollectionPolicy()
    )
    with tracer.installed():
        samplers.run(spec, targets.std_gaussian(2), 0)
    _, calls, _ = tracer.durations()
    assert calls["kernels.kernel_matrix"] == calls["samplers.step"] == 20


def test_tracer_counts_the_scores_of_a_built_target(monkeypatch):
    # the targets.build hook wraps each built target's score; a target it
    # could not wrap would leave targets.score at 0 while the steps still count
    tracer = load_tracer(monkeypatch).Tracer()
    spec = samplers.RunSpec(
        "sgld", 5, 20, samplers.StepSchedule(eps0=0.01), samplers.CollectionPolicy()
    )
    with tracer.installed():
        samplers.run(spec, targets.make_target("gaussian", dim=2), 0)
    _, calls, _ = tracer.durations()
    assert calls["targets.score"] == calls["samplers.step"] == 20


# Run in a fresh interpreter: the modules loaded by `python -m steinmc run`,
# by top-level name, apart from those loaded before steinmc was imported.
IMPORT_PROBE = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["steinmc", "run", "--config", sys.argv[1]]
code = None
try:
    runpy.run_module("steinmc", run_name="__main__")
except SystemExit as done:
    code = done.code
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"exit": code, "loaded": sorted(loaded)}))
"""


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["run", "--config", "absent.json"], 2)],
    ids=["help", "missing_config"],
)
def test_module_entry_point_exits_with_main_code(tmp_path, argv, code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "steinmc", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert ("usage: steinmc" in proc.stdout) == (code == 0)


def test_run_command_imports_only_numpy_and_the_standard_library(tmp_path):
    # numpy is the one runtime dependency; pytest's own process has loaded
    # hypothesis, scipy and jsonschema already, so this needs a new process
    config = {
        "schema_version": 1,
        "target": {"name": "gaussian", "params": {"dim": 1}},
        "samplers": [{"name": "repulsive_sgld", "particles": 2}],
        "iterations": 5,
        "collection": {"burn_in": 0, "thin": 1},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["exit"] == 0
    # numpy's compiled Cython extensions register cython_runtime and _cython_<version>
    foreign = [name for name in probe["loaded"]
               if name not in sys.stdlib_module_names and name not in ("numpy", "steinmc")
               and name != "cython_runtime" and not name.startswith("_cython_")]
    assert foreign == []
