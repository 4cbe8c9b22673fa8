"""The documented public surface: module import paths, the README's
library examples, the entry points the benchmark's tracer wraps and the
parameter that each library ConfigError names."""

import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

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


# the modules `import steinmc` binds, each on first access
LIBRARY_MODULES = ("autodiff", "bnn", "diagnostics", "errors", "kernels", "refine", "samplers",
                   "targets")

# Run in a fresh interpreter, where no other test has imported a steinmc module:
# what `import steinmc` loads, and what each of argv[1]'s names resolves to.
PACKAGE_PROBE = """
import json, sys
import steinmc
loaded = sorted(name for name in sys.modules if name.startswith("steinmc."))
names = json.loads(sys.argv[1])
resolved = [name for name in names if getattr(steinmc, name) is sys.modules[f"steinmc.{name}"]]
try:
    steinmc.nonexistent
    unknown = None
except AttributeError as err:
    unknown = str(err)
public = sorted(name for name in vars(steinmc) if not name.startswith("_"))
print(json.dumps({"loaded": loaded, "resolved": resolved, "unknown": unknown, "public": public,
                  "has_all": hasattr(steinmc, "__all__"), "run": callable(steinmc.samplers.run)}))
"""


def run_probe(code: str, *args: str) -> dict:
    """The JSON that ``code``, run with ``args`` in a new interpreter that
    imports steinmc from src/, prints on its last line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_exposes_modules_only():
    probe = run_probe(PACKAGE_PROBE, json.dumps(LIBRARY_MODULES))
    assert probe["loaded"] == []  # each module is imported on first access
    assert probe["resolved"] == list(LIBRARY_MODULES)
    assert probe["unknown"] == "module 'steinmc' has no attribute 'nonexistent'"
    # the package re-exports no names: its public names are its modules
    assert probe["public"] == sorted(LIBRARY_MODULES)
    assert not probe["has_all"] and probe["run"]


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


# Run in a fresh interpreter: the modules, by full name, that `python -m steinmc`
# loads to run the command line argv[1] with the protocol constants argv[2],
# apart from those loaded before steinmc was imported.
IMPORT_PROBE = """
import json, runpy, sys
before = set(sys.modules)
from steinmc import cli
for name, value in json.loads(sys.argv[2]).items():
    setattr(cli, name, value)
sys.argv = ["steinmc", *json.loads(sys.argv[1])]
code = None
try:
    runpy.run_module("steinmc", run_name="__main__")
except SystemExit as done:
    code = done.code
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
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


# each command at a small input: its flags past the command name and the
# protocol constants it runs with
SMALL_COMMANDS = {
    "run": ([], {}),
    "bench-synthetic": (["--seed", "0"],
                        {"BENCH_ITERATIONS": 30, "BENCH_POLICY": {"burn_in": 10, "thin": 1}}),
    "vis-funnel": (["--seed", "0"], {"FUNNEL_OUTER_ITERATIONS": 2, "FUNNEL_SAMPLES": 4}),
    "bnn": (["--target-column", "y", "--sampler", "sgld", "--seed", "0"],
            {"BNN_PROTOCOL": {"particles": 5, "iterations": 30, "batch_size": 10,
                              "step_scale": 0.005, "burn_in": 10, "thin": 1}}),
    "run --threads 2": (["--threads", "2", "--seed", "0,1"], {}),
}


@pytest.mark.parametrize(
    "command, not_loaded, loaded",
    [
        ("run", ("steinmc.bnn", "steinmc.refine", "concurrent.futures"), ()),
        ("bench-synthetic", ("steinmc.bnn", "steinmc.refine", "concurrent.futures"), ()),
        ("vis-funnel", ("steinmc.bnn",), ("steinmc.refine",)),
        ("bnn", ("steinmc.refine",), ("steinmc.bnn",)),
        # the control: the thread pool is loaded where it runs
        ("run --threads 2", (), ("concurrent.futures",)),
    ],
    ids=["run", "bench-synthetic", "vis-funnel", "bnn", "run-threads-2"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, command, not_loaded, loaded):
    # numpy is the one runtime dependency; pytest's own process has loaded
    # hypothesis, scipy and jsonschema already, so this needs a new process
    flags, protocol = SMALL_COMMANDS[command]
    if command.startswith("run"):
        config = {
            "schema_version": 1,
            "target": {"name": "gaussian", "params": {"dim": 1}},
            "samplers": [{"name": "repulsive_sgld", "particles": 2}],
            "iterations": 5,
            "collection": {"burn_in": 0, "thin": 1},
            "seeds": [0],
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "config.json"), *flags]
    if command == "bnn":
        rows = np.random.default_rng(0).normal(size=(30, 3))
        np.savetxt(tmp_path / "data.csv", rows, delimiter=",", header="a,b,y", comments="")
        flags = [*flags, "--data", str(tmp_path / "data.csv")]
    argv = [command.split()[0], *flags, "--out", str(tmp_path / "out")]
    probe = run_probe(IMPORT_PROBE, json.dumps(argv), json.dumps(protocol))
    assert probe["exit"] == 0
    assert [name for name in not_loaded if name in probe["loaded"]] == []
    assert [name for name in loaded if name not in probe["loaded"]] == []
    # numpy's compiled Cython extensions register cython_runtime and _cython_<version>
    foreign = sorted({name.partition(".")[0] for name in probe["loaded"]}
                     - set(sys.stdlib_module_names) - {"numpy", "steinmc", "cython_runtime"})
    assert [name for name in foreign if not name.startswith("_cython_")] == []


# every module but __main__, which runs the command line when imported
MODULES = [info.name for info in pkgutil.iter_modules(steinmc.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_public_annotations_resolve(name):
    # what help(), inspect.signature(eval_str=True) and typing.get_type_hints read
    module = importlib.import_module(f"steinmc.{name}")
    public = {key: value for key, value in vars(module).items()
              if not key.startswith("_") and getattr(value, "__module__", None) == module.__name__}
    functions = [value for value in public.values() if inspect.isfunction(value)]
    for cls in filter(inspect.isclass, public.values()):
        functions += [value for key, value in vars(cls).items()
                      if inspect.isfunction(value) and not key.startswith("_")]
    assert functions
    for fn in functions:
        typing.get_type_hints(fn)
        inspect.signature(fn, eval_str=True)
