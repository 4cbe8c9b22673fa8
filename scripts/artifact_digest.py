"""SHA-256 digest of every artifact the four CLI commands write.

Runs six invocations in-process against the steinmc sources of a checkout
and prints one line per artifact:

  <invocation> <file> <sha256>

and nothing else, so two checkouts write the same artifacts exactly when
``diff`` finds no difference between their outputs.  The invocations are
``run configs/moe_demo.json``, ``run`` on the benchmark's ``ensemble``
config with ``--seed 0``, ``bench-synthetic --seed 0,1``,
``vis-funnel --seed 0`` and ``bnn`` with ``sgld`` and with
``repulsive_sgld`` on the benchmark's regression CSV with ``--seed 0``.
The ensemble config, the CSV and the shortened funnel and BNN protocols
are the benchmark workloads' own at workload seed 0, read from the
checkout's ``perfbench/workloads.py``.  Artifacts go to a temporary
directory that is removed afterwards.

Artifacts are byte-reproducible for one BLAS build and thread count only:
with OpenBLAS, ``x @ x.T`` of a (100, 50) matrix already rounds differently
on one thread than on two, and so do the ``run-ensemble`` artifacts.  So
:func:`main` runs BLAS on one thread, as the benchmark does, by setting
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is imported; a listing compares two checkouts, not two
machines.

Run from the repository root, naming the checkout to digest:

  python scripts/artifact_digest.py . > after.txt
  python scripts/artifact_digest.py ../parent > before.txt
  diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

# invocation name -> (benchmark workload whose inputs and protocol it uses,
# CLI arguments with {checkout} and {inputs} standing for the checkout and
# the workload's input directory)
INVOCATIONS = {
    "run-moe-demo": (None, ["run", "--config", "{checkout}/configs/moe_demo.json"]),
    "run-ensemble": ("ensemble", ["run", "--config", "{inputs}/ensemble.json", "--seed", "0"]),
    "bench-synthetic": ("synthetic", ["bench-synthetic", "--seed", "0,1"]),
    "vis-funnel": ("funnel", ["vis-funnel", "--seed", "0"]),
    "bnn-sgld": ("bnn", ["bnn", "--data", "{inputs}/regression.csv", "--target-column", "y",
                         "--sampler", "sgld", "--seed", "0"]),
    "bnn-repulsive-sgld": ("bnn", ["bnn", "--data", "{inputs}/regression.csv",
                                   "--target-column", "y", "--sampler", "repulsive_sgld",
                                   "--seed", "0"]),
}


def _load_workloads(checkout: Path):
    spec = importlib.util.spec_from_file_location(
        "artifact_digest_workloads", checkout / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digest(checkout: Path, names=tuple(INVOCATIONS)) -> list[str]:
    """The digest lines of the named invocations, run against ``checkout``.

    It runs BLAS on as many threads as the calling process does: only
    :func:`main` pins one thread, so a caller that compares listings made
    with different thread counts pins the count itself.
    """
    checkout = checkout.resolve()
    from steinmc import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"steinmc is already imported from {cli.__file__}")
    workloads = _load_workloads(checkout)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload, argv = INVOCATIONS[name]
            inputs, out = Path(tmp) / name / "inputs", Path(tmp) / name / "out"
            inputs.mkdir(parents=True)
            overrides = {}
            if workload is not None:
                workloads[workload].prepare(inputs, 0, False)
                overrides = workloads[workload].overrides(cli, False)
            saved = {key: getattr(cli, key) for key in overrides}
            argv = [a.format(checkout=checkout, inputs=inputs) for a in argv]
            try:
                vars(cli).update(overrides)
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main([*argv, "--out", str(out)])
            finally:
                vars(cli).update(saved)
            if status != 0:
                raise SystemExit(f"{name}: exit status {status}")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{name} {path.relative_to(out)} {sha}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the checkout as it was
    # set before steinmc, and with it numpy, is imported: BLAS reads them once
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(Path(args[0]).resolve() / "src"))
    print("\n".join(digest(Path(args[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
