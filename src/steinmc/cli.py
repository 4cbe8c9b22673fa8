"""Command-line harness for the experiment suite.

Commands:
  run             execute a JSON experiment config (targets x samplers x seeds)
  bench-synthetic built-in synthetic comparison table (exponential mixture and
                  Gaussian grid, plain vs repulsive Langevin)
  vis-funnel      refined-guide training traces on the funnel for 0/1/2
                  refinement steps
  bnn             Bayesian neural-network regression report for one
                  dataset/sampler

Every artifact embeds a schema version.  Runs are reproducible byte-for-byte
given (config, seed) on one BLAS build and BLAS thread count, whose products
round by how they split the work; wall-clock timing is therefore written as
zero unless ``--timing wall`` is requested, in which case reports carry real
(non-reproducible) measurements.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 kernel factorization failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import bnn as bnn_mod
from . import kernels, refine, samplers, targets
from .errors import ConfigError, DivergenceError, FactorizationError, SteinmcError

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "STEINMC_OUT"
BENCH_HEADER = "distribution,sampler,seed,ess,ess_per_s,err_ex,err_ex2"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_FACTORIZATION = 4
# each library error's exit code and the label that main prints its message under
_ERROR_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DivergenceError: (EXIT_DIVERGENCE, "divergence"),
    FactorizationError: (EXIT_FACTORIZATION, "kernel factorization failure"),
}


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    write_blocks_atomic(path, (text,))


def write_blocks_atomic(path: Path, blocks) -> None:
    """:func:`write_atomic` of text streamed as an iterable of blocks."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(value):
    """``value`` with every array a list and every non-finite float, at any
    depth, None: JSON has no NaN or Infinity."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def dump_json(payload: dict) -> str:
    """The text of every JSON artifact: ``payload`` plus its schema version,
    keys sorted, a non-finite number written as null."""
    payload = _finite_or_null({"schema_version": SCHEMA_VERSION, **payload})
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_blocks(header: str, n_labels: int, row_blocks):
    """The text of every CSV artifact, as blocks: the schema line and
    ``header``, then one block per ``(labels, values)`` pair in
    ``row_blocks``, one line per row: the row's ``n_labels`` labels as text
    (``%s``), then the row of the 2-D float array ``values``, each float as
    ``%.17g``, 17 significant digits.  That is the one text rule; a block of
    at least ``_G17_ARRAY_MIN_FLOATS`` floats is formatted by
    :func:`steinmc._g17.g17_rows`, which gives the same bytes in one numpy
    pass."""
    yield f"# schema_version={SCHEMA_VERSION}\n{header}\n"
    n_numbers = header.count(",") + 1 - n_labels
    label_fmt = "%s," * n_labels
    row_fmt = label_fmt + ",".join(["%.17g"] * n_numbers) + "\n"
    for labels, values in row_blocks:
        values = np.asarray(values, dtype=float)
        if values.size < _G17_ARRAY_MIN_FLOATS:
            yield "".join([row_fmt % (*lab, *row) for lab, row in zip(labels, values.tolist())])
        else:  # loaded on first use: a command that never gets here does not compile it
            from ._g17 import g17_rows
            yield "".join([label_fmt % lab + row for lab, row in zip(labels, g17_rows(values))])


# A block of this many floats or more is formatted by g17_rows, which
# overtakes ``%`` between 250 and 400 floats on (L, d) trajectory events
_G17_ARRAY_MIN_FLOATS = 500


def _json_text(value) -> str:
    """The one canonical JSON text of ``value``: keys sorted, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(payload: dict) -> str:
    return hashlib.sha256(_json_text(payload).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# experiment config schema

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "target", "samplers", "iterations", "collection", "seeds"],
    "properties": {
        "schema_version": {"const": 1},
        "target": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": sorted(targets.BUILTIN_TARGETS)},
                "params": {"type": "object"},
            },
        },
        "samplers": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name"],
                "properties": {
                    "name": {"enum": list(samplers.SAMPLER_KINDS)},
                    "particles": {"type": "integer"},
                    "step_size": {"type": "number"},
                    "gamma": {"type": "number"},
                    "bandwidth": {"type": "number"},
                },
            },
        },
        "iterations": {"type": "integer"},
        "collection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "burn_in": {"type": "integer"},
                "thin": {"type": "integer"},
            },
        },
        "init": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mean": {"type": ["number", "array"], "items": {"type": "number"}},
                "std": {"type": ["number", "array"], "items": {"type": "number"}},
            },
        },
        "seeds": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": "integer", "minimum": 0},
        },
        "output_dir": {"type": "string"},
    },
}


# the Python types json.load gives each JSON type; a bool (true, false) is none of them
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "integer": (int,),
               "number": (int, float)}


def _schema_errors(value, schema: dict, path: str):
    """Yield (JSON path, message) for each rule of ``schema`` that ``value``
    breaks, reading the keywords CONFIG_SCHEMA uses as JSON Schema 2020-12 does,
    except that an integer is a JSON integer literal (200, not 200.0 or 2e2) and
    two values are equal when their JSON texts are (1 differs from 1.0 and true)."""
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    if types and not any(type(value) in _JSON_TYPES[name] for name in types):
        yield path, f"{value!r} is not of type {' or '.join(types)}"
    if "const" in schema and _json_text(value) != _json_text(schema["const"]):
        yield path, f"{schema['const']!r} was expected, got {value!r}"
    if "enum" in schema and _json_text(value) not in map(_json_text, schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']}"
    if "minimum" in schema and type(value) in _JSON_TYPES["number"] and value < schema["minimum"]:
        yield path, f"{value!r} is less than the minimum of {schema['minimum']}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        if missing := [key for key in schema.get("required", ()) if key not in value]:
            yield path, f"missing required keys {missing}"
        if schema.get("additionalProperties", True) is False and not value.keys() <= props.keys():
            yield path, f"unknown keys {[key for key in value if key not in props]}"
        for key in [key for key in props if key in value]:
            yield from _schema_errors(value[key], props[key], f"{path}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"needs at least {schema['minItems']} items, got {len(value)}"
        if schema.get("uniqueItems") and len(set(map(_json_text, value))) < len(value):
            yield path, f"{value!r} has repeated items"
        for i, item in enumerate(value if "items" in schema else ()):
            yield from _schema_errors(item, schema["items"], f"{path}[{i}]")


def _check_schema(value, schema: dict, path: str):
    """``value``, or a ConfigError naming its error at the smallest JSON path."""
    first = min(_schema_errors(value, schema, path), key=lambda e: e[0], default=None)
    if first is not None:
        raise ConfigError(first[1], field=first[0])
    return value


def validate_config(payload: dict) -> dict:
    """``payload`` if it matches CONFIG_SCHEMA; see :func:`_check_schema`."""
    return _check_schema(payload, CONFIG_SCHEMA, "$")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", field="config")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno}: {err.msg}", field="config")
    return validate_config(payload)


def _entry_spec(index: int, config: dict, dim: int) -> samplers.RunSpec:
    """The run spec of ``config["samplers"][index]`` for a target of dimension
    ``dim``, with every rule checked; a rejected sampler-entry key is named
    ``samplers[index].<key>``.  A key left out takes the library's default,
    except ``particles``, which defaults to 10 here: RunSpec has none."""
    entry = config["samplers"][index]
    schedule = {field: entry[key] for key, field in
                (("step_size", "eps0"), ("gamma", "gamma")) if key in entry}
    try:
        kernel_cfg = kernels.KernelConfig(entry.get("bandwidth"))
        spec = samplers.RunSpec(
            entry["name"],
            entry.get("particles", 10),
            config["iterations"],
            samplers.StepSchedule(**schedule),
            samplers.CollectionPolicy(**config.get("collection", {})),
            kernel_cfg=kernel_cfg,
            **{f"init_{key}": value for key, value in config.get("init", {}).items()},
        )
        spec.initial(dim)
    except ConfigError as err:
        if err.field in CONFIG_SCHEMA["properties"]["samplers"]["items"]["properties"]:
            raise ConfigError(err.reason, field=f"samplers[{index}].{err.field}") from None
        raise
    return spec


def _sample(spec: samplers.RunSpec, target, seed: int, timing: str) -> samplers.RunResult:
    """The CLI's one call of :func:`samplers.run`.  The wall clock is zeroed
    unless ``timing`` is "wall", which keeps artifacts byte-reproducible."""
    result = samplers.run(spec, target, seed)
    if timing != "wall":
        result.wall_clock = 0.0
    return result


def _trajectory_csv(per_particle: np.ndarray, iterations: range):
    """CSV text of an (L, events, d) trajectory kept at `iterations`, one row per
    event and particle: the header block, then one block per collection event."""
    dim = per_particle.shape[2]
    header = "iteration,particle," + ",".join(f"z{j+1}" for j in range(dim))
    events = (
        ([(it, p) for p in range(len(per_particle))], per_particle[:, e])
        for e, it in enumerate(iterations)
    )
    return csv_blocks(header, 2, events)


def cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _resolve_out(args, config.get("output_dir"))
    seeds = _resolve_seeds(args, config["seeds"])
    chash = config_hash(config)
    # a job's files are named by its kind and seed, so a repeated kind would overwrite
    kinds = [entry["name"] for entry in config["samplers"]]
    for j, kind in enumerate(kinds):
        if kind in kinds[:j]:
            raise ConfigError(f"sampler {kind!r} is listed twice", field=f"samplers[{j}].name")

    # built-in targets are stateless, so every job, on any thread, shares one
    try:
        target = targets.make_target(config["target"]["name"], **config["target"].get("params", {}))
    except AssertionError as err:  # a failed gradient audit
        raise ConfigError(str(err), field="target.params")
    specs = [_entry_spec(i, config, target.dim) for i in range(len(config["samplers"]))]
    jobs = [(spec, seed) for spec in specs for seed in seeds]
    tname = config["target"]["name"]
    # each job writes its files here as it finishes; they are published only
    # after the last job succeeds, so a failed run publishes nothing
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))

    def job(spec_seed):
        spec, seed = spec_seed
        result = _sample(spec, target, seed, args.timing)
        report = {
            "ess": result.ess, "ess_per_second": result.ess_per_second, "rhat": result.rhat,
            "wall_clock_seconds": result.wall_clock, "collected_count": len(result.samples),
            **{f"err_{label}": err for label, err in result.moment_errors},
            "sampler": spec.kind, "target": target.name, "seed": seed, "config_hash": chash,
        }
        stem = f"{tname}_{spec.kind}_seed{seed}"
        write_atomic(staging / f"{stem}.report.json", dump_json(report))
        trajectory = _trajectory_csv(result.per_particle, spec.policy.iterations(spec.iterations))
        write_blocks_atomic(staging / f"{stem}.trajectory.csv", trajectory)

    try:
        _map_jobs(job, jobs, args.threads)
        for path in sorted(staging.iterdir()):
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"wrote {2 * len(jobs)} artifacts to {out_dir}")
    return EXIT_OK


# built-in synthetic comparison protocol: 500 burn-in + 500 sampling
# iterations, thinned by 10; 10 particles on the exponential mixture and 20 on
# the Gaussian grid.
BENCH_PROTOCOL = {
    "moe": {"particles": 10, "per_particle_step": 0.1, "init_std": 1.0},
    "mog": {"particles": 20, "per_particle_step": 0.005, "init_std": 0.5},
}
BENCH_ITERATIONS = 1000
BENCH_POLICY = {"burn_in": 500, "thin": 10}


def bench_rows(seeds, timing: str = "off", threads: int = 1):
    # building a target runs its gradient audit; every job shares one per distribution
    built = {dist: targets.make_target(dist) for dist in BENCH_PROTOCOL}
    jobs = []
    for dist, proto in BENCH_PROTOCOL.items():
        for kind in ("sgld", "repulsive_sgld"):
            for seed in seeds:
                jobs.append((dist, kind, seed, proto))

    def job(item):
        dist, kind, seed, proto = item
        eps = samplers.scaled_step(kind, proto["per_particle_step"], proto["particles"])
        spec = samplers.RunSpec(
            kind, proto["particles"], BENCH_ITERATIONS, samplers.StepSchedule(eps0=eps),
            samplers.CollectionPolicy(**BENCH_POLICY), init_std=proto["init_std"],
        )
        result = _sample(spec, built[dist], seed, timing)
        errs = dict(result.moment_errors)
        row = (dist, kind, seed, result.ess, result.ess_per_second)
        return (*row, errs["mean"], errs["second_moment"])

    return _map_jobs(job, jobs, threads)


def cmd_bench_synthetic(args) -> int:
    out_dir = _resolve_out(args, None)
    seeds = _resolve_seeds(args, [0, 1, 2, 3, 4])
    rows = bench_rows(seeds, timing=args.timing, threads=args.threads)
    block = ([row[:3] for row in rows], [row[3:] for row in rows])
    write_blocks_atomic(out_dir / "bench_synthetic.csv", csv_blocks(BENCH_HEADER, 3, [block]))
    print(f"wrote {out_dir / 'bench_synthetic.csv'}")
    return EXIT_OK


# funnel protocol: diagonal guide trained for 50 outer iterations per
# refinement depth, Langevin inner steps, endpoint-particle entropy.
# Per-iteration losses are single Monte-Carlo estimates; per-seed finals
# scatter noticeably, so comparisons across refinement depths use seed
# medians.
FUNNEL_OUTER_ITERATIONS = 50
FUNNEL_SAMPLES = 64
FUNNEL_LEARNING_RATE = 0.08
FUNNEL_INIT_LOG_ETA = float(np.log(0.05))


def funnel_trace(steps_refine: int, seed: int, target: targets.TargetModel):
    rg = refine.RefinedGuide(
        guide=refine.DiagonalGaussianGuide(np.zeros(2), np.zeros(2)),
        inner_sampler="sgld",
        log_eta=FUNNEL_INIT_LOG_ETA,
        steps_refine=steps_refine,
    )
    return refine.optimize(
        rg,
        target,
        FUNNEL_OUTER_ITERATIONS,
        np.random.default_rng(seed),
        n_samples=FUNNEL_SAMPLES,
        learning_rate=FUNNEL_LEARNING_RATE,
    )


def cmd_vis_funnel(args) -> int:
    out_dir = _resolve_out(args, None)
    seeds = _resolve_seeds(args, list(range(10)))

    target = targets.funnel()  # one gradient audit; the stateless target is shared by every job
    jobs = [(t, seed) for t in (0, 1, 2) for seed in seeds]
    results = _map_jobs(lambda ts: (ts, funnel_trace(*ts, target)), jobs, args.threads)
    by_t: dict[int, list] = {0: [], 1: [], 2: []}
    for (t, seed), result in results:
        by_t[t].append((seed, result))

    learned = {}
    for t, runs in by_t.items():
        traces = (([(seed, i) for i in range(len(result.loss_trace))], result.loss_trace[:, None])
                  for seed, result in runs)
        write_blocks_atomic(
            out_dir / f"vis_funnel_T{t}.csv", csv_blocks("seed,iteration,neg_elbo", 2, traces)
        )
        learned[str(t)] = {
            str(seed): {
                "mean": result.guide.guide.mean,
                "scale": result.guide.guide.scale,
                "eta": result.guide.eta,
                "final_neg_elbo": result.loss_trace[-1],
            }
            for seed, result in runs
        }
    write_atomic(out_dir / "vis_funnel_params.json", dump_json({"learned": learned}))
    print(f"wrote traces and parameters to {out_dir}")
    return EXIT_OK


# The minibatch score grows with the N training rows, so the per-particle
# step is step_scale / N (1e-4 at 450 rows); a fixed 1e-4 diverged at 1,000.
BNN_PROTOCOL = {
    "particles": 20,
    "iterations": 2000,
    "batch_size": 100,
    "step_scale": 0.045,
    "burn_in": 1000,
    "thin": 10,
}


def bnn_report(dataset: bnn_mod.RegressionDataset, sampler: str, seed: int) -> dict:
    proto = BNN_PROTOCOL
    potential = bnn_mod.BnnPotential(input_dim=dataset.n_features)
    target = bnn_mod.minibatch_target(potential, dataset, proto["batch_size"])
    step = proto["step_scale"] / dataset.n_train
    eps = samplers.scaled_step(sampler, step, proto["particles"])
    spec = samplers.RunSpec(
        sampler, proto["particles"], proto["iterations"], samplers.StepSchedule(eps0=eps),
        samplers.CollectionPolicy(proto["burn_in"], proto["thin"]), init_std=potential.init_std(),
    )
    result = _sample(spec, target, seed, timing="off")
    # event-major, in the order the draws were collected
    particles = result.per_particle.transpose(1, 0, 2).reshape(-1, target.dim)
    metrics = bnn_mod.evaluate(potential, particles, dataset)
    payload = {
        "dataset": dataset.name,
        "sampler": sampler,
        "seed": seed,
        "rmse": metrics["rmse"],
        "test_ll": metrics["test_ll"],
        "ess": result.ess,
        "rhat": result.rhat,
        "config": {
            **proto,
            "step_size": step,
            "hidden_dim": potential.hidden_dim,
            "prior_std": potential.prior_std,
            "noise_std": potential.noise_std,
            "split_seed": dataset.split_seed,
        },
    }
    payload["config_hash"] = config_hash(payload["config"])
    return payload


def cmd_bnn(args) -> int:
    out_dir = _resolve_out(args, None)
    seeds = _resolve_seeds(args, [0])
    _check_schema(args.split_seed, CONFIG_SCHEMA["properties"]["seeds"]["items"], "split-seed")
    try:
        dataset = bnn_mod.load_csv(args.data, args.target_column, seed=args.split_seed)
    except (OSError, ValueError) as err:
        raise ConfigError(str(err), field="data")
    results = _map_jobs(
        lambda seed: (seed, bnn_report(dataset, args.sampler, seed)), seeds, args.threads
    )
    for seed, payload in results:
        name = f"bnn_{dataset.name}_{args.sampler}_seed{seed}.json"
        write_atomic(out_dir / name, dump_json(payload))
    print(f"wrote {len(results)} reports to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _map_jobs(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _resolve_seeds(args, default):
    if args.seed is None:
        return list(default)
    try:
        seeds = [int(s) for s in args.seed.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"seeds must be integers: {args.seed!r}", field="seed")
    return _check_schema(seeds, CONFIG_SCHEMA["properties"]["seeds"], "seed")


def _resolve_out(args, config_dir) -> Path:
    if args.out:
        return Path(args.out)
    if config_dir:
        return Path(config_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "steinmc-out"))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", help="comma-separated seed list", default=None)
    p.add_argument("--out", help="output directory", default=None)
    p.add_argument("--threads", type=int, default=1, help="parallel (seed, sampler) jobs")
    p.add_argument(
        "--timing",
        choices=("off", "wall"),
        default="off",
        help="off: zeroed timing fields, byte-reproducible artifacts; wall: real "
        "wall-clock measurements; only run and bench-synthetic write timing fields",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steinmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench-synthetic", help="synthetic comparison table")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench_synthetic)

    p_vis = sub.add_parser("vis-funnel", help="refined-guide funnel traces")
    _add_common(p_vis)
    p_vis.set_defaults(func=cmd_vis_funnel)

    p_bnn = sub.add_parser("bnn", help="Bayesian neural-network regression report")
    p_bnn.add_argument("--data", required=True, help="CSV with header row")
    p_bnn.add_argument("--target-column", required=True)
    p_bnn.add_argument(
        "--sampler", choices=("sgld", "repulsive_sgld"), default="repulsive_sgld"
    )
    p_bnn.add_argument("--split-seed", type=int, default=0)
    _add_common(p_bnn)
    p_bnn.set_defaults(func=cmd_bnn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SteinmcError as err:
        code, label = _ERROR_EXITS[type(err)]
        print(f"{label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
