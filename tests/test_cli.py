import copy
import inspect
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmc.cli import (
    BENCH_HEADER,
    CONFIG_SCHEMA,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_FACTORIZATION,
    EXIT_OK,
    OUTPUT_DIR_ENV,
    _JSON_TYPES,
    _trajectory_csv,
    main,
    validate_config,
)
from steinmc import bnn, cli, errors, kernels, refine, samplers, targets
from steinmc._g17 import g17_rows
from steinmc.errors import ConfigError, DivergenceError, FactorizationError


def moe_config(out_dir, samplers=None, step=0.1, iterations=200):
    return {
        "schema_version": 1,
        "target": {"name": "moe"},
        "samplers": samplers
        or [
            {"name": "sgld", "particles": 5, "step_size": step},
            {"name": "repulsive_sgld", "particles": 5, "step_size": step},
        ],
        "iterations": iterations,
        "collection": {"burn_in": 100, "thin": 10},
        "seeds": [0],
        "output_dir": str(out_dir),
    }


GAUSS2 = {"name": "gaussian", "params": {"dim": 2}}
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def reject_constant(name):
    """A ``parse_constant`` for :func:`json.loads` that fails on NaN and Infinity,
    which RFC 8259 does not allow."""
    raise ValueError(f"{name} is not JSON")


def record_calls(monkeypatch, module, name):
    """The calls of ``module.name``, still made, as (args, kwargs, result)."""
    calls, fn = [], getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs, fn(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, recording)
    return calls


class TestConfigValidation:
    def test_valid_config_accepted(self, tmp_path):
        validate_config(moe_config(tmp_path))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = moe_config(tmp_path)
        cfg["extra_knob"] = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_unknown_sampler_rejected_with_field(self, tmp_path):
        cfg = moe_config(tmp_path, samplers=[{"name": "mala"}])
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert "samplers" in str(exc.value)


# every key CONFIG_SCHEMA can hold, each with a value the schema accepts
FULL_CONFIG = {
    "schema_version": 1,
    "target": {"name": "gaussian", "params": {"dim": 2}},
    "samplers": [
        {"name": "repulsive_adam", "particles": 5, "step_size": 0.1, "gamma": 0.55,
         "bandwidth": 0.5},
        {"name": "sgld"},
    ],
    "iterations": 200,
    "collection": {"burn_in": 100, "thin": 10},
    "init": {"mean": [0.5, -0.5], "std": 1.5},
    "seeds": [0, 3],
    "output_dir": "out",
}

# JSON values of every type.  No float is integer-valued: there, and only
# there, validate_config and JSON Schema 2020-12 part (see _schema_errors).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(allow_nan=False).filter(lambda x: not x.is_integer()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _containers(value):
    """Every object and array in ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _containers(item)


NAMED = ("name",)  # the keys whose values are enums


def _mutate(data, cfg):
    """``cfg`` changed by one drawn edit: a key dropped or added, a value of
    another type or name, a seed list or sampler list broken, or a top level
    that is no object."""
    edit = data.draw(st.sampled_from(["drop", "add", "replace", "name", "list", "top"]))
    containers = list(_containers(cfg))
    objects = [c for c in containers if isinstance(c, dict)]
    slots = [(c, key) for c in containers for key in (c if isinstance(c, dict) else range(len(c)))]
    if edit == "drop" and any(objects):
        obj, key = data.draw(st.sampled_from([(c, key) for c in objects for key in c]))
        del obj[key]
    elif edit == "add" and objects:
        data.draw(st.sampled_from(objects))["knob"] = 1
    elif edit == "name" and any(key in obj for obj in objects for key in NAMED):
        named = [(c, key) for c in objects for key in NAMED if key in c]
        obj, key = data.draw(st.sampled_from(named))
        obj[key] = "mala"
    elif edit == "list" and isinstance(cfg, dict):
        change = data.draw(st.sampled_from(["repeat", "negative", "no_seeds", "no_samplers"]))
        seeds = cfg.get("seeds")
        if change in ("repeat", "negative") and isinstance(seeds, list) and seeds:
            seeds.append(seeds[0] if change == "repeat" else -1)
        else:
            cfg["seeds" if change == "no_seeds" else "samplers"] = []
    elif edit == "replace" and slots:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(st.sampled_from([True, None, "x", [0]]) | JSON_VALUES)
    else:
        return data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    return cfg


def _schemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)
    if "items" in schema:
        yield from _schemas(schema["items"])


class TestSchemaInterpreter:
    def test_schema_uses_only_interpreted_keywords(self):
        # validate_config reads these keywords and no other, so a schema edit
        # that used another would be ignored in silence
        implemented = {"type", "const", "enum", "minimum", "required", "properties",
                       "additionalProperties", "items", "minItems", "uniqueItems"}
        for schema in _schemas(CONFIG_SCHEMA):
            assert schema.keys() <= implemented
            assert schema.get("additionalProperties", False) is False
            types = schema.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= _JSON_TYPES.keys()

    def test_agrees_with_reference_validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

        def first_path(payload):
            try:
                validate_config(payload)
            except ConfigError as err:
                return err.field
            return None

        @given(st.data())
        @settings(max_examples=400, deadline=None)
        def check(data):
            cfg = copy.deepcopy(FULL_CONFIG)
            for _ in range(data.draw(st.integers(0, 3))):
                cfg = _mutate(data, cfg)
            errors = sorted(reference.iter_errors(cfg), key=lambda e: e.json_path)
            assert first_path(cfg) == (errors[0].json_path if errors else None), cfg

        check()

    @pytest.mark.parametrize(
        "payload, path",
        [
            ({"iterations": True}, "$.iterations"),
            ({"schema_version": True}, "$.schema_version"),
            ({"seeds": [0, False]}, "$.seeds[1]"),
            ({"init": {"mean": [0.5, True]}}, "$.init.mean[1]"),
            ({"samplers": [{"name": "sgld", "step_size": False}]}, "$.samplers[0].step_size"),
        ],
        ids=["iterations", "schema_version", "seed", "init_mean", "step_size"],
    )
    def test_bool_is_no_number_and_not_one(self, payload, path):
        with pytest.raises(ConfigError) as exc:
            validate_config({**FULL_CONFIG, **payload})
        assert exc.value.field == path

    def test_full_config_accepted(self):
        assert validate_config(FULL_CONFIG) is FULL_CONFIG


class TestRunCommand:
    def test_two_samplers_emit_two_pairs_of_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, moe_config(tmp_path / "out"))
        assert main(["run", "--config", cfg_path]) == EXIT_OK
        reports = sorted((tmp_path / "out").glob("*.report.json"))
        trajectories = sorted((tmp_path / "out").glob("*.trajectory.csv"))
        assert len(reports) == 2
        assert len(trajectories) == 2

    def test_report_fields(self, tmp_path):
        cfg_path = write_config(tmp_path, moe_config(tmp_path / "out"))
        main(["run", "--config", cfg_path])
        payload = json.loads(
            (tmp_path / "out" / "moe_sgld_seed0.report.json").read_text()
        )
        for key in ("schema_version", "ess", "err_mean", "collected_count", "config_hash"):
            assert key in payload
        # timing defaults to zeroed fields for reproducibility
        assert payload["wall_clock_seconds"] == 0.0

    def test_invalid_sampler_name_exits_2(self, tmp_path, capsys):
        cfg = moe_config(tmp_path)
        cfg["samplers"] = [{"name": "mala"}]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
        assert "samplers" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "make, reason",
        [(lambda path: path.mkdir(), "Is a directory"),
         (lambda path: path.write_bytes(b'{"seeds": [0]}\xff'), "can't decode byte 0xff"),
         pytest.param(lambda path: path.write_text(f'{{"iterations": {"1" * 5000}}}'),
                      "4300 digits", marks=pytest.mark.skipif(
                          not hasattr(sys, "set_int_max_str_digits"),
                          reason="this Python has no integer digit limit")),
         (lambda path: path.write_text("[" * 10_000 + "]" * 10_000), "maximum recursion depth")],
        ids=["directory", "not_utf8", "integer_digits", "nesting"],
    )
    def test_unreadable_config_exits_2_writing_nothing(self, tmp_path, monkeypatch, capsys,
                                                         make, reason):
        # bnn --data maps the same read failures to exit 2
        monkeypatch.chdir(tmp_path)
        make(tmp_path / "config.json")
        assert main(["run", "--config", "config.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ") and reason in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_divergence_exits_3(self, tmp_path):
        cfg = moe_config(
            tmp_path / "out",
            samplers=[{"name": "sgld", "particles": 2, "step_size": 1e9}],
            iterations=150,
        )
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path]) == EXIT_DIVERGENCE

    def test_factorization_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        def fail(matrix):
            raise FactorizationError([0.0, 1e-4])

        monkeypatch.setattr(kernels, "_jittered_cholesky", fail)
        cfg = moe_config(
            tmp_path / "out",
            samplers=[{"name": "repulsive_sgld", "particles": 3, "step_size": 0.1}],
        )
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_FACTORIZATION
        assert "Cholesky factorization failed" in capsys.readouterr().err

    def test_trajectory_rows_are_the_positions_at_the_kept_iterations(self, tmp_path):
        # 23 iterations, burn-in 5, thin 4 keep iterations 9, 13, 17 and 21;
        # each row holds the position a hand loop of sgld_step reaches there
        entry = {"name": "sgld", "particles": 3, "step_size": 0.05}
        cfg = {**moe_config(tmp_path / "out", samplers=[entry], iterations=23),
               "target": GAUSS2, "collection": {"burn_in": 5, "thin": 4}, "seeds": [7]}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        rows = (tmp_path / "out" / "gaussian_sgld_seed7.trajectory.csv").read_text().splitlines()
        assert rows[:2] == ["# schema_version=1", "iteration,particle,z1,z2"]
        table = np.array([[float(v) for v in row.split(",")] for row in rows[2:]])
        assert table[:, 0].tolist() == [9] * 3 + [13] * 3 + [17] * 3 + [21] * 3
        assert table[:, 1].tolist() == [0, 1, 2] * 4

        target, rng = targets.std_gaussian(2), np.random.default_rng(7)
        ensemble = samplers.ParticleEnsemble(rng.standard_normal((3, 2)))
        positions = []
        for _ in range(23):
            ensemble = samplers.sgld_step(ensemble, target, 0.05, rng)
            positions.append(ensemble.positions)
        expected = np.concatenate([positions[i - 1] for i in (9, 13, 17, 21)])
        assert np.array_equal(table[:, 2:], expected)

    def test_zero_within_chain_variance_reports_null_rhat(self, tmp_path):
        # two coincident particles at the mode of N(0, 1) never move under
        # the noiseless interacting flow, so every chain is constant
        cfg = {
            "schema_version": 1,
            "target": {"name": "gaussian", "params": {"dim": 1}},
            "samplers": [{"name": "svgd", "particles": 2, "step_size": 0.1}],
            "iterations": 20,
            "collection": {"burn_in": 0, "thin": 1},
            "init": {"mean": 0.0, "std": 0.0},
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        payload = json.loads(
            (tmp_path / "out" / "gaussian_svgd_seed0.report.json").read_text()
        )
        assert payload["rhat"] is None
        assert payload["ess"] is None

    def test_noiseless_kinds_report_null_rhat(self, tmp_path):
        # particles moved without noise are no chains; R-hat over them
        # measures spread, so the whole field is null (not a list of nulls)
        entries = [{"name": name, "particles": 10, "step_size": 0.1}
                   for name in ("svgd", "repulsive_sgdm", "repulsive_sgld")]
        cfg = {**moe_config(tmp_path / "out", samplers=entries), "target": GAUSS2}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        rhat = {
            name: json.loads((tmp_path / "out" / f"gaussian_{name}_seed0.report.json")
                             .read_text())["rhat"]
            for name in ("svgd", "repulsive_sgdm", "repulsive_sgld")
        }
        assert rhat["svgd"] is None and rhat["repulsive_sgdm"] is None
        assert len(rhat["repulsive_sgld"]) == 2 and all(r > 0 for r in rhat["repulsive_sgld"])

    def test_degenerate_noisy_chains_report_null_per_dimension(self, tmp_path):
        # a noisy kind whose R-hat cannot be estimated keeps its per-dimension
        # list, each entry null: particles that a tiny step does not move, too
        # few events (8 < 10, so the ESS is null too), or a single particle
        rows = [  # (particles, step_size, iterations, ess is null)
            (3, 1e-300, 40, True),
            (3, 0.1, 18, True),
            (1, 0.1, 40, False),
        ]
        for i, (particles, step, iterations, null_ess) in enumerate(rows):
            entry = {"name": "repulsive_sgld", "particles": particles, "step_size": step}
            out = tmp_path / f"out{i}"
            cfg = {**moe_config(out, samplers=[entry], iterations=iterations),
                   "target": GAUSS2, "collection": {"burn_in": 10, "thin": 1}}
            assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
            payload = json.loads((out / "gaussian_repulsive_sgld_seed0.report.json").read_text())
            assert payload["rhat"] == [None, None], i
            assert (payload["ess"] is None) == null_ess, i
            assert null_ess or payload["ess"] > 0, i

    def test_overflowing_moment_error_is_written_null(self, tmp_path):
        # a finite log-space position far out maps to an exp(y) whose square
        # overflows; JSON has no Infinity, so the report writes null
        entry = {"name": "sgld", "particles": 10, "step_size": 400}
        cfg = {**moe_config(tmp_path / "out", samplers=[entry]),
               "collection": {"burn_in": 0, "thin": 1}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        text = (tmp_path / "out" / "moe_sgld_seed0.report.json").read_text()
        assert json.loads(text)["err_second_moment"] is None

    @pytest.mark.parametrize(
        "target, change, message",
        [
            # the jitter ladder is the one source of Cholesky jitters
            ({}, {"jitter": 1e-6}, "$.samplers[0]: unknown keys ['jitter']"),
            # a given gamma decays the step, a given bandwidth fixes the kernel
            ({}, {"schedule": "robbins_monro", "gamma": 0.7},
             "$.samplers[0]: unknown keys ['schedule']"),
            ({}, {"kernel": {"bandwidth": 0.5, "bandwidth_mode": "fixed"}},
             "$.samplers[0]: unknown keys ['kernel']"),
            ({}, {"bandwidth": 0.5, "bandwidth_mode": "fixed"},
             "$.samplers[0]: unknown keys ['bandwidth_mode']"),
            # every interacting step uses the kernel of the current particles
            ({}, {"repulsion_cutoff": 5}, "$.samplers[0]: unknown keys ['repulsion_cutoff']"),
            # MomentumState alone states the momentum hyperparameters
            ({}, {"beta1": 0.9}, "$.samplers[0]: unknown keys ['beta1']"),
            ({}, {"beta2": 0.999}, "$.samplers[0]: unknown keys ['beta2']"),
            ({}, {"stabilizer": 1e-8}, "$.samplers[0]: unknown keys ['stabilizer']"),
            # the funnel's scale is a standard deviation
            ({"name": "funnel", "params": {"scale_convention": "std"}}, {},
             "config error: target.params.scale_convention: "),
        ],
        ids=["jitter", "schedule", "kernel", "bandwidth_mode", "repulsion_cutoff", "beta1",
             "beta2", "stabilizer", "scale_convention"],
    )
    def test_deleted_setting_is_unknown_key(self, tmp_path, capsys, target, change, message):
        entry = {"name": "repulsive_sgld", "particles": 3, **change}
        cfg = moe_config(tmp_path / "out", samplers=[entry])
        cfg["target"].update(target)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, moe_config(tmp_path / "a"))
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")])
        for name in ("moe_sgld_seed0.trajectory.csv", "moe_sgld_seed0.report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, moe_config(tmp_path / "out"))
        main(["run", "--config", cfg_path, "--seed", "7,9"])
        assert (tmp_path / "out" / "moe_sgld_seed7.report.json").exists()
        assert (tmp_path / "out" / "moe_sgld_seed9.report.json").exists()

    def test_threads_do_not_change_results(self, tmp_path):
        cfg_path = write_config(tmp_path, moe_config(tmp_path / "a"))
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a"), "--seed", "0,1"])
        main(
            ["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "0,1",
             "--threads", "2"]
        )
        for path_a in (tmp_path / "a").glob("*"):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize(
        "command, protocol, builder, targets_per_call",
        [
            ("vis-funnel", {"FUNNEL_OUTER_ITERATIONS": 3, "FUNNEL_SAMPLES": 4}, "funnel", 1),
            ("bench-synthetic",
             {"BENCH_ITERATIONS": 120, "BENCH_POLICY": {"burn_in": 20, "thin": 1}},
             "make_target", 2),
        ],
    )
    def test_threads_do_not_change_shared_target_commands(
        self, tmp_path, monkeypatch, command, protocol, builder, targets_per_call
    ):
        # each call builds its targets once, before its jobs, which share them
        for name, value in protocol.items():
            monkeypatch.setattr(cli, name, value)
        built = record_calls(monkeypatch, targets, builder)
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            assert main([command, "--out", out, "--seed", "0,1", "--threads", threads]) == EXIT_OK
        assert len(built) == 2 * targets_per_call
        names = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bad_first", [False, True], ids=["good_then_bad", "bad_then_good"])
    def test_failing_run_publishes_nothing(self, tmp_path, threads, bad_first):
        # the good entry's jobs finish, on this or another thread, before or
        # while the diverging entry's jobs fail; none of their files is left
        entries = [{"name": "sgld", "particles": 2, "step_size": 0.1},
                   {"name": "repulsive_sgld", "particles": 2, "step_size": 1e9}]
        out = tmp_path / "out"
        cfg = moe_config(out, samplers=entries[::-1] if bad_first else entries, iterations=150)
        argv = ["run", "--config", write_config(tmp_path, cfg), "--seed", "0,1",
                "--threads", str(threads)]
        assert main(argv) == EXIT_DIVERGENCE
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == []

    @pytest.mark.parametrize(
        "change, argv, field",
        [
            ({"samplers": [{"name": "sgld", "step_size": 0.1},
                           {"name": "sgld", "step_size": 0.01}]}, [], "samplers[1].name"),
            ({}, ["--seed", "0,0"], "seed"),
            ({"seeds": [1, 1]}, [], "$.seeds"),
        ],
        ids=["sampler", "seed_flag", "config_seeds"],
    )
    def test_repeated_file_name_exits_2_writing_nothing(
        self, tmp_path, capsys, change, argv, field
    ):
        # a job's files are named by target, kind and seed, so two jobs of
        # one name would overwrite each other
        out = tmp_path / "out"
        cfg = {**moe_config(out), **change}
        assert main(["run", "--config", write_config(tmp_path, cfg), *argv]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_jobs(self, tmp_path):
        # each trajectory is about 1 MB of text; a run holds one job's at a time
        cfg = {
            "schema_version": 1,
            "target": {"name": "gaussian", "params": {"dim": 50}},
            "samplers": [{"name": "repulsive_sgld", "particles": 100, "step_size": 0.05}],
            "iterations": 10,
            "collection": {"burn_in": 0, "thin": 1},
            "seeds": [0],
        }
        path = write_config(tmp_path, cfg)

        def peak(seeds, out):
            tracemalloc.start()
            try:
                assert main(["run", "--config", path, "--seed", seeds, "--out", str(out)]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0", tmp_path / "warm-up")  # imports and first-call caches
        one = peak("0", tmp_path / "one")
        four = peak("0,1,2,3", tmp_path / "four")
        size = (tmp_path / "one" / "gaussian_repulsive_sgld_seed0.trajectory.csv").stat().st_size
        assert size > 900_000
        assert four - one < size / 2

    @pytest.mark.parametrize(
        "target, sampler, init, key",
        [
            ({}, {"gamma": 2.0}, {}, "samplers[0].gamma"),
            ({}, {"bandwidth": -1}, {}, "samplers[0].bandwidth"),
            ({"name": "gaussian", "params": {"dim": 2}}, {}, {"mean": [0, 0, 0]}, "init.mean"),
            ({"name": "gaussian", "params": {"dim": 0}}, {}, {}, "target.params.dim"),
            ({"name": "funnel", "params": {"scale": 0}}, {}, {}, "target.params.scale"),
            ({"name": "funnel", "params": {"scale": -1}}, {}, {}, "target.params.scale"),
            ({}, {}, {"mean": ["a"]}, "$.init.mean[0]"),
            ({}, {}, {"std": [1, "b"]}, "$.init.std[1]"),
            ({}, {}, {"std": -1.0}, "init.std"),
            # non-finite numbers (JSON NaN / Infinity) are rejected where first checked
            (GAUSS2, {}, {"mean": float("nan")}, "init.mean"),
            (GAUSS2, {}, {"std": float("inf")}, "init.std"),
            (GAUSS2, {"step_size": float("inf")}, {}, "samplers[0].step_size"),
            (GAUSS2, {"bandwidth": float("inf")}, {}, "samplers[0].bandwidth"),
            (GAUSS2, {"bandwidth": float("nan")}, {}, "samplers[0].bandwidth"),
        ],
        ids=["gamma", "bandwidth", "init_mean", "dim", "scale_zero", "scale_negative",
             "init_mean_item", "init_std_item", "init_std_negative",
             "init_mean_nan", "init_std_inf", "step_size_inf", "bandwidth_inf",
             "bandwidth_nan"],
    )
    def test_bad_config_value_exits_2_naming_key(
        self, tmp_path, capsys, target, sampler, init, key
    ):
        cfg = moe_config(tmp_path / "out")
        cfg["target"].update(target)
        cfg["samplers"] = [{"name": "repulsive_sgld", "particles": 3, "step_size": 0.1, **sampler}]
        cfg["init"] = init
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the ids name scale as what it is: the standard deviation of z1
    @pytest.mark.parametrize(
        "scale", [float("inf"), 1e-160, 1e-200], ids=["inf_std", "1e-160_std", "1e-200_std"]
    )
    def test_funnel_scale_without_finite_precision_exits_2(self, tmp_path, capsys, scale):
        # the funnel's first coordinate needs a finite positive precision 1/s1^2
        cfg = moe_config(tmp_path / "out")
        cfg["target"] = {"name": "funnel", "params": {"scale": scale}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "config error: target.params.scale: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e-150, 1e300], ids=["1e-150-std", "1e+300-std"])
    def test_funnel_scale_with_finite_precision_builds(self, scale):
        assert targets.make_target("funnel", scale=scale).dim == 2

    def test_funnel_scale_failing_the_gradient_audit_exits_2(self, tmp_path, capsys):
        # 1/s1^2 is finite, but -z1/s1^2 overflows at the audit points
        cfg = moe_config(tmp_path / "out")
        cfg["target"] = {"name": "funnel", "params": {"scale": 8e-155}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: target.params: gradient audit failed for funnel")
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1.1e-154, 1e-150])
    def test_funnel_scale_passing_the_gradient_audit_builds(self, tmp_path, monkeypatch, scale):
        # so narrow a funnel may diverge when sampled, but its target is built
        built = record_calls(monkeypatch, targets, "make_target")
        cfg = moe_config(tmp_path / "out", samplers=[{"name": "sgld", "particles": 2}])
        cfg["target"] = {"name": "funnel", "params": {"scale": scale}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) != EXIT_CONFIG
        assert [target.dim for _, _, target in built] == [2]

    @pytest.mark.parametrize(
        "target, key",
        [
            ({"name": "funnel", "params": {"scale": True}}, "scale"),
            ({"name": "gaussian", "params": {"dim": True}}, "dim"),
            ({"name": "gaussian", "params": {"dim": 2.0}}, "dim"),
            ({"name": "funnel", "params": {"scale": "2"}}, "scale"),
            ({"name": "gaussian", "params": {"dim": 2, "scale": 1.0}}, "scale"),
            ({"name": "funnel", "params": {"scale_convention": 1}}, "scale_convention"),
            ({"name": "moe", "params": {"scale": 1.0}}, "scale"),
            ({"name": "gaussian"}, "dim"),
        ],
        ids=["scale_bool", "dim_bool", "dim_float", "scale_string", "gaussian_scale",
             "convention_int", "moe_scale", "dim_missing"],
    )
    def test_target_param_outside_the_constructor_signature_exits_2(
        self, tmp_path, capsys, target, key
    ):
        # names and JSON types come from the constructor's own signature
        cfg = moe_config(tmp_path / "out")
        cfg["target"] = target
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: target.params.{key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, params, reference",
        [*[(name, {"dim": 2} if name == "gaussian" else {}, {}) for name in
           sorted(targets.BUILTIN_TARGETS)],
         ("funnel", {"scale": 2}, {"scale": 2.0})],
        ids=[*sorted(targets.BUILTIN_TARGETS), "funnel_integer_scale"],
    )
    def test_target_params_fitting_the_signature_build(
        self, tmp_path, monkeypatch, name, params, reference
    ):
        built = record_calls(monkeypatch, targets, "make_target")
        entry = {"name": "sgld", "particles": 2, "step_size": 0.01}
        cfg = moe_config(tmp_path / "out", samplers=[entry])
        cfg["target"] = {"name": name, "params": params}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        [(_, _, target)] = built
        z = np.random.default_rng(0).normal(size=(4, target.dim))
        expected = targets.BUILTIN_TARGETS[name](**{**params, **reference})
        assert np.array_equal(target.log_density(z), expected.log_density(z))

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"samplers": [{"name": "sgld", "step_size": -1}]}, "samplers[0].step_size"),
            ({"samplers": [{"name": "sgld", "step_size": 0}]}, "samplers[0].step_size"),
            ({"samplers": [{"name": "svgd", "bandwidth": -0.5}]}, "samplers[0].bandwidth"),
            ({"samplers": [{"name": "sgld", "particles": 0}]}, "samplers[0].particles"),
            ({"samplers": [{"name": "sgld", "particles": -3}]}, "samplers[0].particles"),
            ({"collection": {"burn_in": -1, "thin": 10}}, "collection.burn_in"),
            ({"collection": {"burn_in": 100, "thin": 0}}, "collection.thin"),
            ({"iterations": 0}, "iterations"),
            ({"iterations": -5}, "iterations"),
        ],
        ids=["step_size_negative", "step_size_zero", "bandwidth", "particles_zero",
             "particles_negative", "burn_in", "thin", "iterations_zero", "iterations_negative"],
    )
    def test_numeric_bound_is_the_library_rule(self, tmp_path, capsys, change, key):
        # the schema checks only the type; the library's check is the one rule
        cfg = {**moe_config(tmp_path / "out"), **change}
        validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad, key",
        [({"step_size": -1}, "step_size"), ({"particles": 0}, "particles"),
         ({"bandwidth": -1.0}, "bandwidth"), ({"gamma": 2.0}, "gamma")],
        ids=["step_size", "particles", "bandwidth", "gamma"],
    )
    def test_bad_later_entry_exits_2_before_any_job(
        self, tmp_path, capsys, monkeypatch, bad, key
    ):
        # every entry is checked before the first job, and the message names it
        calls = []
        monkeypatch.setattr(samplers, "run", lambda *a, **k: calls.append(a))
        entries = [{"name": "sgld", "step_size": 0.1}, {"name": "svgd", "step_size": 0.1, **bad}]
        cfg = moe_config(tmp_path / "out", samplers=entries)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"config error: samplers[1].{key}: " in capsys.readouterr().err
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"iterations": 200.0}, "$.iterations"),
            ({"samplers": [{"name": "sgld", "particles": 5.0}]}, "$.samplers[0].particles"),
            ({"seeds": [0.0]}, "$.seeds[0]"),
            ({"collection": {"burn_in": 100, "thin": 10.0}}, "$.collection.thin"),
        ],
        ids=["iterations", "particles", "seed", "thin"],
    )
    def test_integer_valued_float_exits_2(self, tmp_path, capsys, change, key):
        # an integer key takes a JSON integer literal: 200, not 200.0 or 2e2
        cfg = {**moe_config(tmp_path / "out"), **change}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("iterations", [100, 105])
    def test_run_too_short_to_collect_exits_2(self, tmp_path, capsys, iterations):
        # burn-in 100, thin 10: nothing collected at 100 iterations, nor at 105
        cfg = moe_config(tmp_path / "out", iterations=iterations)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "config error: iterations: " in capsys.readouterr().err

    def test_schema_enums_are_the_library_tuples(self):
        entry = CONFIG_SCHEMA["properties"]["samplers"]["items"]["properties"]
        assert entry["name"]["enum"] == list(samplers.SAMPLER_KINDS)
        target = CONFIG_SCHEMA["properties"]["target"]["properties"]
        assert target["name"]["enum"] == sorted(targets.BUILTIN_TARGETS)

    def test_config_paths_map_library_parameters_to_schema_keys(self):
        # the one table from a library parameter to the config path that sets it
        params = set()
        for raiser in (samplers.RunSpec, samplers.StepSchedule, samplers.CollectionPolicy,
                       kernels.KernelConfig, targets.make_target):
            params |= inspect.signature(raiser).parameters.keys()
        assert cli._CONFIG_PATHS.keys() <= params
        for path in cli._CONFIG_PATHS.values():
            schema = CONFIG_SCHEMA
            for key in path.replace("[]", ".[]").split("."):
                schema = schema["items"] if key == "[]" else schema["properties"][key]

    def test_library_messages_name_the_config_key(self, tmp_path, capsys):
        # StepSchedule and KernelConfig state the rule; the CLI names the key
        for bad, line in [
            ({"step_size": -1.0}, "config error: samplers[0].step_size: must be finite and > 0"),
            ({"gamma": 2.0}, "config error: samplers[0].gamma: must lie in (0.5, 1]"),
            ({"bandwidth": 0.0}, "config error: samplers[0].bandwidth: must be finite and > 0"),
        ]:
            cfg = moe_config(tmp_path / "out", samplers=[{"name": "svgd", **bad}])
            assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
            assert capsys.readouterr().err == line + "\n"

    def test_config_bandwidth_fixes_the_kernel(self, tmp_path):
        # a given bandwidth is the kernel's h; left out, the median heuristic sets it
        def written(name, extra):
            entry = {"name": "repulsive_sgld", "particles": 5, "step_size": 0.1, **extra}
            cfg = {**moe_config(tmp_path / name, samplers=[entry]), "target": GAUSS2}
            assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
            csv = tmp_path / name / "gaussian_repulsive_sgld_seed0.trajectory.csv"
            return np.loadtxt(csv, delimiter=",", skiprows=2)[:, 2:]

        def library(kernel_cfg):
            spec = samplers.RunSpec(
                "repulsive_sgld", 5, 200, samplers.StepSchedule(0.1),
                samplers.CollectionPolicy(burn_in=100, thin=10), kernel_cfg=kernel_cfg,
            )
            result = samplers.run(spec, targets.make_target("gaussian", dim=2), 0)
            return result.per_particle.transpose(1, 0, 2).reshape(-1, 2)

        fixed, median = written("fixed", {"bandwidth": 0.5}), written("median", {})
        np.testing.assert_array_equal(fixed, library(kernels.KernelConfig(0.5)))
        np.testing.assert_array_equal(median, library(kernels.KernelConfig()))
        assert not np.array_equal(fixed, median)

    @pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.json")),
                             ids=lambda path: path.name)
    def test_shipped_config_is_valid(self, path):
        # a shipped config names no deleted key and builds every sampler entry
        config = cli.load_config(str(path))
        target = targets.make_target(config["target"]["name"], **config["target"].get("params", {}))
        for i in range(len(config["samplers"])):
            assert isinstance(cli._entry_spec(i, config, target.dim), samplers.RunSpec)

    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    def test_omitted_keys_take_library_defaults(self, tmp_path, kind):
        # every optional key left out: the library's defaults are the only ones
        cfg = {
            "schema_version": 1,
            "target": {"name": "mog"},
            "samplers": [{"name": kind}],
            "iterations": 30,
            "collection": {},
            "seeds": [0],
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        result = samplers.run(
            samplers.RunSpec(
                kind, n_particles=10, iterations=30, schedule=samplers.StepSchedule(),
                policy=samplers.CollectionPolicy(),
            ),
            targets.mog_grid(), 0,
        )
        rows = np.loadtxt(out / f"mog_{kind}_seed0.trajectory.csv", delimiter=",", skiprows=2)
        expected = result.per_particle.transpose(1, 0, 2).reshape(-1, 2)
        np.testing.assert_array_equal(rows[:, 2:], expected)

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = moe_config(tmp_path / "ignored")
        del cfg["output_dir"]
        cfg_path = write_config(tmp_path, cfg)
        main(["run", "--config", cfg_path])
        assert list((tmp_path / "envout").glob("*.report.json"))


class TestDumpJson:
    def test_json_round_trip(self):
        payload = json.loads(cli.dump_json(
            {"ess": 120.5, "err_mean": 0.1, "rhat": np.array([1.01, 1.02])}
        ))
        assert payload["schema_version"] == 1
        assert payload["ess"] == 120.5
        assert payload["err_mean"] == 0.1
        assert payload["rhat"] == [1.01, 1.02]

    def test_non_finite_numbers_are_null_at_any_depth(self):
        payload = {
            "b": [1.0, np.nan, {"c": -np.inf}, (np.float64(np.inf), 2)],
            "a": np.inf,
            "d": np.array([[np.nan, 2.5]]),
            "e": True,
        }
        text = cli.dump_json(payload)
        assert json.loads(text, parse_constant=reject_constant) == {
            "schema_version": 1,
            "a": None,
            "b": [1.0, None, {"c": None}, [None, 2]],
            "d": [[None, 2.5]],
            "e": True,
        }
        assert text.index('"a"') < text.index('"b"') < text.index('"schema_version"')


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        def blocks():
            yield "iteration,particle,z1\n"
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space left"):
            cli.write_blocks_atomic(tmp_path / "out" / "a.csv", blocks())
        assert list((tmp_path / "out").iterdir()) == []


class TestTrajectoryCsv:
    def test_bytes_equal_per_value_format(self):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, -2.2250738585072014e-308,
                   1.0 / 3.0, -1e300, 1e16, 123456789.125, 0.1]  # subnormals among them
        rng = np.random.default_rng(3)
        scaled = rng.normal(size=47) * 10.0 ** rng.integers(-300, 300, 47)
        values = np.concatenate([special, scaled])
        per_particle = rng.permutation(values).reshape(3, 4, 5)  # (L, events, d)
        iterations = range(110, 141, 10)  # burn-in 100, thin 10
        lines = ["# schema_version=1", "iteration,particle,z1,z2,z3,z4,z5"]
        for e in range(4):
            for p in range(3):
                coords = ",".join(format(v, ".17g") for v in per_particle[p, e])
                lines.append(f"{100 + (e + 1) * 10},{p},{coords}")
        assert "".join(_trajectory_csv(per_particle, iterations)) == "\n".join(lines) + "\n"

    def test_bytes_equal_per_value_format_above_the_crossover(self):
        """Ensemble-sized events take the numpy path; the (3, 4, 5) case above
        takes ``%``: both write the per-value bytes."""
        assert 3 * 5 < cli._G17_ARRAY_MIN_FLOATS <= 100 * 50
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, -2.2250738585072014e-308,
                   1.0 / 3.0, -1e300, 1e16, 123456789.125, 0.1, 999999999999999.9, 1e15, 1e-4]
        rng = np.random.default_rng(4)
        n_scaled = 15_000 - len(special)
        scaled = rng.normal(size=n_scaled) * 10.0 ** rng.integers(-8, 18, n_scaled)
        mixed = rng.permutation(np.concatenate([special, scaled])).reshape(100, 3, 50)
        # three events of every magnitude, then three of standard normal draws
        per_particle = np.concatenate([mixed, rng.normal(size=(100, 3, 50))], axis=1)
        iterations = range(1, 7)
        header = "iteration,particle," + ",".join(f"z{j + 1}" for j in range(50))
        lines = ["# schema_version=1", header]
        for e in range(6):
            for p in range(100):
                coords = ",".join(format(v, ".17g") for v in per_particle[p, e])
                lines.append(f"{e + 1},{p},{coords}")
        assert "".join(_trajectory_csv(per_particle, iterations)) == "\n".join(lines) + "\n"


def per_value_rows(block):
    return [",".join(format(v, ".17g") for v in row) + "\n" for row in block.tolist()]


class TestG17Rows:
    """``g17_rows`` writes the bytes of ``format(v, ".17g")`` for every double."""

    def check(self, values, width=10):
        values = np.ravel(values).astype(float)
        values = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
        assert g17_rows(values) == per_value_rows(values)

    def test_within_three_ulps_of_powers_of_ten(self):
        values = []
        for k in range(-6, 18):
            near = float(f"1e{k}")
            for _ in range(3):
                near = np.nextafter(near, -np.inf)
            for _ in range(7):
                values += [near, -near]
                near = np.nextafter(near, np.inf)
        self.check(values)

    def test_halfway_ties(self):
        """j * 2**-s with j odd and 18 significant digits ends in 5 at the 18th:
        an exact tie at 17 digits, rounded half to even."""
        rng = np.random.default_rng(0)
        values = []
        for s in range(3, 22):
            low, high = 10.0 ** (17 - s) * 2**s, 10.0 ** (18 - s) * 2**s
            j = rng.integers(int(low) + 1, int(high), 2_000) | 1
            values.append(j * 2.0**-s * rng.choice([-1.0, 1.0], 2_000))
        self.check(np.concatenate(values))

    def test_special_values(self):
        self.check([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, np.nan, -np.nan,
                    np.inf, -np.inf, 1e300, -1e-300, 1.7976931348623157e308, 999999999999999.9,
                    -999999999999999.9, 1e15, np.nextafter(1e15, 0), 1e-4, np.nextafter(1e-4, 0),
                    1.0, -1.0, 10.0, 0.5, 123.0, 1e14, 0.001, 9.999999999999999e-5])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=1_500_000, dtype=np.uint64)
        # a third of them with a binary exponent in the numpy path's range, 2**-14 ... 2**50
        bits[::3] &= ~np.uint64(0x7FF << 52)
        bits[::3] |= rng.integers(1023 - 14, 1023 + 50, 500_000).astype(np.uint64) << np.uint64(52)
        for chunk in np.split(bits.view(np.float64), 15):
            self.check(chunk, width=50)

    @pytest.mark.parametrize("scale", [1e-5, 1e-2, 1.0, 1e3, 1e7, 1e11, 1e16])
    def test_block_of_one_magnitude(self, scale):
        """The integer words kept follow the block's largest value."""
        rng = np.random.default_rng(1)
        self.check(rng.normal(size=(7, 3)) * scale, width=3)


class TestBenchCommand:
    def test_header_and_row_count(self, tmp_path):
        assert (
            main(["bench-synthetic", "--out", str(tmp_path), "--seed", "0,1"]) == EXIT_OK
        )
        lines = (tmp_path / "bench_synthetic.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == BENCH_HEADER
        # 2 distributions x 2 samplers x 2 seeds
        assert len(lines) == 2 + 8

    def test_rerun_byte_identical(self, tmp_path):
        main(["bench-synthetic", "--out", str(tmp_path / "a"), "--seed", "0"])
        main(["bench-synthetic", "--out", str(tmp_path / "b"), "--seed", "0"])
        assert (tmp_path / "a" / "bench_synthetic.csv").read_bytes() == (
            tmp_path / "b" / "bench_synthetic.csv"
        ).read_bytes()


class TestVisFunnelCommand:
    def test_traces_and_learned_parameters(self, tmp_path):
        assert main(["vis-funnel", "--out", str(tmp_path), "--seed", "3"]) == EXIT_OK
        for t in (0, 1, 2):
            lines = (tmp_path / f"vis_funnel_T{t}.csv").read_text().splitlines()
            assert lines[1] == "seed,iteration,neg_elbo"
            assert len(lines) == 2 + 50  # 50 outer iterations for the one seed
        payload = json.loads((tmp_path / "vis_funnel_params.json").read_text())
        learned = payload["learned"]["1"]["3"]
        assert learned["eta"] > 0
        assert len(learned["mean"]) == 2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_seed_gets_its_own_run(self, tmp_path, monkeypatch, threads):
        # a result paired with the wrong seed would be so at every thread count
        monkeypatch.setattr(cli, "FUNNEL_OUTER_ITERATIONS", 3)
        monkeypatch.setattr(cli, "FUNNEL_SAMPLES", 4)
        argv = ["vis-funnel", "--out", str(tmp_path), "--seed", "3,5", "--threads", threads]
        assert main(argv) == EXIT_OK
        learned = json.loads((tmp_path / "vis_funnel_params.json").read_text())["learned"]
        target = targets.funnel()
        for t in (0, 1, 2):
            rows = (tmp_path / f"vis_funnel_T{t}.csv").read_text().splitlines()[2:]
            finals = {}
            for seed in (3, 5):
                last = [float(row.split(",")[2]) for row in rows if row.startswith(f"{seed},")][-1]
                assert learned[str(t)][str(seed)]["final_neg_elbo"] == last
                assert last == cli.funnel_trace(t, seed, target).loss_trace[-1]
                finals[seed] = last
            assert finals[3] != finals[5]

    def test_rerun_byte_identical(self, tmp_path):
        main(["vis-funnel", "--out", str(tmp_path / "a"), "--seed", "5"])
        main(["vis-funnel", "--out", str(tmp_path / "b"), "--seed", "5"])
        for name in ("vis_funnel_T1.csv", "vis_funnel_params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(200)
    path = tmp_path_factory.mktemp("data") / "linear.csv"
    with open(path, "w") as fh:
        fh.write("f1,f2,f3,y\n")
        for row, t in zip(x, y):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(f"{cells},{float(t)!r}\n")
    return str(path)


class TestBnnCommand:

    def test_report_contents(self, tmp_path, data_csv):
        code = main(
            ["bnn", "--data", data_csv, "--target-column", "y", "--sampler", "sgld",
             "--out", str(tmp_path), "--seed", "0"]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "bnn_linear_sgld_seed0.json").read_text())
        for key in ("rmse", "test_ll", "seed", "config_hash", "dataset"):
            assert key in payload
        assert np.isfinite(payload["rmse"]) and np.isfinite(payload["test_ll"])
        # the run's diagnostics, formatted as in run reports
        assert payload["ess"] > 0
        assert len(payload["rhat"]) == 50 * (3 + 1) + 50 + 1  # one per network weight
        assert all(r is None or r > 0 for r in payload["rhat"])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_report_is_its_seeds_run(self, tmp_path, monkeypatch, data_csv, threads):
        # a report written under the wrong seed would be so at every thread count
        monkeypatch.setattr(cli, "BNN_PROTOCOL", {**cli.BNN_PROTOCOL, "iterations": 40,
                                                  "burn_in": 10})
        argv = ["bnn", "--data", data_csv, "--target-column", "y", "--sampler", "sgld",
                "--out", str(tmp_path), "--seed", "0,1", "--threads", threads]
        assert main(argv) == EXIT_OK
        dataset = bnn.load_csv(data_csv, "y")
        reports = {seed: json.loads((tmp_path / f"bnn_linear_sgld_seed{seed}.json").read_text())
                   for seed in (0, 1)}
        for seed, report in reports.items():
            assert report["seed"] == seed
            assert report["rmse"] == cli.bnn_report(dataset, "sgld", seed)["rmse"]
        assert reports[0]["rmse"] != reports[1]["rmse"]

    def test_missing_file_exits_2(self, tmp_path):
        code = main(
            ["bnn", "--data", str(tmp_path / "none.csv"), "--target-column", "y"]
        )
        assert code == EXIT_CONFIG

    def test_negative_split_seed_exits_2_naming_it(self, tmp_path, capsys, data_csv):
        code = main(
            ["bnn", "--data", data_csv, "--target-column", "y", "--split-seed", "-1",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: split-seed: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", "missing header row"),
            ("f1,y\n", "need at least 20 data rows, got 0"),
            ("f1,y\n1.0,2.0,x\n", "row 2 has 3 cells"),
            ("f1,y\n" + "1.0,2.0\n" * 19 + "nan,2.0\n", "row 21, column 'f1': nan"),
            ("f1,y\n" + "1.0,2.0\n1.0,3.0\n" * 10, "no feature column varies"),
            ("f1,y,y\n" + "1.0,2.0,2.0\n" * 20, "header repeats column 'y'"),
        ],
    )
    def test_malformed_table_exits_2_naming_the_problem(self, tmp_path, capsys, text, problem):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main(
            ["bnn", "--data", str(path), "--target-column", "y", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: data: ") and problem in err
        assert "Warning" not in err


@pytest.mark.parametrize(
    "command",
    [["bench-synthetic"], ["vis-funnel"], ["bnn", "--target-column", "y", "--sampler", "sgld"]],
    ids=["bench-synthetic", "vis-funnel", "bnn"],
)
def test_repeated_seed_flag_exits_2_writing_nothing(tmp_path, capsys, data_csv, command):
    # each seed names its output, so a repeated one would be run and written twice
    argv = [*command, "--seed", "0,0", "--out", str(tmp_path / "out")]
    if command[0] == "bnn":
        argv += ["--data", data_csv]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "bnn"])
def test_inputs_are_read_as_utf8_in_any_locale(tmp_path, command):
    # in the C locale without UTF-8 mode, open() alone would decode ASCII
    if command == "run":
        config = {**moe_config(tmp_path / "out"), "target": {"name": "gaußian"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        argv = ["--config", str(path)]
        expected = "config error: $.target.name: 'gau\\xdfian' is not one of "
    else:
        path = tmp_path / "data.csv"
        path.write_text("température,y\n", encoding="utf-8")
        argv = ["--data", str(path), "--target-column", "y", "--out", str(tmp_path / "out")]
        expected = "config error: data: need at least 20 data rows, got 0"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""}
    proc = subprocess.run([sys.executable, "-m", "steinmc", command, *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    # stderr is ASCII here, so a non-ASCII character prints as its escape
    assert proc.stderr.decode("ascii").startswith(expected), proc.stderr
    assert not (tmp_path / "out").exists()


def test_non_integer_seed_flag_exits_2_naming_seed(tmp_path, capsys):
    cfg = moe_config(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, cfg), "--seed", "a"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed: seeds must be integers: 'a'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [[0, -1], [], [3, 3], [1, 1, -2]],
                         ids=["negative", "empty", "repeated", "repeated_and_negative"])
def test_seed_flag_errors_read_like_config_seeds_errors(tmp_path, capsys, seeds):
    # --seed is checked against the config's own seeds schema
    cfg = moe_config(tmp_path / "out")
    flag = ["--seed", ",".join(map(str, seeds))]
    assert main(["run", "--config", write_config(tmp_path, cfg), *flag]) == EXIT_CONFIG
    from_flag = capsys.readouterr().err
    assert main(["run", "--config", write_config(tmp_path, {**cfg, "seeds": seeds})]) == EXIT_CONFIG
    from_config = capsys.readouterr().err
    assert from_flag.replace("config error: seed", "config error: $.seeds") == from_config
    assert not (tmp_path / "out").exists()


def test_every_library_error_exits_with_its_documented_code(monkeypatch, capsys):
    # each SteinmcError subclass, with the phrase the README's "Exit codes"
    # line gives it; a new subclass fails here until it has a code
    instances = {
        ConfigError: (ConfigError("bad value", field="step_size"), "config error"),
        DivergenceError: (DivergenceError(iteration=3, particle=1), "divergence"),
        FactorizationError: (FactorizationError([0.0, 1e-4]), "kernel factorization failure"),
    }
    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.SteinmcError) and cls is not errors.SteinmcError
    }
    assert defined == set(instances)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = " ".join(readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0].split())
    documented = {phrase.strip(): int(code) for code, phrase in re.findall(r"`(\d+)` ([a-z ]+)", line)}
    for err, phrase in instances.values():
        def fail(args, err=err):
            raise err

        monkeypatch.setattr(cli, "cmd_run", fail)
        assert main(["run", "--config", "unread.json"]) == documented[phrase], phrase
        assert capsys.readouterr().err == f"{phrase}: {err}\n"


def gauss1_config(out_dir, sampler, init=None):
    cfg = {
        "schema_version": 1, "target": {"name": "gaussian", "params": {"dim": 1}},
        "samplers": [sampler], "iterations": 20, "collection": {"burn_in": 0, "thin": 1},
        "seeds": [0], "output_dir": str(out_dir),
    }
    return {**cfg, "init": init} if init else cfg


@pytest.mark.parametrize(
    "sampler, init, code, message",
    [
        # eps_t = 5e-324 * (1 + t)^-0.55 underflows to 0 long before t = 19
        ({"name": "sgld", "particles": 2, "step_size": 5e-324, "gamma": 0.55},
         None, EXIT_CONFIG, "config error: samplers[0].step_size: "),
        *[({"name": kind, "particles": 50}, {"std": 1e308}, EXIT_DIVERGENCE, "divergence: ")
          for kind in samplers.SAMPLER_KINDS],
    ],
    ids=["decaying_step", *[f"overflowing_init_{kind}" for kind in samplers.SAMPLER_KINDS]],
)
def test_valid_schema_never_ends_in_a_traceback(tmp_path, capsys, sampler, init, code, message):
    # each config passes the schema; the step that decays to 0 is rejected
    # before any job starts, and an initial draw that overflows diverges at
    # iteration 0 for every kind, before any kernel is built from it
    out = tmp_path / "out"
    path = write_config(tmp_path, gauss1_config(out, sampler, init))
    assert main(["run", "--config", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    if code == EXIT_DIVERGENCE:
        assert err.rstrip().endswith("at iteration 0")
        assert list(out.iterdir()) == []  # a failed run publishes nothing
    else:
        assert not out.exists()


class TestProtocolConstants:
    """perfbench/workloads.py shortens its runs by replacing these module
    constants, so each command must read them when it runs, not when the
    module is imported."""

    def test_vis_funnel_reads_outer_iterations_and_samples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "FUNNEL_OUTER_ITERATIONS", 3)
        monkeypatch.setattr(cli, "FUNNEL_SAMPLES", 4)
        calls = record_calls(monkeypatch, refine, "optimize")
        assert main(["vis-funnel", "--out", str(tmp_path), "--seed", "0,1"]) == EXIT_OK
        # T = 0, 1, 2 for each seed
        assert [(args[2], kwargs["n_samples"]) for args, kwargs, _ in calls] == [(3, 4)] * 6
        for t in (0, 1, 2):
            rows = (tmp_path / f"vis_funnel_T{t}.csv").read_text().splitlines()[2:]
            assert [row.split(",")[:2] for row in rows] == [
                [str(seed), str(i)] for seed in (0, 1) for i in range(3)
            ]

    def test_bench_synthetic_reads_iterations_and_policy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "BENCH_ITERATIONS", 120)
        monkeypatch.setattr(cli, "BENCH_POLICY", {"burn_in": 20, "thin": 1})
        calls = record_calls(monkeypatch, samplers, "run")
        assert main(["bench-synthetic", "--out", str(tmp_path), "--seed", "0"]) == EXIT_OK
        specs = [args[0] for args, _, _ in calls]
        assert len(specs) == 4  # 2 distributions x 2 samplers
        assert {(s.iterations, s.policy.burn_in, s.policy.thin) for s in specs} == {(120, 20, 1)}

    def test_bnn_reads_protocol(self, tmp_path, monkeypatch, data_csv):
        short = {**cli.BNN_PROTOCOL, "iterations": 40, "burn_in": 10}
        monkeypatch.setattr(cli, "BNN_PROTOCOL", short)
        calls = record_calls(monkeypatch, samplers, "run")
        argv = ["bnn", "--data", data_csv, "--target-column", "y", "--sampler", "sgld",
                "--out", str(tmp_path), "--seed", "0"]
        assert main(argv) == EXIT_OK
        config = json.loads((tmp_path / "bnn_linear_sgld_seed0.json").read_text())["config"]
        assert (config["iterations"], config["burn_in"]) == (40, 10)
        assert [(spec.iterations, spec.policy.burn_in) for (spec, *_), _, _ in calls] == [(40, 10)]


# each command at a short protocol: its flags past the command name, and the
# protocol constants it runs with; run adds its config and bnn the data_csv fixture
SHORT_COMMANDS = {
    "run": ([], {}),
    "bench-synthetic": (["--seed", "0"],
                        {"BENCH_ITERATIONS": 120, "BENCH_POLICY": {"burn_in": 20, "thin": 1}}),
    "vis-funnel": (["--seed", "0"], {"FUNNEL_OUTER_ITERATIONS": 3, "FUNNEL_SAMPLES": 4}),
    "bnn": (["--target-column", "y", "--sampler", "sgld", "--seed", "0"],
            {"BNN_PROTOCOL": {**cli.BNN_PROTOCOL, "iterations": 40, "burn_in": 10}}),
}


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
@pytest.mark.parametrize("command", SHORT_COMMANDS)
def test_artifact_permissions_follow_the_umask(tmp_path, monkeypatch, data_csv, command, umask):
    # as open(path, "w") would create them: mode 0o666 less the umask
    flags, protocol = SHORT_COMMANDS[command]
    for name, value in protocol.items():
        monkeypatch.setattr(cli, name, value)
    out = tmp_path / "out"
    if command == "run":
        flags = ["--config", write_config(tmp_path, moe_config(out, iterations=120))]
    if command == "bnn":
        flags = [*flags, "--data", data_csv]
    previous = os.umask(umask)
    try:
        assert main([command, *flags, "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert modes and set(modes.values()) == {0o666 & ~umask}, modes
