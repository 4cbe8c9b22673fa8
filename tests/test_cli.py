import copy
import json
import tracemalloc

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
from steinmc import cli, kernels, refine, samplers, targets
from steinmc.errors import ConfigError, FactorizationError


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
        {"name": "repulsive_adam", "particles": 5, "step_size": 0.1, "schedule": "robbins_monro",
         "gamma": 0.55, "beta1": 0.9, "beta2": 0.999, "stabilizer": 1e-8, "repulsion_cutoff": 3,
         "kernel": {"bandwidth": 0.5, "bandwidth_mode": "fixed"}},
        {"name": "sgld", "repulsion_cutoff": None},
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


NAMED = ("name", "schedule", "bandwidth_mode")  # the keys whose values are enums


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
        # a noisy kind whose step is too small to move the particles keeps
        # its per-dimension list, each entry null
        entry = {"name": "repulsive_sgld", "particles": 3, "step_size": 1e-300}
        cfg = {**moe_config(tmp_path / "out", samplers=[entry], iterations=40),
               "target": GAUSS2, "collection": {"burn_in": 10, "thin": 1}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        payload = json.loads(
            (tmp_path / "out" / "gaussian_repulsive_sgld_seed0.report.json").read_text()
        )
        assert payload["rhat"] == [None, None]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the moment error overflows
    def test_overflowing_moment_error_is_written_null(self, tmp_path):
        # a finite log-space position far out maps to an exp(y) whose square
        # overflows; JSON has no Infinity, so the report writes null
        entry = {"name": "sgld", "particles": 10, "step_size": 400}
        cfg = {**moe_config(tmp_path / "out", samplers=[entry]),
               "collection": {"burn_in": 0, "thin": 1}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        text = (tmp_path / "out" / "moe_sgld_seed0.report.json").read_text()
        assert json.loads(text)["err_second_moment"] is None

    def test_kernel_jitter_is_unknown_key(self, tmp_path, capsys):
        # the jitter ladder is the one source of Cholesky jitters
        entry = {"name": "repulsive_sgld", "particles": 3, "kernel": {"jitter": 1e-6}}
        cfg = moe_config(tmp_path / "out", samplers=[entry])
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "$.samplers[0].kernel: unknown keys ['jitter']" in capsys.readouterr().err
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
            ({}, {"schedule": "robbins_monro", "gamma": 2.0}, {}, "samplers[0].gamma"),
            ({}, {"name": "repulsive_sgdm", "beta1": 1.5}, {}, "samplers[0].beta1"),
            ({}, {"kernel": {"bandwidth": -1, "bandwidth_mode": "fixed"}}, {},
             "samplers[0].kernel.bandwidth"),
            ({"name": "gaussian", "params": {"dim": 2}}, {}, {"mean": [0, 0, 0]}, "init.mean"),
            ({"name": "gaussian", "params": {"dim": 0}}, {}, {}, "dim"),
            ({"name": "funnel", "params": {"scale_convention": "x"}}, {}, {}, "scale_convention"),
            ({"name": "funnel", "params": {"scale": 0}}, {}, {}, "scale"),
            ({"name": "funnel", "params": {"scale": -1}}, {}, {}, "scale"),
            ({}, {"name": "repulsive_adam", "stabilizer": -1}, {}, "samplers[0].stabilizer"),
            # momentum and schedule keys are checked also where the kind ignores them
            ({}, {"name": "sgld", "beta1": 1.5}, {}, "samplers[0].beta1"),
            ({}, {"name": "svgd", "beta2": 1.0}, {}, "samplers[0].beta2"),
            ({}, {"name": "sgld", "stabilizer": -1}, {}, "samplers[0].stabilizer"),
            ({}, {"name": "svgd", "gamma": 7.0}, {}, "samplers[0].gamma"),
            ({}, {"name": "sgld", "repulsion_cutoff": -5}, {}, "samplers[0].repulsion_cutoff"),
            ({}, {}, {"mean": ["a"]}, "$.init.mean[0]"),
            ({}, {}, {"std": [1, "b"]}, "$.init.std[1]"),
            ({}, {}, {"std": -1.0}, "init.std"),
            # non-finite numbers (JSON NaN / Infinity) are rejected where first checked
            (GAUSS2, {}, {"mean": float("nan")}, "init.mean"),
            (GAUSS2, {}, {"std": float("inf")}, "init.std"),
            (GAUSS2, {"step_size": float("inf")}, {}, "samplers[0].step_size"),
            (GAUSS2, {"kernel": {"bandwidth": float("inf"), "bandwidth_mode": "fixed"}}, {},
             "samplers[0].kernel.bandwidth"),
            (GAUSS2, {"name": "repulsive_adam", "stabilizer": float("inf")}, {},
             "samplers[0].stabilizer"),
            (GAUSS2, {"kernel": {"bandwidth": float("nan")}}, {}, "samplers[0].kernel.bandwidth"),
        ],
        ids=["gamma", "beta1", "bandwidth", "init_mean", "dim", "scale_convention",
             "scale_zero", "scale_negative", "stabilizer", "sgld_beta1", "svgd_beta2",
             "sgld_stabilizer", "constant_gamma", "repulsion_cutoff", "init_mean_item",
             "init_std_item", "init_std_negative", "init_mean_nan", "init_std_inf",
             "step_size_inf", "bandwidth_inf", "stabilizer_inf",
             "median_bandwidth_nan"],
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

    @pytest.mark.parametrize(
        "scale, convention",
        [(float("inf"), "std"), (float("inf"), "var"), (1e-160, "std"), (1e-200, "std")],
        ids=["inf_std", "inf_var", "1e-160_std", "1e-200_std"],
    )
    def test_funnel_scale_without_finite_precision_exits_2(
        self, tmp_path, capsys, scale, convention
    ):
        # the funnel's first coordinate needs a finite positive precision 1/s1^2
        cfg = moe_config(tmp_path / "out")
        cfg["target"] = {"name": "funnel", "params": {"scale": scale, "scale_convention": convention}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "config error: scale: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("convention", ["std", "var"])
    @pytest.mark.parametrize("scale", [1e-150, 1e300])
    def test_funnel_scale_with_finite_precision_builds(self, scale, convention):
        assert targets.make_target("funnel", scale=scale, scale_convention=convention).dim == 2

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
            ({"samplers": [{"name": "svgd",
                            "kernel": {"bandwidth": -0.5, "bandwidth_mode": "fixed"}}]},
             "samplers[0].kernel.bandwidth"),
            ({"samplers": [{"name": "sgld", "particles": 0}]}, "samplers[0].particles"),
            ({"samplers": [{"name": "sgld", "particles": -3}]}, "samplers[0].particles"),
            ({"collection": {"burn_in": -1, "thin": 10}}, "collection.burn_in"),
            ({"collection": {"burn_in": 100, "thin": 0}}, "collection.thin"),
            ({"iterations": 0}, "iterations"),
            ({"iterations": -5}, "iterations"),
        ],
        ids=["step_size_negative", "step_size_zero", "kernel_bandwidth", "particles_zero",
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
         ({"kernel": {"bandwidth": -1.0, "bandwidth_mode": "fixed"}}, "kernel.bandwidth"),
         ({"beta2": 2.0}, "beta2")],
        ids=["step_size", "particles", "kernel_bandwidth", "beta2"],
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
            ({"samplers": [{"name": "repulsive_sgld", "repulsion_cutoff": 5.0}]},
             "$.samplers[0].repulsion_cutoff"),
        ],
        ids=["iterations", "particles", "seed", "thin", "repulsion_cutoff"],
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
        assert entry["schedule"]["enum"] == list(samplers.SCHEDULE_KINDS)
        assert entry["kernel"]["properties"]["bandwidth_mode"]["enum"] == list(
            kernels.BANDWIDTH_MODES
        )
        for kind in samplers.SCHEDULE_KINDS:
            samplers.StepSchedule(kind=kind)
        for mode in kernels.BANDWIDTH_MODES:
            kernels.KernelConfig(bandwidth_mode=mode)

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
        policy = samplers.CollectionPolicy(burn_in=100, thin=10)
        lines = ["# schema_version=1", "iteration,particle,z1,z2,z3,z4,z5"]
        for e in range(4):
            for p in range(3):
                coords = ",".join(format(v, ".17g") for v in per_particle[p, e])
                lines.append(f"{100 + (e + 1) * 10},{p},{coords}")
        assert "".join(_trajectory_csv(per_particle, policy)) == "\n".join(lines) + "\n"


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
