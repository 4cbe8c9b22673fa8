import json
import tracemalloc

import numpy as np
import pytest

from steinmc.cli import (
    BENCH_HEADER,
    CONFIG_SCHEMA,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_FACTORIZATION,
    EXIT_OK,
    OUTPUT_DIR_ENV,
    _fmt,
    _trajectory_csv,
    main,
    validate_config,
)
from steinmc import kernels, samplers, targets
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
        def fail(matrix, base_jitter):
            raise FactorizationError([base_jitter, 1e-4])

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
        assert payload["rhat"] == [None]
        assert payload["ess"] is None

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
            (GAUSS2, {"kernel": {"jitter": float("inf")}}, {}, "samplers[0].kernel.jitter"),
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
             "step_size_inf", "jitter_inf", "bandwidth_inf", "stabilizer_inf",
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
        "change, key",
        [
            ({"samplers": [{"name": "sgld", "step_size": -1}]}, "samplers[0].step_size"),
            ({"samplers": [{"name": "sgld", "step_size": 0}]}, "samplers[0].step_size"),
            ({"samplers": [{"name": "svgd", "kernel": {"jitter": -1e-6}}]},
             "samplers[0].kernel.jitter"),
            ({"samplers": [{"name": "sgld", "particles": 0}]}, "samplers[0].particles"),
            ({"samplers": [{"name": "sgld", "particles": -3}]}, "samplers[0].particles"),
            ({"collection": {"burn_in": -1, "thin": 10}}, "collection.burn_in"),
            ({"collection": {"burn_in": 100, "thin": 0}}, "collection.thin"),
            ({"iterations": 0}, "iterations"),
            ({"iterations": -5}, "iterations"),
        ],
        ids=["step_size_negative", "step_size_zero", "jitter", "particles_zero",
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
         ({"kernel": {"jitter": -1.0}}, "kernel.jitter"), ({"beta2": 2.0}, "beta2")],
        ids=["step_size", "particles", "jitter", "beta2"],
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
                coords = ",".join(_fmt(v) for v in per_particle[p, e])
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

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", "missing header row"),
            ("f1,y\n", "need at least 20 data rows, got 0"),
            ("f1,y\n1.0,2.0,x\n", "row 2 has 3 cells"),
            ("f1,y\n" + "1.0,2.0\n" * 19 + "nan,2.0\n", "row 21, column 'f1': nan"),
            ("f1,y\n" + "1.0,2.0\n1.0,3.0\n" * 10, "no feature column varies"),
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
