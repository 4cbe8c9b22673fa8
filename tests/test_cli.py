import json

import numpy as np
import pytest

from steinmc.cli import (
    BENCH_HEADER,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_FACTORIZATION,
    EXIT_OK,
    OUTPUT_DIR_ENV,
    main,
    validate_config,
)
from steinmc import kernels
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

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = moe_config(tmp_path / "ignored")
        del cfg["output_dir"]
        cfg_path = write_config(tmp_path, cfg)
        main(["run", "--config", cfg_path])
        assert list((tmp_path / "envout").glob("*.report.json"))


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

    def test_missing_file_exits_2(self, tmp_path):
        code = main(
            ["bnn", "--data", str(tmp_path / "none.csv"), "--target-column", "y"]
        )
        assert code == EXIT_CONFIG
