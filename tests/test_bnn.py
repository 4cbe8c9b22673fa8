import warnings

import numpy as np
import pytest

from steinmc import cli
from steinmc.bnn import (
    _PREDICT_BLOCK, BnnPotential, load_arrays, load_csv, minibatch_target, predict,
)
from steinmc.errors import DivergenceError


def linear_data(n=500, p=4, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=p)
    x = rng.normal(size=(n, p))
    y = x @ w + noise * rng.standard_normal(n)
    return x, y


class TestDataset:
    def test_training_columns_standardized(self):
        x, y = linear_data(n=200)
        ds = load_arrays(x, y, split_fraction=0.9, seed=0)
        np.testing.assert_allclose(ds.features_train.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.features_train.std(axis=0), 1.0, rtol=1e-12)
        assert abs(ds.targets_train.mean()) < 1e-12

    def test_split_sizes(self):
        x, y = linear_data(n=100)
        ds = load_arrays(x, y, split_fraction=0.9, seed=0)
        assert ds.n_train == 90
        assert ds.features_test.shape[0] == 10

    def test_same_seed_same_split(self):
        x, y = linear_data(n=80)
        a = load_arrays(x, y, seed=3)
        b = load_arrays(x, y, seed=3)
        np.testing.assert_array_equal(a.features_train, b.features_train)
        np.testing.assert_array_equal(a.targets_test, b.targets_test)

    def test_standardization_round_trip(self):
        x, y = linear_data(n=60)
        ds = load_arrays(x, y, seed=1)
        standardized = (y - ds.target_mean) / ds.target_std
        np.testing.assert_allclose(ds.destandardize_targets(standardized), y, atol=1e-10)

    def test_zero_variance_column_dropped_with_warning(self):
        x, y = linear_data(n=50)
        x = np.hstack([x, np.ones((50, 1))])
        with pytest.warns(UserWarning):
            ds = load_arrays(x, y, seed=0)
        assert ds.n_features == 4

    def test_csv_round_trip(self, tmp_path):
        x, y = linear_data(n=40, p=2)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("a,b,target\n")
            for row, t in zip(x, y):
                fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(t)!r}\n")
        ds = load_csv(path, "target", seed=0)
        direct = load_arrays(x, y, seed=0, name="data")
        np.testing.assert_allclose(ds.features_train, direct.features_train, rtol=1e-15)
        assert ds.name == "data"

    def test_csv_parse_error_names_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,target\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "target")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="target"):
            load_csv(path, "target")

    def test_too_few_rows(self):
        x, y = linear_data(n=10)
        with pytest.raises(ValueError):
            load_arrays(x, y)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_split_fraction_inside_unit_interval(self, fraction):
        x, y = linear_data(n=30)
        with pytest.raises(ValueError, match=r"split_fraction must be in \(0, 1\)"):
            load_arrays(x, y, split_fraction=fraction)


def write_table(path, rows, header="a,b,y"):
    """A CSV with `header` and one line per row of cells (strings or floats)."""
    lines = [header] if header is not None else []
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("".join(line + "\n" for line in lines))
    return path


def table_rows(n=30):
    x, y = linear_data(n=n, p=2)
    return [[repr(float(a)), repr(float(b)), repr(float(t))] for (a, b), t in zip(x, y)]


class TestMalformedTables:
    """Each malformed table raises one ValueError naming the problem, with no
    numpy warning on the way."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_missing_header(self, tmp_path):
        with pytest.raises(ValueError, match="missing header row"):
            load_csv(write_table(tmp_path / "t.csv", [], header=None), "y")

    @pytest.mark.parametrize("cells", [["1.0", "2.0", "3.0", "oops"], ["1.0", "2.0"]])
    def test_row_length_differs_from_header(self, tmp_path, cells):
        rows = table_rows()
        rows[4] = cells
        with pytest.raises(ValueError, match=f"row 6 has {len(cells)} cells, the header has 3"):
            load_csv(write_table(tmp_path / "t.csv", rows), "y")

    @pytest.mark.parametrize("column, cell", [(0, "nan"), (2, "inf"), (1, "-inf")])
    def test_non_finite_cell(self, tmp_path, column, cell):
        rows = table_rows()
        rows[7][column] = cell
        name = "aby"[column]
        with pytest.raises(ValueError, match=f"row 9, column '{name}': {cell}"):
            load_csv(write_table(tmp_path / "t.csv", rows), "y")

    def test_non_finite_array_value_names_index(self):
        x, y = linear_data(n=30)
        y[3] = np.nan
        with pytest.raises(ValueError, match="row 3, column 'target': nan"):
            load_arrays(x, y)
        y[3], x[5, 2] = 0.0, np.inf
        with pytest.raises(ValueError, match="row 5, column 2: inf"):
            load_arrays(x, y)

    @pytest.mark.parametrize("n", [0, 19])
    def test_fewer_than_20_data_rows(self, tmp_path, n):
        with pytest.raises(ValueError, match=f"need at least 20 data rows, got {n}"):
            load_csv(write_table(tmp_path / "t.csv", table_rows()[:n]), "y")

    def test_repeated_header_name(self, tmp_path):
        # a second "y" would otherwise be kept as a feature equal to the target
        with pytest.raises(ValueError, match="header repeats column 'y'"):
            load_csv(write_table(tmp_path / "t.csv", table_rows(), header="a,y,y"), "y")

    def test_no_varying_feature_column(self, tmp_path):
        rows = [["1.0", "2.0", t] for _, _, t in table_rows()]
        with pytest.raises(ValueError, match="no feature column varies"):
            load_csv(write_table(tmp_path / "t.csv", rows), "y")

    def test_constant_target_column(self, tmp_path):
        rows = [[a, b, "2.0"] for a, b, _ in table_rows()]
        with pytest.raises(ValueError, match="target column has zero variance"):
            load_csv(write_table(tmp_path / "t.csv", rows), "y")


class TestPotential:
    def test_parameter_count(self):
        pot = BnnPotential(input_dim=4, hidden_dim=50)
        assert pot.n_params == 50 * 5 + 50 + 1

    def test_unpack_rejects_wrong_length(self):
        pot = BnnPotential(input_dim=4, hidden_dim=50)
        with pytest.raises(ValueError, match="expected 301 parameters, got 302"):
            pot.unpack(np.zeros((3, 302)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pot = BnnPotential(input_dim=3, hidden_dim=7)
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        for _ in range(10):
            theta = rng.normal(size=pot.n_params) * 0.5
            grad = pot.potential_grad(theta, x, y, n_total=12)
            fd = np.zeros_like(theta)
            step = 1e-6
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += step
                tm[i] -= step
                fd[i] = (
                    pot.potential(tp, x, y, 12) - pot.potential(tm, x, y, 12)
                ) / (2 * step)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_dead_unit_contributes_no_data_gradient(self):
        pot = BnnPotential(input_dim=2, hidden_dim=3, prior_std=1e9)
        theta = np.zeros(pot.n_params)
        w1 = np.zeros((3, 2))
        b1 = np.array([-5.0, 1.0, 1.0])  # first unit dead for bounded inputs
        theta[: 3 * 2] = w1.ravel()
        theta[6:9] = b1
        theta[9:12] = np.array([1.0, 1.0, 1.0])
        x = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
        y = np.ones(20)
        grad = pot.potential_grad(theta, x, y, 20)
        w1_grad = grad[: 3 * 2].reshape(3, 2)
        np.testing.assert_allclose(w1_grad[0], 0.0, atol=1e-12)
        assert np.any(w1_grad[1:] != 0)

    def test_unit_at_exactly_zero_gets_no_data_gradient(self):
        # a zero w1 row and b1 entry hold the pre-activation at exactly 0 on
        # every row: the ReLU subgradient there is 0 (as autodiff.relu's)
        pot = BnnPotential(input_dim=3, hidden_dim=4)
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(2, pot.n_params))
        w1, b1, w2, _ = pot.unpack(theta)
        w1[:, 1] = 0.0
        b1[:, 1] = 0.0
        w2[:, 1] = 2.0
        x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
        grad = pot.potential_grad(theta, x, y, 300)
        g_w1, g_b1 = pot.unpack(grad)[:2]
        # the prior term is theta / prior_std^2, which is 0 on this unit
        np.testing.assert_array_equal(g_w1[:, 1], 0.0)
        np.testing.assert_array_equal(g_b1[:, 1], 0.0)
        assert np.all(g_b1[:, [0, 2, 3]] != 0)

    @pytest.mark.parametrize("single", [False, True])
    def test_inputs_left_unchanged(self, single):
        # the pass writes into its own buffers only; w1 is a view of theta
        pot = BnnPotential(input_dim=4, hidden_dim=50)
        rng = np.random.default_rng(6)
        theta = rng.normal(size=(20, pot.n_params))
        theta = theta[0] if single else theta
        x, y = rng.normal(size=(100, 4)), rng.normal(size=100)
        before = theta.copy(), x.copy(), y.copy()
        pot.forward(theta, x)
        pot.potential(theta, x, y, 450)
        pot.potential_grad(theta, x, y, 450)
        for now, then in zip((theta, x, y), before):
            np.testing.assert_array_equal(now, then)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"prior_std": np.nan}, "prior_std"),
            ({"prior_std": np.inf}, "prior_std"),
            ({"prior_std": 0.0}, "prior_std"),
            ({"noise_std": np.nan}, "noise_std"),
            ({"noise_std": np.inf}, "noise_std"),
            ({"noise_std": -0.5}, "noise_std"),
            ({"input_dim": 0}, "input_dim"),
            ({"hidden_dim": 0}, "hidden_dim"),
        ],
    )
    def test_invalid_size_or_scale_rejected(self, fields, name):
        with pytest.raises(ValueError, match=name):
            BnnPotential(**{"input_dim": 4, **fields})

    def test_minibatch_estimator_unbiased_over_partition(self):
        # exhaustive disjoint partition reproduces the full-data gradient
        rng = np.random.default_rng(2)
        pot = BnnPotential(input_dim=3, hidden_dim=5)
        x = rng.normal(size=(500, 3))
        y = rng.normal(size=500)
        theta = rng.normal(size=pot.n_params) * 0.3
        full = pot.potential_grad(theta, x, y, 500)
        parts = [
            pot.potential_grad(theta, x[i : i + 100], y[i : i + 100], 500)
            for i in range(0, 500, 100)
        ]
        avg = np.mean(parts, axis=0)
        scale = max(1.0, np.max(np.abs(full)))
        assert np.max(np.abs(avg - full)) / scale < 1e-12

    def test_zero_data_weight_leaves_prior_gradient(self):
        # n_total = 0 removes the data term entirely
        pot = BnnPotential(input_dim=2, hidden_dim=3, prior_std=0.5)
        theta = np.random.default_rng(3).normal(size=pot.n_params)
        grad = pot.potential_grad(theta, np.zeros((1, 2)), np.zeros(1), n_total=0)
        np.testing.assert_allclose(grad, theta / 0.25, rtol=1e-14)


def einsum_forward_and_grad(pot, theta, x, y, n_total):
    """Reference: the (K, B, h) einsum layout, for (K, P) theta."""
    w1, b1, w2, b2 = pot.unpack(theta)
    pre = np.einsum("khp,bp->kbh", w1, x) + b1[:, None, :]
    mask = pre > 0
    act = np.where(mask, pre, 0.0)
    out = np.einsum("kbh,kh->kb", act, w2) + b2[:, None]
    resid = n_total / x.shape[0] / pot.noise_std**2 * (out - y[None, :])
    g_act = resid[:, :, None] * w2[:, None, :] * mask
    grad = np.concatenate(
        [
            np.einsum("kbh,bp->khp", g_act, x).reshape(theta.shape[0], -1),
            g_act.sum(axis=1),
            np.einsum("kb,kbh->kh", resid, act),
            resid.sum(axis=1)[:, None],
        ],
        axis=1,
    )
    return out, grad + theta / pot.prior_std**2


class TestMatmulLayout:
    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("b", [1, 7, 100])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("h", [1, 50])
    def test_matches_einsum_reference(self, k, b, p, h):
        rng = np.random.default_rng([k, b, p, h])
        pot = BnnPotential(input_dim=p, hidden_dim=h, prior_std=0.8, noise_std=0.3)
        theta = rng.normal(size=(k, pot.n_params))
        x, y = rng.normal(size=(b, p)), rng.normal(size=b)
        out, grad = einsum_forward_and_grad(pot, theta, x, y, n_total=450)
        # rounding differs only in summation order: tolerance relative to
        # each array's scale, so near-cancelled entries do not dominate
        for new, ref in (
            (pot.forward(theta, x), out),
            (pot.potential_grad(theta, x, y, 450), grad),
        ):
            assert new.shape == ref.shape
            np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_overflow_is_left_to_the_finiteness_checks(self):
        # no numpy RuntimeWarning; the non-finite result reaches the callers
        pot = BnnPotential(input_dim=2, hidden_dim=3)
        theta = np.full((2, pot.n_params), 1e200)
        x, y = np.ones((4, 2)), np.zeros(4)
        assert not np.all(np.isfinite(pot.forward(theta, x)))
        assert not np.all(np.isfinite(pot.potential_grad(theta, x, y, 4)))

    def test_single_theta_path(self):
        rng = np.random.default_rng(4)
        pot = BnnPotential(input_dim=4, hidden_dim=50)
        theta = rng.normal(size=pot.n_params)
        x, y = rng.normal(size=(7, 4)), rng.normal(size=7)
        out, grad = einsum_forward_and_grad(pot, theta[None, :], x, y, n_total=450)
        new_out, new_grad = pot.forward(theta, x), pot.potential_grad(theta, x, y, 450)
        assert new_out.shape == (7,) and new_grad.shape == (pot.n_params,)
        np.testing.assert_allclose(new_out, out[0], rtol=1e-12, atol=1e-12 * np.abs(out).max())
        np.testing.assert_allclose(new_grad, grad[0], rtol=1e-12, atol=1e-12 * np.abs(grad).max())


class TestPredict:
    def _setup(self):
        x, y = linear_data(n=60, p=2, seed=4)
        ds = load_arrays(x, y, seed=0)
        pot = BnnPotential(input_dim=2, hidden_dim=4)
        return pot, ds

    def test_single_particle_mean_and_std(self):
        pot, ds = self._setup()
        theta = np.random.default_rng(5).normal(size=pot.n_params)
        mean, std, _ = predict(pot, theta, ds, ds.features_test)
        expected = ds.destandardize_targets(pot.forward(theta, ds.features_test))
        np.testing.assert_allclose(mean, expected, rtol=1e-12)
        np.testing.assert_allclose(std, pot.noise_std * ds.target_std, rtol=1e-12)

    def test_identical_particles_collapse(self):
        pot, ds = self._setup()
        theta = np.random.default_rng(6).normal(size=pot.n_params)
        particles = np.tile(theta, (5, 1))
        mean1, std1, ll1 = predict(pot, theta, ds, ds.features_test)
        mean5, std5, ll5 = predict(pot, particles, ds, ds.features_test)
        y = ds.destandardize_targets(ds.targets_test)
        np.testing.assert_allclose(mean1, mean5, rtol=1e-12)
        np.testing.assert_allclose(std1, std5, rtol=1e-12)
        np.testing.assert_allclose(ll1(y), ll5(y), rtol=1e-12)

    def test_blocked_forward_matches_one_pass_bitwise(self):
        # more particles than two blocks, the last one partial
        pot, ds = self._setup()
        particles = np.random.default_rng(8).normal(size=(2 * _PREDICT_BLOCK + 7, pot.n_params))
        mean, std, loglik = predict(pot, particles, ds, ds.features_test)
        y = ds.destandardize_targets(ds.targets_test)

        preds = ds.destandardize_targets(pot.forward(particles, ds.features_test))
        comp_std = pot.noise_std * ds.target_std
        z = (y[None, :] - preds) / comp_std
        logs = -0.5 * z * z - np.log(comp_std) - 0.5 * np.log(2.0 * np.pi)
        m = logs.max(axis=0)
        assert np.array_equal(mean, preds.mean(axis=0))
        assert np.array_equal(std, np.sqrt(comp_std**2 + preds.var(axis=0)))
        assert np.array_equal(loglik(y), m + np.log(np.mean(np.exp(logs - m), axis=0)))

    def test_mixture_log_likelihood_matches_direct_summation(self):
        # direct density-summation oracle, no log-sum-exp
        pot, ds = self._setup()
        particles = np.random.default_rng(7).normal(size=(6, pot.n_params)) * 0.5
        _, _, loglik = predict(pot, particles, ds, ds.features_test)
        y = ds.destandardize_targets(ds.targets_test)

        preds = ds.destandardize_targets(pot.forward(particles, ds.features_test))
        comp_std = pot.noise_std * ds.target_std
        dens = np.mean(
            np.exp(-0.5 * ((y[None, :] - preds) / comp_std) ** 2)
            / (comp_std * np.sqrt(2 * np.pi)),
            axis=0,
        )
        np.testing.assert_allclose(loglik(y), np.log(dens), rtol=1e-12)


class TestBnnTarget:
    def test_score_is_negative_potential_gradient(self):
        x, y = linear_data(n=120, p=3, seed=8)
        ds = load_arrays(x, y, seed=0)
        pot = BnnPotential(input_dim=3, hidden_dim=4)
        target = minibatch_target(pot, ds, batch_size=50)
        theta = np.random.default_rng(9).normal(size=(3, pot.n_params)) * 0.3
        # the first batch is the first batch_size training rows
        xs, ys = ds.features_train[:50], ds.targets_train[:50]
        np.testing.assert_allclose(
            target.grad_log_density(theta),
            -pot.potential_grad(theta, xs, ys, ds.n_train),
            rtol=1e-14,
        )

    def test_batch_is_at_most_the_training_rows(self):
        ds = load_arrays(*linear_data(n=40, p=2), seed=0)
        pot = BnnPotential(input_dim=2, hidden_dim=3)
        target = minibatch_target(pot, ds, batch_size=500)
        theta = np.random.default_rng(2).normal(size=(2, pot.n_params))
        full = pot.potential(theta, ds.features_train, ds.targets_train, ds.n_train)
        np.testing.assert_array_equal(target.log_density(theta), -full)
        target.resample_batch(np.random.default_rng(0))
        np.testing.assert_allclose(target.log_density(theta), -full, rtol=1e-12)

    def test_log_density_is_one_batched_potential_call(self):
        x, y = linear_data(n=120, p=3, seed=8)
        ds = load_arrays(x, y, seed=0)
        pot = BnnPotential(input_dim=3, hidden_dim=4)
        target = minibatch_target(pot, ds, batch_size=50)
        theta = np.random.default_rng(9).normal(size=(5, pot.n_params)) * 0.3
        xs, ys = ds.features_train[:50], ds.targets_train[:50]
        batched = pot.potential(theta, xs, ys, ds.n_train)
        assert batched.shape == (5,)
        single = [pot.potential(t, xs, ys, ds.n_train) for t in theta]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(batched, single, rtol=1e-14)
        np.testing.assert_array_equal(target.log_density(theta), -batched)

    def test_resample_batch_changes_batch(self):
        x, y = linear_data(n=120, p=3, seed=8)
        ds = load_arrays(x, y, seed=0)
        pot = BnnPotential(input_dim=3)
        target = minibatch_target(pot, ds, batch_size=50)
        target.resample_batch(np.random.default_rng(1))
        # the same draw on an identically seeded Generator
        batch = np.random.default_rng(1).choice(ds.n_train, size=50, replace=False)
        assert not np.array_equal(batch, np.arange(50))
        assert len(set(batch.tolist())) == 50
        theta = np.random.default_rng(9).normal(size=(3, pot.n_params)) * 0.3
        xs, ys = ds.features_train[batch], ds.targets_train[batch]
        np.testing.assert_allclose(
            target.grad_log_density(theta),
            -pot.potential_grad(theta, xs, ys, ds.n_train),
            rtol=1e-14,
        )


class TestEvaluate:
    def test_linear_dataset_recovery(self, monkeypatch):
        # generate-and-fit oracle: a sampled ensemble must track a noiseless
        # linear map to within a small multiple of the injected noise
        x, y = linear_data(n=500, p=4, noise=0.1, seed=0)
        ds = load_arrays(x, y, split_fraction=0.9, seed=0, name="linear")
        short = {**cli.BNN_PROTOCOL, "iterations": 800, "burn_in": 400}
        monkeypatch.setattr(cli, "BNN_PROTOCOL", short)
        report = cli.bnn_report(ds, "sgld", seed=0)
        assert report["rmse"] < 2 * 0.1
        assert np.isfinite(report["test_ll"])


class TestBnnReport:
    @pytest.mark.parametrize("sampler", ["sgld", "repulsive_sgld"])
    def test_divergence_names_iteration_and_snapshot(self, sampler, monkeypatch):
        # a per-particle step of 0.1 (step_scale 45 at 450 training rows), far
        # above the protocol's 1e-4, blows the network weights up within a
        # few iterations; the first non-finite value is a score
        x, y = linear_data()
        ds = load_arrays(x, y, split_fraction=0.9, seed=0, name="linear")
        protocol = {"step_scale": 45.0, "iterations": 50, "burn_in": 10}
        monkeypatch.setattr(cli, "BNN_PROTOCOL", {**cli.BNN_PROTOCOL, **protocol})
        with pytest.raises(DivergenceError) as exc:
            cli.bnn_report(ds, sampler, seed=0)
        assert exc.value.iteration >= 1
        assert exc.value.snapshot is not None
        assert np.all(np.isfinite(exc.value.snapshot))

    @pytest.mark.parametrize("sampler", ["sgld", "repulsive_sgld"])
    def test_step_scales_with_training_rows(self, sampler, monkeypatch):
        # the minibatch score grows with the N training rows; a fixed 1e-4
        # step diverges within ten iterations at 1,000 rows, step_scale / N
        # does not
        x, y = linear_data(n=1000)
        ds = load_arrays(x, y, split_fraction=0.9, seed=0, name="linear")
        short = {**cli.BNN_PROTOCOL, "iterations": 100, "burn_in": 50}
        monkeypatch.setattr(cli, "BNN_PROTOCOL", short)
        report = cli.bnn_report(ds, sampler, seed=0)
        assert np.isfinite(report["rmse"])
        assert report["config"]["step_size"] == report["config"]["step_scale"] / 900
        monkeypatch.setattr(cli, "BNN_PROTOCOL", {**short, "step_scale": 1e-4 * ds.n_train})
        with pytest.raises(DivergenceError):
            cli.bnn_report(ds, sampler, seed=0)
