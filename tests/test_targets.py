import numpy as np
import pytest
from scipy import integrate

from steinmc import autodiff as ad
from steinmc.errors import ConfigError
from steinmc.targets import (
    TargetModel,
    audit_gradient,
    finite_difference_grad,
    funnel,
    make_target,
    mixture_of_exponentials,
    moe_exact_moment,
    mog_grid,
    std_gaussian,
)

# L = 20 is the benchmark's mog ensemble; together at least as many points as
# the one-point-at-a-time checks these replace
BATCH_SIZES = (1, 7, 20)


def batched_rows_and_differences(t, points):
    """One batched gradient call on (L, d) points, and per-row central differences."""
    grads = t.grad_log_density(points)
    assert grads.shape == points.shape
    return grads, finite_difference_grad(t.log_density, points)


class TestStdGaussian:
    def test_gradient_at_mode(self):
        t = std_gaussian(3)
        np.testing.assert_array_equal(
            t.grad_log_density(np.zeros((1, 3))), np.zeros((1, 3))
        )

    def test_gradient_is_linear(self):
        t = std_gaussian(2)
        np.testing.assert_array_equal(
            t.grad_log_density(np.array([[3.0, 3.0], [1.0, -2.0]])),
            np.array([[-3.0, -3.0], [-1.0, 2.0]]),
        )

    def test_gradient_matches_finite_differences(self):
        t = std_gaussian(3)
        rng = np.random.default_rng(0)
        for n in BATCH_SIZES:
            grads, fd = batched_rows_and_differences(t, rng.normal(size=(n, 3)))
            np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-8)

    def test_mean_of_exact_draws(self):
        # direct sampling oracle
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((100_000, 2))
        assert np.all(np.abs(draws.mean(axis=0)) < 0.01)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            std_gaussian(0)


class TestMixtureOfExponentials:
    def test_exact_first_moment(self):
        assert moe_exact_moment(1) == pytest.approx(14.0 / 9.0, rel=1e-15)

    def test_exact_second_moment(self):
        # w1 * 2/rate1^2 + w2 * 2/rate2^2
        expected = (1 / 3) * 2 / 1.5**2 + (2 / 3) * 2 / 0.5**2
        assert moe_exact_moment(2) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(5.6296296296, rel=1e-9)

    def test_density_integrates_to_one(self):
        # quadrature oracle over the log-space density
        t = mixture_of_exponentials()
        val, err = integrate.quad(
            lambda y: np.exp(t.log_density(np.array([[y]]))[0]), -20, 10, limit=200
        )
        assert abs(val - 1.0) < 1e-6

    def test_moment_transform_is_exp(self):
        t = mixture_of_exponentials()
        np.testing.assert_allclose(t.moment_transform(np.array([0.0, 1.0])), [1.0, np.e])

    def test_gradient_matches_finite_differences(self):
        t = mixture_of_exponentials()
        rng = np.random.default_rng(1)
        for n in BATCH_SIZES:
            y = rng.normal(scale=1.5, size=(n, 1))
            grads, fd = batched_rows_and_differences(t, y)
            np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-8)


class TestMogGrid:
    def test_mean_is_origin(self):
        t = mog_grid()
        assert [spec for spec in t.reference_moments if spec.label == "mean"][0].exact.tolist() == [0.0, 0.0]

    def test_gradient_vanishes_at_center_by_symmetry(self):
        t = mog_grid()
        np.testing.assert_allclose(
            t.grad_log_density(np.zeros((1, 2))), np.zeros((1, 2)), atol=1e-12
        )

    def test_second_moment_closed_form(self):
        # mixture moment oracle: component variance + mean of squared centers
        t = mog_grid()
        second = [s for s in t.reference_moments if s.label == "second_moment"][0]
        centers_sq = np.mean([c**2 for c in (-2.0, 0.0, 2.0) for _ in range(3)])
        assert second.exact[0] == pytest.approx(0.1 + centers_sq, rel=1e-12)
        assert second.exact[0] == pytest.approx(2.766666667, rel=1e-9)

    def test_density_integrates_to_one(self):
        t = mog_grid()
        val, _ = integrate.dblquad(
            lambda y, x: np.exp(t.log_density(np.array([[x, y]]))[0]),
            -6, 6, lambda x: -6, lambda x: 6, epsabs=1e-8,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        t = mog_grid()
        rng = np.random.default_rng(2)
        for n in BATCH_SIZES:
            z = rng.normal(scale=2.0, size=(n, 2))
            grads, fd = batched_rows_and_differences(t, z)
            np.testing.assert_allclose(grads, fd, rtol=1e-4, atol=1e-6)


class TestFunnel:
    def test_second_coordinate_gradient_zero_on_axis(self):
        t = funnel()
        g = t.grad_log_density(np.array([[0.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(g[:, 1], [0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        t = funnel()
        rng = np.random.default_rng(3)
        for n in BATCH_SIZES:
            grads, fd = batched_rows_and_differences(t, rng.normal(size=(n, 2)))
            for row, fd_row in zip(grads, fd):
                scale = max(1.0, np.max(np.abs(fd_row)))
                assert np.max(np.abs(row - fd_row)) / scale < 1e-5

    def test_log_density_decomposes_into_two_gaussians(self):
        # independent densities from scipy; conditional scale is exp(z1)
        from scipy import stats

        t = funnel()
        rng = np.random.default_rng(5)
        for _ in range(20):
            z1, z2 = rng.normal(size=2) * [1.5, 3.0]
            expected = stats.norm.logpdf(z1, scale=1.35) + stats.norm.logpdf(
                z2, scale=np.exp(z1)
            )
            assert t.log_density(np.array([[z1, z2]]))[0] == pytest.approx(expected, rel=1e-12)


class TestRegistry:
    def test_make_target_dispatch(self):
        assert make_target("funnel").name == "funnel"
        with pytest.raises(ValueError):
            make_target("unknown")

    def test_batch_gradient_is_no_constructor_field(self):
        assert TargetModel.grad_log_density_batch is None
        assert make_target("moe").grad_log_density_batch is None
        with pytest.raises(TypeError):
            TargetModel(
                name="x", dim=1, log_density=None, grad_log_density=None,
                grad_log_density_batch=None,
            )

    def test_audit_rejects_wrong_gradient(self):
        bad = TargetModel(
            name="broken",
            dim=1,
            log_density=lambda z: -0.5 * z[:, 0] ** 2,
            grad_log_density=lambda z: np.asarray(z),  # sign flipped
        )
        with pytest.raises(AssertionError):
            audit_gradient(bad, np.array([[1.0]]))

    def test_audit_rejects_nan_log_density(self):
        # a NaN error compares False against the tolerance; it must still fail
        nan = TargetModel(
            name="nan",
            dim=2,
            log_density=lambda z: np.full(len(z), np.nan),
            grad_log_density=lambda z: -np.asarray(z),
        )
        with pytest.raises(AssertionError, match="rel err nan"):
            audit_gradient(nan, np.random.default_rng(0).normal(size=(4, 2)))

    def test_audit_applies_the_score_shape_rule(self):
        # wrongly shaped scores fail as check_scores states it, not by an audit rule of its own
        narrow = TargetModel(
            name="narrow",
            dim=2,
            log_density=lambda z: -0.5 * np.sum(z * z, axis=1),
            grad_log_density=lambda z: -np.asarray(z)[:, :1],
        )
        with pytest.raises(ConfigError) as exc:
            audit_gradient(narrow, np.random.default_rng(0).normal(size=(4, 2)))
        assert exc.value.field == "target"


def reference_scores(name, z):
    """Reference: each score in plain numpy, in the order of operations that
    the bench-synthetic, run and ensemble artifacts depend on."""
    if name == "gaussian":
        return -np.asarray(z, dtype=float)
    if name == "moe":
        log_w, rates = np.log(np.array([1.0 / 3.0, 2.0 / 3.0])), np.array([1.5, 0.5])
        z = np.exp(z)
        terms = log_w + np.log(rates) - rates * z
        w = np.exp(terms - np.max(terms, axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return 1.0 - z * (w @ rates)[:, None]
    centers = np.array([(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 0.0, 2.0)])
    diff = z[:, None, :] - centers
    logs = -0.5 * np.sum(diff * diff, axis=2) / 0.1 - np.log(2.0 * np.pi) - np.log(0.1)
    w = np.exp(logs - np.max(logs, axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return -(z - w @ centers) / 0.1


class TestOneDefinition:
    @pytest.mark.parametrize("n", [1, 10, 20, 100])
    @pytest.mark.parametrize("name, scale", [("gaussian", 1.0), ("moe", 1.5), ("mog", 2.0)])
    def test_numpy_scores_bitwise_equal_reference(self, name, scale, n):
        t = make_target(name, dim=50) if name == "gaussian" else make_target(name)
        rng = np.random.default_rng([n, t.dim])
        for _ in range(50):
            z = rng.normal(scale=scale, size=(n, t.dim))
            np.testing.assert_array_equal(t.grad_log_density(z), reference_scores(name, z))

    @pytest.mark.parametrize("name", ["gaussian", "moe", "mog", "funnel"])
    def test_tape_values_match_numpy(self, name):
        t = make_target(name, dim=3) if name == "gaussian" else make_target(name)
        z = np.random.default_rng(0).normal(size=(6, t.dim))
        node = ad.leaf(z)
        np.testing.assert_allclose(t.log_density(node, ad).value, t.log_density(z), rtol=1e-15)
        np.testing.assert_allclose(
            t.grad_log_density(node, ad).value, t.grad_log_density(z), rtol=1e-15, atol=1e-15
        )

    @pytest.mark.parametrize("name", ["gaussian", "moe", "mog", "funnel"])
    def test_tape_log_density_gradient_is_the_score(self, name):
        t = make_target(name, dim=3) if name == "gaussian" else make_target(name)
        z = np.random.default_rng(1).normal(size=(5, t.dim))
        node = ad.leaf(z)
        ad.backward(ad.reduce_sum(t.log_density(node, ad)))
        np.testing.assert_allclose(node.grad, t.grad_log_density(z), rtol=1e-12, atol=1e-12)
