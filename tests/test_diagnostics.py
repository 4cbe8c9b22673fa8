import numpy as np
import pytest

from steinmc.diagnostics import ess, ess_multivariate, fp_residual, gelman_rubin, moment_error
from steinmc.targets import moe_exact_moment, std_gaussian


def ar1_chain(rho, n, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = rng.standard_normal(n) * np.sqrt(1 - rho**2)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innov[i]
    return x


class TestEss:
    def test_iid_draws_near_nominal(self):
        rng = np.random.default_rng(0)
        n = 10_000
        val = ess(rng.standard_normal(n))
        assert 0.8 * n <= val <= 1.2 * n

    def test_ar1_matches_closed_form(self):
        # closed form for an AR(1) chain: N (1 - rho) / (1 + rho)
        rho, n = 0.9, 100_000
        val = ess(ar1_chain(rho, n, seed=7))
        closed = n * (1 - rho) / (1 + rho)
        assert abs(val - closed) / closed < 0.2

    def test_constant_chain_is_nan(self):
        assert np.isnan(ess(np.ones(100)))

    def test_short_chain_is_nan(self):
        assert np.isnan(ess(np.arange(9.0)))
        assert np.isfinite(ess(np.arange(10.0)))

    def test_multivariate_is_nan_when_any_dimension_is(self):
        # a nan in any column, first or last, makes the minimum nan
        rng = np.random.default_rng(4)
        for const in (0, 2):
            samples = rng.standard_normal((50, 3))
            samples[:, const] = 1.0
            assert np.isnan(ess_multivariate(samples)), const

    def test_clamped_to_chain_length(self):
        rng = np.random.default_rng(1)
        assert ess(rng.standard_normal(64)) <= 64

    def test_heavier_autocorrelation_never_increases_ess(self):
        # matched-variance AR(1) sweep
        values = [ess(ar1_chain(rho, 50_000, seed=3)) for rho in (0.0, 0.5, 0.9, 0.97)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestGelmanRubin:
    def test_identical_chains(self):
        chain = np.sin(np.arange(200.0))
        chains = np.stack([chain] * 4)
        assert gelman_rubin(chains)[0] <= 1.0 + 1e-6

    def test_separated_chains_exceed_threshold(self):
        # two unit-variance chains centered at 0 and 10: pooled variance is
        # dominated by the mean gap, so the ratio is far above 1.1
        rng = np.random.default_rng(2)
        chains = np.stack([rng.standard_normal(500), 10 + rng.standard_normal(500)])
        assert gelman_rubin(chains)[0] > 1.1

    def test_convergent_independent_chains(self):
        rng = np.random.default_rng(3)
        chains = rng.standard_normal((4, 10_000))
        assert gelman_rubin(chains)[0] < 1.05

    def test_one_chain_or_short_chains_are_nan(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 100), (1, 100, 3), (2, 5), (4, 9, 2)):
            out = gelman_rubin(rng.standard_normal(shape))
            assert out.shape == (shape[2] if len(shape) == 3 else 1,)
            assert np.isnan(out).all(), shape

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"chains must have shape \(M, N\) or \(M, N, d\)"):
            gelman_rubin(np.zeros((2, 20, 1, 1)))

    def test_per_dimension_output(self):
        rng = np.random.default_rng(4)
        chains = rng.standard_normal((3, 200, 2))
        out = gelman_rubin(chains)
        assert out.shape == (2,)

    def test_bitwise_equal_to_per_dimension_loop(self):
        def reference(chains):
            m, n, d = chains.shape
            out = np.empty(d)
            for j in range(d):
                x = chains[:, :, j]
                b_over_n = float(np.var(x.mean(axis=1), ddof=1))
                w = float(np.mean(np.var(x, axis=1, ddof=1)))
                out[j] = float(np.sqrt(((n - 1) / n * w + b_over_n) / w))
            return out

        # every layout (contiguous chains, the runner's (N, M, d) array viewed
        # as (M, N, d), Fortran order) matches the loop over a contiguous copy
        rng = np.random.default_rng(6)
        for trial in range(300):
            m, n, d = (int(rng.integers(lo, hi)) for lo, hi in ((2, 60), (10, 200), (1, 12)))
            chains = rng.standard_normal((m, n, d)) * 10 * rng.random(d)
            chains += 100 * rng.standard_normal(d)
            if trial % 3 == 1:
                chains = np.ascontiguousarray(chains.transpose(1, 0, 2)).transpose(1, 0, 2)
            elif trial % 3 == 2:
                chains = np.asfortranarray(chains)
            expected = reference(np.ascontiguousarray(chains))
            assert gelman_rubin(chains).tobytes() == expected.tobytes()

    def test_independent_of_memory_layout(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n, m, d = int(rng.integers(10, 300)), int(rng.integers(2, 50)), int(rng.integers(1, 9))
            stack = rng.standard_normal((n, m, d)) * 10 + 100 * rng.standard_normal(d)
            view = stack.transpose(1, 0, 2)  # how the runner passes its chains
            copy = np.ascontiguousarray(view)
            assert gelman_rubin(view).tobytes() == gelman_rubin(copy).tobytes()

    def test_zero_within_chain_variance_in_one_dimension_is_all_nan(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((3, 50, 4))
        chains[:, :, 2] = np.arange(3.0)[:, None]
        out = gelman_rubin(chains)
        assert out.shape == (4,) and np.isnan(out).all()

    def test_rounding_level_within_chain_variance_is_nan(self):
        # constant chains plus a few ulps of jitter carry no sampling variance
        rng = np.random.default_rng(9)
        chains = np.array([-0.74, 0.74])[:, None] * (1 + 8e-16 * rng.standard_normal((2, 100)))
        assert np.all(np.var(chains, axis=1) > 0)
        assert np.isnan(gelman_rubin(chains)).all()
        # a small spread far from the origin is still sampling variance
        wide = 1e6 + 1e-6 * rng.standard_normal((2, 100))
        assert np.isfinite(gelman_rubin(wide)).all()

    @pytest.mark.parametrize("particles", [2, 3, 5])
    def test_converged_svgd_ensemble_reports_null_rhat(self, particles):
        # deterministic SVGD on N(0, 1) settles on a fixed point: its
        # particles are no chains, so the whole rhat field is null
        from steinmc import samplers, targets

        result = samplers.run(
            samplers.RunSpec(
                "svgd", n_particles=particles, iterations=3000,
                schedule=samplers.StepSchedule(eps0=0.05),
                policy=samplers.CollectionPolicy(burn_in=2000, thin=10),
            ),
            targets.make_target("gaussian", dim=1), 0,
        )
        assert np.ptp(result.per_particle[:, :, 0].mean(axis=1)) > 0.1
        assert result.rhat is None


class TestMomentError:
    def test_exact_samples_give_zero(self):
        samples = np.full((50, 1), 1.5)
        assert moment_error(samples, 1, [1.5]) == 0.0

    def test_moe_reference_value(self):
        assert moe_exact_moment(1) == pytest.approx(14 / 9, rel=1e-15)
        samples = np.array([[14 / 9]] * 20)
        assert moment_error(samples, 1, [moe_exact_moment(1)]) < 1e-15

    def test_vector_moments_sum_over_coordinates(self):
        samples = np.tile(np.array([[1.0, -2.0]]), (10, 1))
        assert moment_error(samples, 1, [0.0, 0.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moment_error(np.empty((0, 1)), 1, [0.0])


class TestFpResidual:
    def test_langevin_drift_is_stationary(self):
        t = std_gaussian(1)
        residual = fp_residual(t, lambda z: -z, 1.0, -6, 6, 2000)
        assert residual < 1e-4

    def test_noiseless_drift_is_not_stationary(self):
        t = std_gaussian(1)
        residual = fp_residual(t, lambda z: -z, 0.0, -6, 6, 2000)
        assert residual > 0.05

    def test_uniform_density_flat_interior(self):
        flat = std_gaussian(1)
        flat.log_density = lambda z: np.zeros(len(z))  # uniform on the grid
        residual = fp_residual(flat, lambda z: 0.0, 1.0, -1, 1, 500)
        assert residual < 1e-12

    def test_drift_called_once_on_the_grid(self):
        t = std_gaussian(1)
        calls = []

        def drift(z):
            calls.append(np.shape(z))
            return -z

        residual = fp_residual(t, drift, 1.0, -6, 6, 2000)
        assert calls == [(2000,)]
        assert residual == fp_residual(t, lambda z: -z, 1.0, -6, 6, 2000)

    def test_drift_of_wrong_shape_rejected(self):
        t = std_gaussian(1)
        with pytest.raises(ValueError, match="drift"):
            fp_residual(t, lambda z: -z[:, None], 1.0, -6, 6, 2000)
        with pytest.raises(ValueError, match="drift"):
            fp_residual(t, lambda z: np.zeros(3), 1.0, -6, 6, 2000)

    def test_second_order_convergence(self):
        t = std_gaussian(1)
        coarse = fp_residual(t, lambda z: -z, 1.0, -6, 6, 1000)
        fine = fp_residual(t, lambda z: -z, 1.0, -6, 6, 2000)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)

    def test_validation(self):
        t = std_gaussian(1)
        with pytest.raises(ValueError):
            fp_residual(t, lambda z: -z, -1.0, -6, 6, 2000)
        with pytest.raises(ValueError):
            fp_residual(t, lambda z: -z, 1.0, -6, 6, 50)

