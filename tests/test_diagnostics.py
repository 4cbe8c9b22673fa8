import numpy as np
import pytest

from steinmc.diagnostics import RunReport, ess, fp_residual, gelman_rubin, moment_error
from steinmc.errors import DegenerateChainError
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

    def test_constant_chain_rejected(self):
        with pytest.raises(DegenerateChainError):
            ess(np.ones(100))

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))

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

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ValueError):
            gelman_rubin(np.zeros((1, 100)))
        with pytest.raises(ValueError):
            gelman_rubin(np.zeros((2, 5)))

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

        # the loop's summation order follows the memory layout: contiguous
        # chains, the runner's (N, M, d) array viewed as (M, N, d), Fortran order
        rng = np.random.default_rng(6)
        for trial in range(300):
            m, n, d = (int(rng.integers(lo, hi)) for lo, hi in ((2, 60), (10, 200), (1, 12)))
            chains = rng.standard_normal((m, n, d)) * 10 * rng.random(d)
            chains += 100 * rng.standard_normal(d)
            if trial % 3 == 1:
                chains = np.ascontiguousarray(chains.transpose(1, 0, 2)).transpose(1, 0, 2)
            elif trial % 3 == 2:
                chains = np.asfortranarray(chains)
            assert gelman_rubin(chains).tobytes() == reference(chains).tobytes()

    def test_zero_within_chain_variance_in_one_dimension_raises(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((3, 50, 4))
        chains[:, :, 2] = np.arange(3.0)[:, None]
        with pytest.raises(DegenerateChainError):
            gelman_rubin(chains)


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
        flat.log_density = lambda z: 0.0  # uniform on the grid
        residual = fp_residual(flat, lambda z: 0.0, 1.0, -1, 1, 500)
        assert residual < 1e-12

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


class TestRunReport:
    def _report(self):
        return RunReport(
            ess=120.5,
            ess_per_second=40.0,
            rhat=np.array([1.01, 1.02]),
            moment_errors=[("mean", 0.1), ("second_moment", 0.2)],
            wall_clock=3.0,
            collected_count=500,
        )

    def test_json_round_trip(self):
        import json

        payload = json.loads(self._report().to_json())
        assert payload["schema_version"] == 1
        assert payload["ess"] == 120.5
        assert payload["err_mean"] == 0.1
        assert payload["rhat"] == [1.01, 1.02]
