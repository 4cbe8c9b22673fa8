import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmc import autodiff as ad
from steinmc import kernels
from steinmc.errors import ConfigError, FactorizationError
from steinmc.kernels import (
    KernelConfig,
    KernelMatrix,
    kernel_matrix,
    median_bandwidth,
    rbf,
    sample_repulsive_noise,
    squared_distances,
)

FIXED = KernelConfig(bandwidth=1.0, bandwidth_mode="fixed")


class TestKernelMatrix:
    def test_single_particle(self):
        km = kernel_matrix(np.array([[1.0, 2.0]]), FIXED)
        assert np.array_equal(km.entries, np.eye(1))
        assert np.array_equal(km.grad_terms, np.zeros((1, 2)))

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_rejected(self, value, row):
        z = np.random.default_rng(4).normal(size=(7, 2))
        z[row, 1] = value
        for cfg in (FIXED, KernelConfig()):
            with pytest.raises(ValueError, match="positions must be finite"):
                kernel_matrix(z, cfg)

    def test_one_dimensional_positions_rejected(self):
        with pytest.raises(ValueError, match="positions must be an L x d matrix"):
            kernel_matrix(np.zeros(3), FIXED)

    def test_two_identical_particles(self):
        z = np.array([[0.5, -0.5], [0.5, -0.5]])
        km = kernel_matrix(z, FIXED)
        assert np.array_equal(km.entries, np.ones((2, 2)))
        assert np.array_equal(km.grad_terms, np.zeros((2, 2)))

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(7, 3))
        km = kernel_matrix(z, KernelConfig())
        assert np.array_equal(km.entries, km.entries.T)
        assert np.array_equal(np.diag(km.entries), np.ones(7))
        assert np.all(km.entries > 0) and np.all(km.entries <= 1)

    def test_grad_terms_match_finite_differences(self):
        # oracle: central differences of sum_l k(z_l, z_i) in each z_l
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 3))
        h, step = 1.0, 1e-6
        km = kernel_matrix(z, FIXED)

        def pair_k(a, b):
            d = a - b
            return np.exp(-np.dot(d, d) / h)

        fd = np.zeros((5, 3))
        for i in range(5):
            for l in range(5):
                for c in range(3):
                    zp, zm = z[l].copy(), z[l].copy()
                    zp[c] += step
                    zm[c] -= step
                    fd[i, c] += (pair_k(zp, z[i]) - pair_k(zm, z[i])) / (2 * step)
        assert np.max(np.abs(fd - km.grad_terms)) / np.max(np.abs(fd)) < 1e-6

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        km = kernel_matrix(rng.normal(size=(6, 2)), KernelConfig())
        assert np.abs(km.grad_terms.sum(axis=0)).max() < 1e-12

    def test_pairwise_gradient_antisymmetry(self):
        # analytic gradient wrt the first argument flips sign when the
        # arguments swap roles
        rng = np.random.default_rng(5)
        h = 0.8
        for _ in range(25):
            a, b = rng.normal(size=(2, 4))
            k = np.exp(-np.dot(a - b, a - b) / h)
            grad_a = -(2.0 / h) * (a - b) * k
            grad_b = -(2.0 / h) * (b - a) * k
            np.testing.assert_allclose(grad_a, -grad_b, rtol=1e-14)

    def test_degenerate_median_falls_back(self):
        z = np.zeros((4, 2))
        km = kernel_matrix(z, KernelConfig(bandwidth_mode="median"))
        assert km.degenerate_bandwidth
        assert km.bandwidth == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_median_bandwidth_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 3))
        h0, _ = median_bandwidth(squared_distances(z))
        perm = rng.permutation(6)
        h1, _ = median_bandwidth(squared_distances(z[perm]))
        assert h0 == h1

    def test_bitwise_equal_to_median_and_symmetrized_form(self):
        # reference: np.median of the off-diagonal distances, and entries
        # symmetrized with a unit diagonal written back, on ensembles with
        # ties (rounded coordinates) and duplicated rows
        def reference(z, cfg):
            sq = squared_distances(z)
            n, degenerate, h = z.shape[0], False, cfg.bandwidth
            if cfg.bandwidth_mode == "median":
                med = float(np.median(sq[~np.eye(n, dtype=bool)])) if n > 1 else 0.0
                degenerate = med <= 0.0
                h = 1.0 if degenerate else med / np.log(n + 1.0)
            entries = np.exp(-sq / h)
            entries = 0.5 * (entries + entries.T)
            np.fill_diagonal(entries, 1.0)
            grad = (2.0 / h) * (z * entries.sum(axis=1)[:, None] - entries @ z)
            return entries, grad, h, degenerate

        rng = np.random.default_rng(11)
        for trial in range(300):
            n, d = int(rng.integers(1, 25)), int(rng.integers(1, 5))
            z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 3)
            if trial % 3 == 0:
                z = np.round(z, 1)
            if trial % 4 == 0:
                z[rng.integers(0, n, n // 2)] = z[0]
            if trial % 25 == 0:
                z[:] = z[0]
            for cfg in (KernelConfig(), FIXED):
                km = kernel_matrix(z, cfg)
                entries, grad, h, degenerate = reference(z, cfg)
                assert km.entries.tobytes() == entries.tobytes()
                assert km.grad_terms.tobytes() == grad.tobytes()
                assert (km.bandwidth, km.degenerate_bandwidth) == (h, degenerate)
            # any (n, n) matrix, not only a distance matrix, with tied entries
            sq = np.abs(np.round(rng.normal(size=(n, n)), int(rng.integers(0, 3))))
            med = float(np.median(sq[~np.eye(n, dtype=bool)])) if n > 1 else 0.0
            expected = (1.0, True) if med <= 0.0 else (med / np.log(n + 1.0), False)
            assert median_bandwidth(sq) == expected

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_factorizable_after_jitter_ladder(self, n, seed):
        # even clustered or coincident ensembles must admit a factorization
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 2)) * rng.choice([0.0, 1e-9, 1.0])
        km = kernel_matrix(z, KernelConfig())
        chol = kernels._jittered_cholesky(km.entries)
        assert np.all(np.isfinite(chol))


class TestRbf:
    """`rbf` is the one kernel code: numpy arrays and tape nodes alike."""

    @staticmethod
    def objective(z, weight, ops):
        # uses k through a non-symmetric weight and z directly, as the svgd
        # step does, so both the distance pullback and the z path are checked
        k, _, _ = rbf(z, KernelConfig(bandwidth=1.3, bandwidth_mode="fixed"), ops)
        return ops.reduce_sum(ops.matmul(weight * k, z) * z)

    @pytest.mark.parametrize("m,d", [(1, 2), (2, 1), (5, 2), (6, 4)])
    def test_tape_gradient_matches_finite_differences(self, m, d):
        rng = np.random.default_rng(10 * m + d)
        z0, weight = rng.normal(size=(m, d)), rng.normal(size=(m, m))
        z = ad.leaf(z0)
        ad.backward(self.objective(z, weight, ad))
        step, fd = 1e-6, np.zeros((m, d))
        for i in np.ndindex(m, d):
            up, down = z0.copy(), z0.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (
                self.objective(up, weight, ad.numpy_ops)
                - self.objective(down, weight, ad.numpy_ops)
            ) / (2 * step)
        np.testing.assert_allclose(z.grad, fd, rtol=1e-6, atol=1e-8)

    def test_duplicated_rows_get_finite_identical_pullbacks(self):
        rng = np.random.default_rng(31)
        z0 = rng.normal(size=(6, 3))
        z0[[2, 4]] = z0[0]
        for values in (z0, np.tile(z0[0], (6, 1))):  # the second is degenerate
            z = ad.leaf(values)
            k, h, degenerate = rbf(z, KernelConfig(), ad)
            assert degenerate == (h == 1.0)
            ad.backward(ad.reduce_sum(k * k))
            assert np.all(np.isfinite(z.grad))
            np.testing.assert_array_equal(z.grad[2], z.grad[0])
            np.testing.assert_array_equal(z.grad[4], z.grad[0])

    def test_tape_values_equal_numpy_values(self):
        rng = np.random.default_rng(32)
        for cfg in (KernelConfig(), FIXED):
            z = rng.normal(size=(9, 4))
            k, h, degenerate = rbf(z, cfg)
            tk, th, tdegenerate = rbf(ad.leaf(z), cfg, ad)
            assert (th, tdegenerate) == (h, degenerate)
            assert tk.value.tobytes() == k.tobytes()

    def test_kernel_matrix_bitwise_equal_to_direct_formulas(self):
        # the kernel and repulsion rows as written before kernel_drift existed
        rng = np.random.default_rng(33)
        shapes = [(1, 1), (1, 4), (2, 1), (10, 1), (100, 50)]
        shapes += [tuple(int(v) for v in rng.integers(1, 40, 2)) for _ in range(40)]
        for cfg in (KernelConfig(), KernelConfig(bandwidth=0.7, bandwidth_mode="fixed")):
            for n, d in shapes:
                z = rng.normal(size=(n, d))
                sq = squared_distances(z)
                h = median_bandwidth(sq)[0] if cfg.bandwidth_mode == "median" else 0.7
                entries = np.exp(-sq / h)
                grad = (2.0 / h) * (z * entries.sum(axis=1)[:, None] - entries @ z)
                km = kernel_matrix(z, cfg)
                assert km.bandwidth == h
                assert km.entries.tobytes() == entries.tobytes(), (n, d)
                assert km.grad_terms.tobytes() == grad.tobytes(), (n, d)


def difference_form(z):
    """Reference squared distances from the explicit (L, L, d) differences."""
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestSquaredDistances:
    def test_bitwise_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(21)
        shapes = [(1, 1), (1, 5), (2, 1), (7, 1), (5, 3), (20, 2), (33, 50), (100, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 80, 2)) for _ in range(60)]
        for trial, (n, d) in enumerate(shapes):
            z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
            if trial % 3 == 1:
                z = np.asfortranarray(z)
            elif trial % 3 == 2:
                z = np.repeat(z, 2, axis=1)[:, ::2]  # strided view
            sq = squared_distances(z)
            assert sq.shape == (n, n)
            assert np.array_equal(sq, sq.T), (n, d)
            assert np.all(np.diag(sq) == 0.0), (n, d)
            assert np.all(sq >= 0.0), (n, d)

    def test_duplicated_rows_are_exactly_zero(self):
        rng = np.random.default_rng(22)
        for trial in range(200):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 60))
            z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
            z += 1e4 * (trial % 2)
            copies = rng.integers(0, n, max(1, n // 3))
            z[copies] = z[0]
            same = np.all(z[:, None, :] == z[None, :, :], axis=-1)
            sq = squared_distances(z)
            assert np.all(sq[same] == 0.0)
            assert np.all(sq[~same] > 0.0)

    def test_coincident_ensemble_sets_degenerate_bandwidth(self):
        rng = np.random.default_rng(23)
        for n, d in ((2, 1), (10, 1), (20, 301), (100, 50)):
            z = np.tile(rng.normal(size=d) * 3.0 + 7.0, (n, 1))
            assert np.all(squared_distances(z) == 0.0)
            km = kernel_matrix(z, KernelConfig())
            assert km.degenerate_bandwidth and km.bandwidth == 1.0

    def test_agrees_with_difference_form(self):
        rng = np.random.default_rng(24)
        cases = []
        for _ in range(100):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 60))
            cases.append(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4))
        # an ensemble far from the origin: every pair cancels in Gram form
        cases.append(1e4 + rng.normal(size=(100, 50)))
        cases.append(1e4 + rng.normal(size=(20, 2)))
        # one pair 1e-7 apart among well-separated particles
        close = rng.normal(size=(10, 3))
        close[1] = close[0] + 1e-7 * np.array([1.0, -2.0, 0.5])
        cases.append(close)
        for z in cases:
            ref = difference_form(z)
            sq = squared_distances(z)
            off = ref > 0
            assert np.array_equal(sq == 0.0, ~off)
            rel = np.abs(sq[off] - ref[off]) / ref[off]
            assert rel.max(initial=0.0) < 1e-8, z.shape


class TestRepulsiveNoise:
    def test_identity_kernel_empirical_covariance(self):
        # oracle: empirical covariance over many draws approaches
        # (2 eps / L) K (x) I_d
        rng = np.random.default_rng(6)
        n, d, eps = 4, 2, 0.3
        km = kernel_matrix(np.array([[9.0, 0.0], [-9.0, 0.0], [0.0, 9.0], [0.0, -9.0]]), FIXED)
        draws = np.stack(
            [sample_repulsive_noise(km, eps, rng) for _ in range(100_000)]
        )
        target = 2 * eps / n * km.entries
        for j in range(d):
            emp = np.cov(draws[:, :, j].T, ddof=1)
            rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
            assert rel < 0.05

    def test_general_kernel_empirical_covariance(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(5, 3))
        km = kernel_matrix(pos, KernelConfig())
        eps = 0.12
        draws = np.stack(
            [sample_repulsive_noise(km, eps, rng) for _ in range(100_000)]
        )
        target = 2 * eps / 5 * km.entries
        for j in range(3):
            emp = np.cov(draws[:, :, j].T, ddof=1)
            rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
            assert rel < 0.05

    def test_noise_scales_with_eps(self):
        rng = np.random.default_rng(8)
        km = kernel_matrix(rng.normal(size=(3, 2)), KernelConfig())
        small = sample_repulsive_noise(km, 1e-12, np.random.default_rng(0))
        assert np.max(np.abs(small)) < 1e-4

    def test_coincident_particles_share_noise(self):
        km = kernel_matrix(np.zeros((4, 2)), KernelConfig())
        noise = sample_repulsive_noise(km, 0.5, np.random.default_rng(9))
        # rank-1 covariance: every particle receives the same vector
        np.testing.assert_allclose(noise, np.broadcast_to(noise[0], noise.shape), atol=1e-4)

    def test_eps_must_be_positive(self):
        km = kernel_matrix(np.zeros((1, 1)), FIXED)
        with pytest.raises(ValueError):
            sample_repulsive_noise(km, 0.0, np.random.default_rng(0))

    def test_factorization_failure_reports_jitter_ladder(self):
        bad = KernelMatrix(
            entries=np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            grad_terms=np.zeros((2, 1)),
            bandwidth=1.0,
        )
        with pytest.raises(FactorizationError) as exc:
            sample_repulsive_noise(bad, 0.1, np.random.default_rng(0))
        # the ladder is the only source of jitters: from none up to 1e-4
        assert exc.value.jitters == kernels._JITTER_LADDER
        assert exc.value.jitters[0] == 0.0 and exc.value.jitters[-1] == 1e-4


class TestKernelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=0.0, bandwidth_mode="fixed")
        with pytest.raises(ValueError):
            KernelConfig(bandwidth_mode="nope")

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_numbers_rejected(self, value):
        for mode in ("fixed", "median"):  # checked also where the median ignores it
            with pytest.raises(ConfigError) as exc:
                KernelConfig(bandwidth=value, bandwidth_mode=mode)
            assert exc.value.field == "bandwidth"
