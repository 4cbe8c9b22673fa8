import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from steinmc import kernels, samplers
from steinmc.errors import ConfigError, DivergenceError, check_finite
from steinmc.kernels import KernelConfig
from steinmc.samplers import (
    CollectionPolicy,
    MomentumState,
    ParticleEnsemble,
    StepSchedule,
    momentum_block_matrix,
    repulsive_adam_step,
    repulsive_sgdm_step,
    repulsive_sgld_step,
    sgld_step,
    svgd_direction,
    svgd_step,
)
from steinmc.targets import TargetModel, mixture_of_exponentials, std_gaussian

FIXED = KernelConfig(bandwidth=1.0)


def fixed_kernel(ens):
    """The fixed-bandwidth kernel of an ensemble's current positions."""
    return kernels.kernel_matrix(ens.positions, FIXED)


def linear_potential(dim, slope=1.0):
    """Improper target with constant H-gradient `slope` (score = -slope)."""
    return TargetModel(
        name="linear",
        dim=dim,
        log_density=lambda z: float(-slope * np.sum(z)),
        grad_log_density=lambda z: np.full(np.shape(z), -slope),
    )


def hand_loop(kind, t, n, iterations, eps, seed):
    """The positions after each of `iterations` public steps of `kind`, (T, L, d).

    Draws in the runner's order (initial positions, then initial momenta)
    with the default kernel.
    """
    cfg = KernelConfig()
    rng = np.random.default_rng(seed)
    ens = ParticleEnsemble(rng.standard_normal((n, t.dim)))
    if kind == "repulsive_sgdm":
        mom = MomentumState(rng.standard_normal((n, t.dim)))
    elif kind == "repulsive_adam":
        mom = MomentumState(np.zeros((n, t.dim)), second_moments=np.zeros((n, t.dim)))
    kept = []
    for i in range(iterations):
        km = kernels.kernel_matrix(ens.positions, cfg)
        if kind == "sgld":
            ens = sgld_step(ens, t, eps, rng)
        elif kind == "svgd":
            ens = svgd_step(ens, t, km, eps)
        elif kind == "repulsive_sgld":
            ens = repulsive_sgld_step(ens, t, km, eps, rng)
        elif kind == "repulsive_sgdm":
            ens, mom = repulsive_sgdm_step(ens, mom, t, km, eps)
        else:
            ens, mom = repulsive_adam_step(ens, mom, t, km, eps, rng)
        kept.append(ens.positions)
    return np.stack(kept)


class TestSchedule:
    def test_constant(self):
        s = StepSchedule(eps0=0.3)
        assert s.eps(0) == s.eps(10**6) == 0.3

    def test_decay_conditions(self):
        # divergent sum: partial sums grow like T^(1-gamma), so quadrupling T
        # multiplies the total by about 4^(1-gamma); convergent squared sum:
        # the tail contributes a vanishing fraction
        s = StepSchedule(eps0=1.0, gamma=0.6)
        eps = np.array([s.eps(t) for t in range(200_000)])
        total = eps.cumsum()
        assert total[-1] > 1.6 * total[len(eps) // 4]
        sq_tail = (eps[100_000:] ** 2).sum()
        assert sq_tail < 0.1 * (eps[:100_000] ** 2).sum()

    def test_gamma_alone_decays(self):
        assert StepSchedule(1.0, 0.6).eps(3) == 4**-0.6

    def test_gamma_validation(self):
        for gamma in (0.5, 1.5, 7.0, np.nan):
            with pytest.raises(ConfigError) as exc:
                StepSchedule(gamma=gamma)
            assert str(exc.value) == "gamma: must lie in (0.5, 1]"
        StepSchedule(gamma=1.0)
        StepSchedule()

    @pytest.mark.parametrize("eps0", [0.0, -1.0, np.inf, np.nan])
    def test_eps0_must_be_finite_and_positive(self, eps0):
        with pytest.raises(ConfigError) as exc:
            StepSchedule(eps0=eps0)
        assert exc.value.field == "eps0"


class TestCollectionPolicy:
    @staticmethod
    def kept(policy, total):
        """The iterations 1..total past burn-in whose distance from it is a
        multiple of thin, counted one by one."""
        return [t for t in range(1, total + 1)
                if t > policy.burn_in and (t - policy.burn_in) % policy.thin == 0]

    @pytest.mark.parametrize("burn_in, thin", [(5, 4), (7, 3), (1, 10), (0, 1), (0, 4)])
    def test_burn_in_need_not_be_a_multiple_of_thin(self, burn_in, thin):
        policy = CollectionPolicy(burn_in=burn_in, thin=thin)
        assert list(policy.iterations(23)) == self.kept(policy, 23)

    @pytest.mark.parametrize("total, expected", [
        (20, [9, 13, 17]), (21, [9, 13, 17, 21]), (22, [9, 13, 17, 21]), (23, [9, 13, 17, 21]),
        (24, [9, 13, 17, 21]), (25, [9, 13, 17, 21, 25]),
    ])
    def test_total_off_the_grid_keeps_the_iterations_up_to_it(self, total, expected):
        policy = CollectionPolicy(burn_in=5, thin=4)
        assert list(policy.iterations(total)) == expected == self.kept(policy, total)

    @pytest.mark.parametrize("total", [0, 5, 8])
    def test_empty_range_is_rejected_by_run_spec(self, total):
        policy = CollectionPolicy(burn_in=5, thin=4)
        assert len(policy.iterations(total)) == 0 == len(self.kept(policy, total))
        with pytest.raises(ConfigError) as exc:
            samplers.RunSpec("sgld", 2, total, StepSchedule(), policy)
        assert str(exc.value) == "iterations: must exceed burn_in by at least thin"
        samplers.RunSpec("sgld", 2, 9, StepSchedule(), policy)  # keeps iteration 9 alone


class TestParticleEnsemble:
    def test_one_dimensional_positions_rejected(self):
        with pytest.raises(ValueError, match="positions must be an L x d matrix"):
            ParticleEnsemble(np.zeros(3))


class TestSgldStep:
    def test_hand_evaluated_update(self):
        # z' = z - eps z + sqrt(2 eps) xi for the standard Gaussian
        t = std_gaussian(1)
        eps, seed = 0.1, 5
        xi = np.random.default_rng(seed).standard_normal((1, 1))
        stepped = sgld_step(
            ParticleEnsemble(np.array([[1.0]])), t, eps, np.random.default_rng(seed)
        )
        expected = 1.0 - eps * 1.0 + np.sqrt(2 * eps) * xi[0, 0]
        assert stepped.positions[0, 0] == pytest.approx(expected, rel=1e-15)

    def test_particles_do_not_interact(self):
        t = std_gaussian(2)
        z = np.array([[0.0, 0.0], [5.0, 5.0]])
        a = sgld_step(ParticleEnsemble(z), t, 0.05, np.random.default_rng(0))
        b = sgld_step(ParticleEnsemble(z[:1]), t, 0.05, np.random.default_rng(0))
        np.testing.assert_array_equal(a.positions[0], b.positions[0])

    def test_divergence_names_particle(self):
        bad = TargetModel(
            name="bad", dim=1,
            log_density=lambda z: 0.0,
            grad_log_density=lambda z: np.full(np.shape(z), np.nan),
        )
        with pytest.raises(DivergenceError) as exc:
            sgld_step(ParticleEnsemble(np.zeros((3, 1)), step_index=4), bad, 0.1,
                      np.random.default_rng(0))
        assert exc.value.particle == 0
        # the score is part of step 5; the ensemble it was taken at is the snapshot
        assert exc.value.iteration == 5
        np.testing.assert_array_equal(exc.value.snapshot, np.zeros((3, 1)))

    def test_score_shape_mismatch_names_target(self):
        flat = TargetModel(
            name="flat", dim=2,
            log_density=lambda z: 0.0,
            grad_log_density=lambda z: np.zeros(2),  # (d,) instead of (L, d)
        )
        with pytest.raises(ConfigError) as exc:
            sgld_step(ParticleEnsemble(np.zeros((3, 2))), flat, 0.1,
                      np.random.default_rng(0))
        assert exc.value.field == "target"
        assert "'flat'" in str(exc.value)


class TestSvgd:
    def test_single_particle_is_gradient_descent_direction(self):
        t = std_gaussian(2)
        ens = ParticleEnsemble(np.array([[2.0, -1.0]]))
        km = kernels.kernel_matrix(ens.positions, FIXED)
        direction = svgd_direction(ens, t, km)
        # H = ||z||^2 / 2, so the descent direction is z itself
        np.testing.assert_allclose(direction, ens.positions, rtol=1e-15)

    def test_coincident_particles_have_identical_rows(self):
        t = std_gaussian(2)
        z = np.tile(np.array([[0.7, 0.3]]), (2, 1))
        km = kernels.kernel_matrix(z, FIXED)
        direction = svgd_direction(ParticleEnsemble(z), t, km)
        np.testing.assert_array_equal(direction[0], direction[1])
        np.testing.assert_allclose(direction[0], np.array([0.7, 0.3]), rtol=1e-15)

    def test_matches_double_loop_reference(self):
        # naive O(L^2) oracle in score space
        rng = np.random.default_rng(3)
        z = rng.normal(size=(10, 3))
        t = std_gaussian(3)
        h = 1.0
        km = kernels.kernel_matrix(z, FIXED)
        direction = svgd_direction(ParticleEnsemble(z), t, km)

        ref = np.zeros_like(z)
        for i in range(10):
            acc = np.zeros(3)
            for l in range(10):
                diff = z[l] - z[i]
                k = np.exp(-np.dot(diff, diff) / h)
                score_l = -z[l]
                grad_k_first_arg = -(2.0 / h) * (z[l] - z[i]) * k
                acc += k * score_l + grad_k_first_arg
            ref[i] = -acc / 10
        rel = np.max(np.abs(direction - ref)) / np.max(np.abs(ref))
        assert rel < 1e-12

    def test_zero_direction_is_fixed_point(self):
        t = std_gaussian(1)
        ens = ParticleEnsemble(np.zeros((1, 1)))
        stepped = svgd_step(ens, t, fixed_kernel(ens), 0.5)
        np.testing.assert_array_equal(stepped.positions, ens.positions)

    def test_single_particle_converges_to_mode(self):
        t = std_gaussian(2)
        ens = ParticleEnsemble(np.array([[4.0, -3.0]]))
        for _ in range(300):
            ens = svgd_step(ens, t, fixed_kernel(ens), 0.1)
        assert np.max(np.abs(ens.positions)) < 1e-8


class TestRepulsiveSgld:
    def test_single_particle_reduces_to_sgld_bitwise(self):
        t = std_gaussian(3)
        z0 = np.array([[0.4, -1.0, 2.2]])
        a = ParticleEnsemble(z0.copy())
        b = ParticleEnsemble(z0.copy())
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        for _ in range(50):
            a = sgld_step(a, t, 0.01, rng_a)
            b = repulsive_sgld_step(b, t, kernels.kernel_matrix(b.positions, KernelConfig()), 0.01, rng_b)
        assert np.array_equal(a.positions, b.positions)

    def test_long_run_marginal_stds(self):
        res = samplers.run(
            samplers.RunSpec(
                "repulsive_sgld", n_particles=6, iterations=20_000,
                schedule=StepSchedule(eps0=6e-3), policy=CollectionPolicy(burn_in=1000, thin=2),
            ),
            std_gaussian(2), 1,
        )
        stds = res.samples.std(axis=0)
        assert np.all(stds > 0.85) and np.all(stds < 1.15)


class TestRepulsiveSgdm:
    def test_single_particle_momentum_dynamics(self):
        # L = 1, unit kernel: z' = z - eps m, m' = m + eps * (-grad H)... with
        # H-gradient accumulated positively: m' = m + eps * grad H... the
        # momentum absorbs the H-gradient so the pair rotates in phase space
        t = std_gaussian(1)
        z0, m0, eps = 1.3, -0.4, 0.01
        ens = ParticleEnsemble(np.array([[z0]]))
        mom = MomentumState(np.array([[m0]]))
        new_ens, new_mom = repulsive_sgdm_step(ens, mom, t, fixed_kernel(ens), eps)
        assert new_ens.positions[0, 0] == pytest.approx(z0 - eps * m0, rel=1e-15)
        # grad H = z for the standard Gaussian
        assert new_mom.momenta[0, 0] == pytest.approx(m0 + eps * z0, rel=1e-15)

    def test_energy_drift_is_second_order(self):
        # quadratic H: per-step energy change of the explicit-Euler pair is
        # exactly eps^2 * E
        t = std_gaussian(1)
        eps = 1e-3
        ens = ParticleEnsemble(np.array([[1.0]]))
        mom = MomentumState(np.array([[0.5]]))
        for _ in range(100):
            energy = 0.5 * ens.positions[0, 0] ** 2 + 0.5 * mom.momenta[0, 0] ** 2
            ens, mom = repulsive_sgdm_step(ens, mom, t, fixed_kernel(ens), eps)
            new_energy = 0.5 * ens.positions[0, 0] ** 2 + 0.5 * mom.momenta[0, 0] ** 2
            assert abs(new_energy - energy) <= 2 * eps**2 * energy

    def test_block_matrix_skew_symmetric(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            km = kernels.kernel_matrix(rng.normal(size=(n, 2)), KernelConfig())
            q = momentum_block_matrix(km)
            np.testing.assert_array_equal(q, -q.T)

    @pytest.mark.parametrize("stabilizer", [-1.0, np.inf, np.nan])
    def test_stabilizer_must_be_finite_and_non_negative(self, stabilizer):
        with pytest.raises(ConfigError) as exc:
            MomentumState(np.zeros((2, 1)), stabilizer=stabilizer)
        assert exc.value.field == "stabilizer"

    @pytest.mark.parametrize("field, value", [("beta1", 1.0), ("beta2", 0.0)],
                             ids=["beta1", "beta2"])
    def test_betas_must_lie_in_the_open_unit_interval(self, field, value):
        with pytest.raises(ConfigError) as exc:
            MomentumState(np.zeros((2, 1)), **{field: value})
        assert str(exc.value) == f"{field}: must lie in (0, 1)"

    def test_momentum_shape_validation(self):
        t = std_gaussian(2)
        with pytest.raises(ValueError):
            repulsive_sgdm_step(
                ParticleEnsemble(np.zeros((2, 2))),
                MomentumState(np.zeros((3, 2))),
                t,
                kernels.kernel_matrix(np.zeros((2, 2)), FIXED),
                0.1,
            )

    def test_rng_adds_the_kernel_noise(self):
        # noise is drawn exactly when an rng is given, onto the noiseless step
        rng = np.random.default_rng(4)
        ens, mom = ParticleEnsemble(rng.normal(size=(3, 2))), MomentumState(rng.normal(size=(3, 2)))
        km = kernels.kernel_matrix(ens.positions, KernelConfig())
        plain, plain_mom = repulsive_sgdm_step(ens, mom, std_gaussian(2), km, 0.1)
        noisy, noisy_mom = repulsive_sgdm_step(
            ens, mom, std_gaussian(2), km, 0.1, np.random.default_rng(8)
        )
        noise = kernels.sample_repulsive_noise(km, 0.1, np.random.default_rng(8))
        assert np.array_equal(noisy.positions, plain.positions + noise)
        assert np.array_equal(noisy_mom.momenta, plain_mom.momenta)


class TestRepulsiveAdam:
    def test_geometric_momentum_convergence(self):
        # constant H-gradient g: |m_t - g| = |m_0 - g| beta1^t
        t = linear_potential(2, slope=1.0)  # grad H = 1
        beta1 = 0.9
        ens = ParticleEnsemble(np.zeros((1, 2)))
        mom = MomentumState(
            np.zeros((1, 2)), second_moments=np.zeros((1, 2)), beta1=beta1, beta2=0.999
        )
        rng = np.random.default_rng(0)
        gaps = []
        for step in range(20):
            ens, mom = repulsive_adam_step(ens, mom, t, fixed_kernel(ens), 1e-6, rng)
            gaps.append(abs(mom.momenta[0, 0] - 1.0))
        for step, gap in enumerate(gaps, start=1):
            assert gap == pytest.approx(beta1**step, rel=1e-12)

    def test_unit_mass_matches_momentum_kernel_step(self):
        # linear H keeps v at one exactly, so the position update must equal
        # the momentum kernel step applied to the updated means, with
        # identical kernel noise under a shared seed
        t = linear_potential(2, slope=1.0)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 2))
        m0 = rng.normal(size=(4, 2))
        beta1 = 0.7
        eps = 0.05

        adam_ens, adam_mom = repulsive_adam_step(
            ParticleEnsemble(z.copy()),
            MomentumState(
                m0.copy(),
                second_moments=np.ones((4, 2)),
                beta1=beta1,
                beta2=0.3,
                stabilizer=0.0,
            ),
            t,
            kernels.kernel_matrix(z, FIXED),
            eps,
            np.random.default_rng(77),
        )
        m1 = beta1 * m0 + (1 - beta1) * np.ones((4, 2))
        sgdm_ens, _ = repulsive_sgdm_step(
            ParticleEnsemble(z.copy()),
            MomentumState(m1, beta2=0.3),
            t,
            kernels.kernel_matrix(z, FIXED),
            eps,
            rng=np.random.default_rng(77),
        )
        assert np.max(np.abs(adam_ens.positions - sgdm_ens.positions)) < 1e-12

    def test_distinct_gradient_histories_give_distinct_masses(self):
        t = std_gaussian(2)
        ens = ParticleEnsemble(np.array([[0.1, 0.1], [3.0, -2.0]]))
        mom = MomentumState(np.zeros((2, 2)), second_moments=np.zeros((2, 2)))
        rng = np.random.default_rng(1)
        for _ in range(5):
            ens, mom = repulsive_adam_step(ens, mom, t, fixed_kernel(ens), 1e-3, rng)
        assert not np.allclose(mom.second_moments[0], mom.second_moments[1])

    def test_requires_second_moments(self):
        t = std_gaussian(1)
        with pytest.raises(ValueError):
            repulsive_adam_step(
                ParticleEnsemble(np.zeros((1, 1))),
                MomentumState(np.zeros((1, 1))),
                t,
                kernels.kernel_matrix(np.zeros((1, 1)), FIXED),
                0.1,
                np.random.default_rng(0),
            )

    def test_negative_second_moments_rejected(self):
        with pytest.raises(ValueError, match="second moments must be non-negative"):
            MomentumState(np.zeros((2, 1)), second_moments=np.array([[1.0], [-1e-300]]))

    @pytest.mark.parametrize("momenta, second", [((3, 1), (3, 1)), ((2, 1), (3, 1))],
                             ids=["momenta", "second_moments"])
    def test_state_shape_must_match_ensemble(self, momenta, second):
        ens = ParticleEnsemble(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="momentum state shape must match ensemble"):
            repulsive_adam_step(
                ens, MomentumState(np.zeros(momenta), second_moments=np.zeros(second)),
                std_gaussian(1), fixed_kernel(ens), 0.1, np.random.default_rng(0),
            )


class TestUpdateLaw:
    """Every step moves its positions by z + eps * drift (+ noise)."""

    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    def test_eps_validation(self, kind):
        # rejected before eps is used: a negative eps must not reach np.sqrt
        # (a RuntimeWarning is an error in this suite)
        t, ens, rng = std_gaussian(1), ParticleEnsemble(np.zeros((2, 1))), np.random.default_rng(0)
        km = fixed_kernel(ens)
        step = {
            "sgld": lambda eps: sgld_step(ens, t, eps, rng),
            "svgd": lambda eps: svgd_step(ens, t, km, eps),
            "repulsive_sgld": lambda eps: repulsive_sgld_step(ens, t, km, eps, rng),
            "repulsive_sgdm": lambda eps: repulsive_sgdm_step(
                ens, MomentumState(np.zeros((2, 1))), t, km, eps
            ),
            "repulsive_adam": lambda eps: repulsive_adam_step(
                ens, MomentumState(np.zeros((2, 1)), second_moments=np.zeros((2, 1))),
                t, km, eps, rng,
            ),
        }[kind]
        for eps in (0.0, -0.1):
            with pytest.raises(ValueError, match="eps must be > 0"):
                step(eps)

    def test_momentum_steps_match_hand_evaluated_update(self):
        # x + eps * ((K @ v + R) / L) at L = 3, bitwise: v = -m for the sgdm
        # positions, -scores for its momenta, -m'/sqrt(v' + c) for adam
        t, cfg, eps = std_gaussian(2), KernelConfig(), 0.3
        # at this seed and step the (eps / L) * (K @ v - R) order rounds apart on all three
        rng = np.random.default_rng(5)
        z, m0 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        v0 = rng.uniform(0.5, 2.0, size=(3, 2))
        km = kernels.kernel_matrix(z, cfg)

        def law(x, v):
            return x + eps * ((km.entries @ v + km.grad_terms) / 3)

        grad_h = -t.grad_log_density(z)
        ens, mom = repulsive_sgdm_step(ParticleEnsemble(z), MomentumState(m0), t, km, eps)
        assert np.array_equal(ens.positions, law(z, -m0))
        assert np.array_equal(mom.momenta, law(m0, grad_h))

        state = MomentumState(m0, second_moments=v0, beta1=0.8, beta2=0.9, stabilizer=1e-3)
        ens, mom = repulsive_adam_step(
            ParticleEnsemble(z), state, t, km, eps, np.random.default_rng(7)
        )
        m1 = 0.8 * m0 + (1.0 - 0.8) * grad_h
        v1 = 0.9 * v0 + (1.0 - 0.9) * grad_h**2
        noise = kernels.sample_repulsive_noise(km, eps, np.random.default_rng(7))
        assert np.array_equal(ens.positions, law(z, -m1 / np.sqrt(v1 + 1e-3)) + noise)
        assert np.array_equal(mom.momenta, m1) and np.array_equal(mom.second_moments, v1)


class TestInputsLeftUnchanged:
    """A step writes into the arrays it made itself, never into its inputs."""

    STEPS = {
        "sgld": lambda e, m, t, km, rng: sgld_step(e, t, 0.1, rng),
        "svgd": lambda e, m, t, km, rng: svgd_step(e, t, km, 0.1),
        "repulsive_sgld": lambda e, m, t, km, rng: repulsive_sgld_step(e, t, km, 0.1, rng),
        "repulsive_sgdm": lambda e, m, t, km, rng: repulsive_sgdm_step(e, m, t, km, 0.1),
        "repulsive_sgdm_noise": lambda e, m, t, km, rng: repulsive_sgdm_step(
            e, m, t, km, 0.1, rng
        ),
        "repulsive_adam": lambda e, m, t, km, rng: repulsive_adam_step(e, m, t, km, 0.1, rng),
    }

    def _inputs(self):
        rng = np.random.default_rng(21)
        ens = ParticleEnsemble(rng.normal(size=(5, 3)))
        mom = MomentumState(rng.normal(size=(5, 3)), second_moments=rng.uniform(0.5, 2.0, (5, 3)))
        return ens, mom, kernels.kernel_matrix(ens.positions, KernelConfig())

    @pytest.mark.parametrize("name", list(STEPS))
    def test_step(self, name):
        ens, mom, km = self._inputs()
        arrays = (ens.positions, mom.momenta, mom.second_moments, km.entries, km.grad_terms)
        before = [a.copy() for a in arrays]
        self.STEPS[name](ens, mom, std_gaussian(3), km, np.random.default_rng(0))
        for now, then in zip(arrays, before):
            assert np.array_equal(now, then)

    def test_kernel_matrix_and_noise(self):
        ens, _, km = self._inputs()
        arrays = (ens.positions, km.entries, km.grad_terms)
        before = [a.copy() for a in arrays]
        kernels.kernel_matrix(ens.positions, KernelConfig())
        kernels.kernel_matrix(ens.positions, FIXED)
        kernels.sample_repulsive_noise(km, 0.1, np.random.default_rng(0))
        for now, then in zip(arrays, before):
            assert np.array_equal(now, then)


def first_bad_row(x):
    """The row scan: index of the first row holding a non-finite entry, or None."""
    bad = [i for i, row in enumerate(x.tolist()) if not all(map(math.isfinite, row))]
    return bad[0] if bad else None


class TestFiniteCheck:
    """One pass over the array decides; the row scan only names the particle."""

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_row_iteration_and_snapshot(self, value, row):
        scores = np.zeros((5, 2))
        scores[row, 1] = value
        scores[-1, 0] = value  # a later bad row must not be named instead
        bad = TargetModel(
            name="bad", dim=2,
            log_density=lambda z: 0.0,
            grad_log_density=lambda z: scores.copy(),
        )
        z = np.arange(10.0).reshape(5, 2)
        with pytest.raises(DivergenceError) as exc:
            sgld_step(ParticleEnsemble(z, step_index=7), bad, 0.1, np.random.default_rng(0))
        assert exc.value.particle == first_bad_row(scores) == row
        assert exc.value.iteration == 8
        np.testing.assert_array_equal(exc.value.snapshot, z)

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_names_row_iteration_and_snapshot(self, value, row):
        z = np.arange(10.0).reshape(5, 2)
        noise = np.zeros((5, 2))
        noise[row, 0] = value
        noise[-1, 1] = value
        ens = ParticleEnsemble(z, step_index=3)
        with pytest.raises(DivergenceError) as exc:
            samplers._advance(ens, np.ones((5, 2)), 0.1, noise)
        assert exc.value.particle == first_bad_row(z + 0.1 * np.ones((5, 2)) + noise) == row
        assert exc.value.iteration == 4
        assert exc.value.snapshot is z

    def test_huge_finite_rows_pass(self):
        # rows whose sums overflow are still finite entry by entry
        x = np.full((4, 3), np.finfo(float).max)
        x[2] = -x[2]
        check_finite(x, 1)

    @given(
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([np.nan, np.inf, -np.inf, np.finfo(float).max, -1e308]),
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_raises_exactly_when_an_entry_is_non_finite(self, x):
        expected = first_bad_row(x)
        snapshot = np.zeros_like(x)
        if expected is None:
            check_finite(x, 9, snapshot=snapshot)
            return
        with pytest.raises(DivergenceError) as exc:
            check_finite(x, 9, snapshot=snapshot)
        assert exc.value.particle == expected
        assert exc.value.iteration == 9
        assert exc.value.snapshot is snapshot


class TestRunner:
    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigError):
            samplers.run(
                samplers.RunSpec(
                    "sgld", n_particles=1, iterations=100, schedule=StepSchedule(eps0=1e-3),
                    policy=CollectionPolicy(burn_in=100, thin=1),
                ),
                std_gaussian(1), 0,
            )

    @pytest.mark.parametrize("iterations, burn_in, thin", [(100, 100, 1), (100, 95, 10)])
    def test_run_length_checked_before_any_draw(self, iterations, burn_in, thin):
        # the one rule (iterations - burn_in) // thin >= 1 is checked first,
        # so it wins over the also-bad init_std
        with pytest.raises(ConfigError) as exc:
            samplers.run(
                samplers.RunSpec(
                    "sgld", n_particles=1, iterations=iterations, schedule=StepSchedule(eps0=1e-3),
                    policy=CollectionPolicy(burn_in=burn_in, thin=thin), init_std=-1.0,
                ),
                std_gaussian(1), 0,
            )
        assert exc.value.field == "iterations"
        res = samplers.run(
            samplers.RunSpec(
                "sgld", n_particles=1, iterations=burn_in + thin, schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(burn_in=burn_in, thin=thin),
            ),
            std_gaussian(1), 0,
        )
        assert len(res.samples) == 1

    @pytest.mark.parametrize("n_particles", [0, -2])
    def test_particle_count_checked(self, n_particles):
        with pytest.raises(ConfigError) as exc:
            samplers.run(
                samplers.RunSpec(
                    "sgld", n_particles=n_particles, iterations=100,
                    schedule=StepSchedule(eps0=1e-3), policy=CollectionPolicy(),
                ),
                std_gaussian(1), 0,
            )
        assert exc.value.field == "n_particles"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            samplers.run(
                samplers.RunSpec(
                    "mala", n_particles=1, iterations=100, schedule=StepSchedule(eps0=1e-3),
                    policy=CollectionPolicy(),
                ),
                std_gaussian(1), 0,
            )

    @pytest.mark.parametrize(
        "init, field",
        [
            ({"init_mean": np.nan}, "init_mean"),
            ({"init_mean": [0.0, -np.inf]}, "init_mean"),
            ({"init_std": np.inf}, "init_std"),
            ({"init_std": [1.0, np.nan]}, "init_std"),
            ({"init_std": -1.0}, "init_std"),
        ],
    )
    def test_init_must_be_finite(self, init, field):
        with pytest.raises(ConfigError) as exc:
            samplers.run(
                samplers.RunSpec(
                    "sgld", n_particles=2, iterations=10, schedule=StepSchedule(),
                    policy=CollectionPolicy(), **init,
                ),
                std_gaussian(2), 0,
            )
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "bad, field, message",
        [
            ({"n_particles": 0}, "n_particles", "must be >= 1"),
            ({"iterations": 5}, "iterations", "must exceed burn_in by at least thin"),
            ({"init_mean": [0.0, 0.0, 0.0]}, "init_mean", "expected a number or 2 numbers"),
            ({"init_std": [[1.0, 1.0]]}, "init_std", "expected a number or 2 numbers"),
            ({"init_mean": np.nan}, "init_mean", "must be finite"),
            ({"init_std": -1.0}, "init_std", "must be finite and >= 0"),
            ({"kind": "mala"}, "kind", "unknown sampler kind 'mala'"),
            # eps_t never increases, so the last iteration's step decides
            ({"schedule": StepSchedule(5e-324, gamma=0.55)}, "schedule",
             "decays to 0 within the run's iterations"),
        ],
        ids=["particles", "iterations", "init_mean_size", "init_std_size", "init_mean_nan",
             "init_std", "kind", "decaying_step"],
    )
    def test_spec_raises_what_run_raised(self, bad, field, message, monkeypatch):
        # the field and message run gave when it took these as keywords;
        # building the spec and sizing its init draws nothing
        options = {
            "kind": "sgld", "n_particles": 2, "iterations": 10, "schedule": StepSchedule(),
            "policy": CollectionPolicy(burn_in=5), **bad,
        }
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ConfigError) as exc:
            samplers.RunSpec(**options).initial(2)
        assert exc.value.field == field
        assert str(exc.value) == f"{field}: {message}"

    def test_spec_accepts_what_run_accepts(self):
        options = dict(n_particles=2, iterations=10, schedule=StepSchedule(),
                       policy=CollectionPolicy(), init_std=[1.0, 2.0])
        spec = samplers.RunSpec("svgd", **options)
        mean, std = spec.initial(2)
        assert mean.tolist() == [0.0, 0.0] and std.tolist() == [1.0, 2.0]
        assert spec.kernel_cfg == KernelConfig()
        with pytest.raises(TypeError):
            samplers.RunSpec("svgd", particles=2, **options)

    def test_same_seed_bitwise_identical(self):
        kwargs = dict(
            n_particles=4,
            iterations=300,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=100, thin=5),
        )
        a = samplers.run(samplers.RunSpec("repulsive_sgld", **kwargs), std_gaussian(2), 11)
        b = samplers.run(samplers.RunSpec("repulsive_sgld", **kwargs), std_gaussian(2), 11)
        assert np.array_equal(a.samples, b.samples)

    def test_collection_count_follows_protocol(self):
        res = samplers.run(
            samplers.RunSpec(
                "sgld", n_particles=10, iterations=1000, schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(burn_in=500, thin=10),
            ),
            std_gaussian(1), 0,
        )
        assert len(res.samples) == 500
        assert res.per_particle.shape == (10, 50, 1)

    def test_samples_are_a_view_of_per_particle(self):
        spec = samplers.RunSpec(
            "repulsive_sgld", n_particles=4, iterations=60, schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=10, thin=5),
        )
        res = samplers.run(spec, std_gaussian(2), 0)
        assert np.shares_memory(res.samples, res.per_particle)
        assert np.array_equal(res.samples, res.per_particle.reshape(-1, 2))

    @pytest.mark.parametrize("kind, eps", [("sgld", 0.1), ("repulsive_sgld", 1.0)])
    def test_ess_sums_the_event_major_mean_series(self, kind, eps):
        # the report's ESS is that of the per-event particle means summed over
        # the draws stacked event-major and contiguous; with d = 1 a sum along
        # the strided particle axis of (L, events, d) rounds differently
        spec = samplers.RunSpec(
            kind, n_particles=10, iterations=1000, schedule=StepSchedule(eps0=eps),
            policy=CollectionPolicy(burn_in=500, thin=10),
        )
        for seed in range(5):
            res = samplers.run(spec, mixture_of_exponentials(), seed)
            stacked = np.stack([res.per_particle[:, e] for e in range(res.per_particle.shape[1])])
            assert res.ess == 10 * samplers.ess_multivariate(stacked.mean(axis=1)), seed

    def test_single_particle_reduction_through_runner(self):
        kwargs = dict(
            n_particles=1,
            iterations=200,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=50, thin=2),
        )
        a = samplers.run(samplers.RunSpec("sgld", **kwargs), std_gaussian(2), 3)
        b = samplers.run(samplers.RunSpec("repulsive_sgld", **kwargs), std_gaussian(2), 3)
        assert np.array_equal(a.samples, b.samples)

    def test_long_run_stationarity_bands(self):
        # the ensemble pooled mean and variance settle into the target's
        t = std_gaussian(1)
        rs = samplers.run(
            samplers.RunSpec(
                "sgld", n_particles=8, iterations=100_000, schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(burn_in=2000, thin=2),
            ),
            t, 1,
        )
        rr = samplers.run(
            samplers.RunSpec(
                "repulsive_sgld", n_particles=8, iterations=100_000,
                schedule=StepSchedule(eps0=8e-3), policy=CollectionPolicy(burn_in=2000, thin=2),
            ),
            t, 1,
        )
        for res in (rs, rr):
            assert abs(res.samples.mean()) < 0.05
            assert 0.9 < res.samples.var() < 1.1

    def test_single_chain_variance_band(self):
        res = samplers.run(
            samplers.RunSpec(
                "sgld", n_particles=1, iterations=100_000, schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(burn_in=1000, thin=1),
            ),
            std_gaussian(1), 123,
        )
        assert 0.9 < res.samples.var() < 1.1

    def test_divergence_carries_snapshot(self):
        t = std_gaussian(1)
        with pytest.raises(DivergenceError) as exc:
            samplers.run(
                samplers.RunSpec(
                    "sgld", n_particles=2, iterations=500, schedule=StepSchedule(eps0=1e8),
                    policy=CollectionPolicy(burn_in=10, thin=1),
                ),
                t, 0,
            )
        assert exc.value.snapshot is not None

    @pytest.mark.parametrize("kind", ["repulsive_sgdm", "repulsive_adam"])
    def test_momentum_kinds_run_to_completion(self, kind):
        res = samplers.run(
            samplers.RunSpec(
                kind, n_particles=5, iterations=2000, schedule=StepSchedule(eps0=0.05),
                policy=CollectionPolicy(burn_in=500, thin=5),
            ),
            std_gaussian(2), 2,
        )
        assert len(res.samples) == 300 * 5
        assert np.all(np.isfinite(res.samples))
        assert np.max(np.abs(res.samples.mean(axis=0))) < 1.0

    def test_svgd_underestimates_spread_versus_langevin(self):
        t = std_gaussian(2)
        svgd = samplers.run(
            samplers.RunSpec(
                "svgd", n_particles=6, iterations=200, schedule=StepSchedule(eps0=0.1),
                policy=CollectionPolicy(burn_in=199, thin=1), init_mean=[3.0, 3.0], init_std=0.5,
            ),
            t, 1,
        )
        langevin = samplers.run(
            samplers.RunSpec(
                "repulsive_sgld", n_particles=6, iterations=3000, schedule=StepSchedule(eps0=0.3),
                policy=CollectionPolicy(burn_in=500, thin=5),
            ),
            t, 1,
        )
        assert svgd.samples.std(axis=0).mean() < langevin.samples.std(axis=0).mean()


    def test_resample_batch_is_called_before_each_iterations_score(self, monkeypatch):
        # the minibatch hook runs once per iteration, with the run's Generator,
        # before that iteration's score
        base, sgld = std_gaussian(2), samplers.sgld_step
        events, step_rngs = [], []

        def hook(rng):
            assert len(events) % 2 == 0, "the previous hook call had no score"
            events.append(rng)

        def score(z):
            assert len(events) % 2 == 1, "a score came before its iteration's hook"
            events.append("score")
            return base.grad_log_density(z)

        def step(ensemble, target, eps, rng):
            step_rngs.append(rng)
            return sgld(ensemble, target, eps, rng)

        monkeypatch.setattr(samplers, "sgld_step", step)
        target = dataclasses.replace(base, grad_log_density=score, resample_batch=hook)
        spec = samplers.RunSpec("sgld", 3, 20, StepSchedule(eps0=0.01), CollectionPolicy())
        samplers.run(spec, target, 0)
        assert len(events) == 40 and events[1::2] == ["score"] * 20
        assert len(step_rngs) == 20
        assert all(isinstance(rng, np.random.Generator) for rng in step_rngs)
        assert all(rng is run_rng for rng, run_rng in zip(events[::2], step_rngs))


class TestStepTable:
    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    @pytest.mark.parametrize(
        "iterations, policy, kept_at",
        [(30, CollectionPolicy(), range(1, 31)), (23, CollectionPolicy(5, 4), [9, 13, 17, 21])],
        ids=["every_iteration", "burn_in_5_thin_4"],
    )
    def test_run_equals_hand_loop_of_public_step(self, kind, iterations, policy, kept_at):
        # kept_at lists the 1-based iterations whose positions the run keeps
        t, n, eps, seed = std_gaussian(2), 4, 0.05, 9
        res = samplers.run(
            samplers.RunSpec(
                kind, n_particles=n, iterations=iterations, schedule=StepSchedule(eps0=eps),
                policy=policy,
            ),
            t, seed,
        )
        positions = hand_loop(kind, t, n, iterations, eps, seed)
        kept = positions[[i - 1 for i in kept_at]]
        assert np.array_equal(res.per_particle, kept.transpose(1, 0, 2))
        assert np.array_equal(res.final.positions, positions[-1])

    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    def test_scaled_step_gives_plain_langevin_per_particle_step(self, kind):
        # an interacting kind's drift and noise carry a 1/L, so its step is L
        # times the per-particle step; sgld's is the per-particle step itself
        interacting = kind in {"svgd", "repulsive_sgld", "repulsive_sgdm", "repulsive_adam"}
        assert samplers.scaled_step(kind, 0.125, 20) == (2.5 if interacting else 0.125)
        assert samplers.scaled_step(kind, 0.125, 1) == 0.125
        for var in (0.25, 1.0, 4.0):  # the stationarity table's steps, bit for bit
            expected = 0.01 * var * (1 if kind == "sgld" else 20)
            assert samplers.scaled_step(kind, 0.01 * var, 20) == expected

    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    def test_steps_resolve_through_module_globals(self, kind, monkeypatch):
        # a wrapper installed on the module attribute sees every runner step
        name = f"{kind}_step"
        original = getattr(samplers, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(samplers, name, counting)
        samplers.run(
            samplers.RunSpec(
                kind, n_particles=3, iterations=12, schedule=StepSchedule(eps0=0.01),
                policy=CollectionPolicy(),
            ),
            std_gaussian(1), 0,
        )
        assert len(calls) == 12
