import numpy as np
import pytest

from steinmc import kernels, samplers
from steinmc.errors import ConfigError, DivergenceError
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
from steinmc.targets import TargetModel, std_gaussian

FIXED = KernelConfig(bandwidth=1.0, bandwidth_mode="fixed")


def linear_potential(dim, slope=1.0):
    """Improper target with constant H-gradient `slope` (score = -slope)."""
    return TargetModel(
        name="linear",
        dim=dim,
        log_density=lambda z: float(-slope * np.sum(z)),
        grad_log_density=lambda z: np.full(np.shape(z), -slope),
    )


class TestSchedule:
    def test_constant(self):
        s = StepSchedule(kind="constant", eps0=0.3)
        assert s.eps(0) == s.eps(10**6) == 0.3

    def test_decay_conditions(self):
        # divergent sum: partial sums grow like T^(1-gamma), so quadrupling T
        # multiplies the total by about 4^(1-gamma); convergent squared sum:
        # the tail contributes a vanishing fraction
        s = StepSchedule(kind="robbins_monro", eps0=1.0, gamma=0.6)
        eps = np.array([s.eps(t) for t in range(200_000)])
        total = eps.cumsum()
        assert total[-1] > 1.6 * total[len(eps) // 4]
        sq_tail = (eps[100_000:] ** 2).sum()
        assert sq_tail < 0.1 * (eps[:100_000] ** 2).sum()

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(kind="robbins_monro", gamma=0.5)
        with pytest.raises(ValueError):
            StepSchedule(kind="robbins_monro", gamma=1.5)
        StepSchedule(kind="robbins_monro", gamma=1.0)


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

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            sgld_step(ParticleEnsemble(np.zeros((1, 1))), std_gaussian(1), 0.0,
                      np.random.default_rng(0))

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
        stepped = svgd_step(ens, t, FIXED, 0.5)
        np.testing.assert_array_equal(stepped.positions, ens.positions)

    def test_single_particle_converges_to_mode(self):
        t = std_gaussian(2)
        ens = ParticleEnsemble(np.array([[4.0, -3.0]]))
        for _ in range(300):
            ens = svgd_step(ens, t, FIXED, 0.1)
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
            b = repulsive_sgld_step(b, t, KernelConfig(), 0.01, rng_b)
        assert np.array_equal(a.positions, b.positions)

    def test_long_run_marginal_stds(self):
        res = samplers.run(
            "repulsive_sgld",
            std_gaussian(2),
            n_particles=6,
            iterations=20_000,
            schedule=StepSchedule(eps0=6e-3),
            policy=CollectionPolicy(burn_in=1000, thin=2),
            seed=1,
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
        new_ens, new_mom = repulsive_sgdm_step(ens, mom, t, FIXED, eps)
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
            ens, mom = repulsive_sgdm_step(ens, mom, t, FIXED, eps)
            new_energy = 0.5 * ens.positions[0, 0] ** 2 + 0.5 * mom.momenta[0, 0] ** 2
            assert abs(new_energy - energy) <= 2 * eps**2 * energy

    def test_block_matrix_skew_symmetric(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            km = kernels.kernel_matrix(rng.normal(size=(n, 2)), KernelConfig())
            q = momentum_block_matrix(km)
            np.testing.assert_array_equal(q, -q.T)

    def test_momentum_shape_validation(self):
        t = std_gaussian(2)
        with pytest.raises(ValueError):
            repulsive_sgdm_step(
                ParticleEnsemble(np.zeros((2, 2))),
                MomentumState(np.zeros((3, 2))),
                t,
                FIXED,
                0.1,
            )


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
            ens, mom = repulsive_adam_step(ens, mom, t, FIXED, 1e-6, rng)
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
            FIXED,
            eps,
            np.random.default_rng(77),
        )
        m1 = beta1 * m0 + (1 - beta1) * np.ones((4, 2))
        sgdm_ens, _ = repulsive_sgdm_step(
            ParticleEnsemble(z.copy()),
            MomentumState(m1, beta2=0.3),
            t,
            FIXED,
            eps,
            rng=np.random.default_rng(77),
            position_noise=True,
        )
        assert np.max(np.abs(adam_ens.positions - sgdm_ens.positions)) < 1e-12

    def test_distinct_gradient_histories_give_distinct_masses(self):
        t = std_gaussian(2)
        ens = ParticleEnsemble(np.array([[0.1, 0.1], [3.0, -2.0]]))
        mom = MomentumState(np.zeros((2, 2)), second_moments=np.zeros((2, 2)))
        rng = np.random.default_rng(1)
        for _ in range(5):
            ens, mom = repulsive_adam_step(ens, mom, t, FIXED, 1e-3, rng)
        assert not np.allclose(mom.second_moments[0], mom.second_moments[1])

    def test_requires_second_moments(self):
        t = std_gaussian(1)
        with pytest.raises(ValueError):
            repulsive_adam_step(
                ParticleEnsemble(np.zeros((1, 1))),
                MomentumState(np.zeros((1, 1))),
                t,
                FIXED,
                0.1,
                np.random.default_rng(0),
            )


class TestRunner:
    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigError):
            samplers.run(
                "sgld",
                std_gaussian(1),
                n_particles=1,
                iterations=100,
                schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(burn_in=100, thin=1),
                seed=0,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            samplers.run(
                "mala",
                std_gaussian(1),
                n_particles=1,
                iterations=100,
                schedule=StepSchedule(eps0=1e-3),
                policy=CollectionPolicy(),
                seed=0,
            )

    def test_same_seed_bitwise_identical(self):
        kwargs = dict(
            n_particles=4,
            iterations=300,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=100, thin=5),
            seed=11,
        )
        a = samplers.run("repulsive_sgld", std_gaussian(2), **kwargs)
        b = samplers.run("repulsive_sgld", std_gaussian(2), **kwargs)
        assert np.array_equal(a.samples, b.samples)

    def test_collection_count_follows_protocol(self):
        res = samplers.run(
            "sgld",
            std_gaussian(1),
            n_particles=10,
            iterations=1000,
            schedule=StepSchedule(eps0=1e-3),
            policy=CollectionPolicy(burn_in=500, thin=10),
            seed=0,
        )
        assert res.report.collected_count == 500
        assert res.per_particle.shape == (10, 50, 1)

    def test_single_particle_reduction_through_runner(self):
        kwargs = dict(
            n_particles=1,
            iterations=200,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=50, thin=2),
            seed=3,
        )
        a = samplers.run("sgld", std_gaussian(2), **kwargs)
        b = samplers.run("repulsive_sgld", std_gaussian(2), **kwargs)
        assert np.array_equal(a.samples, b.samples)

    def test_long_run_stationarity_bands(self):
        # the ensemble pooled mean and variance settle into the target's
        t = std_gaussian(1)
        rs = samplers.run(
            "sgld", t, n_particles=8, iterations=100_000,
            schedule=StepSchedule(eps0=1e-3),
            policy=CollectionPolicy(burn_in=2000, thin=2), seed=1,
        )
        rr = samplers.run(
            "repulsive_sgld", t, n_particles=8, iterations=100_000,
            schedule=StepSchedule(eps0=8e-3),
            policy=CollectionPolicy(burn_in=2000, thin=2), seed=1,
        )
        for res in (rs, rr):
            assert abs(res.samples.mean()) < 0.05
            assert 0.9 < res.samples.var() < 1.1

    def test_single_chain_variance_band(self):
        res = samplers.run(
            "sgld", std_gaussian(1), n_particles=1, iterations=100_000,
            schedule=StepSchedule(eps0=1e-3),
            policy=CollectionPolicy(burn_in=1000, thin=1), seed=123,
        )
        assert 0.9 < res.samples.var() < 1.1

    def test_divergence_carries_snapshot(self):
        t = std_gaussian(1)
        with pytest.raises(DivergenceError) as exc:
            samplers.run(
                "sgld", t, n_particles=2, iterations=500,
                schedule=StepSchedule(eps0=1e8),
                policy=CollectionPolicy(burn_in=10, thin=1), seed=0,
            )
        assert exc.value.snapshot is not None

    def test_repulsion_cutoff_switches_to_identity_kernel(self):
        t = std_gaussian(2)
        full = samplers.run(
            "repulsive_sgld", t, n_particles=4, iterations=100,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=50, thin=1), seed=5,
        )
        cut = samplers.run(
            "repulsive_sgld", t, n_particles=4, iterations=100,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=50, thin=1), seed=5,
            repulsion_cutoff=0,
        )
        assert not np.array_equal(full.samples, cut.samples)

    @pytest.mark.parametrize("kind", ["repulsive_sgdm", "repulsive_adam"])
    def test_momentum_kinds_run_to_completion(self, kind):
        res = samplers.run(
            kind, std_gaussian(2), n_particles=5, iterations=2000,
            schedule=StepSchedule(eps0=0.05),
            policy=CollectionPolicy(burn_in=500, thin=5), seed=2,
        )
        assert res.report.collected_count == 300 * 5
        assert np.all(np.isfinite(res.samples))
        assert np.max(np.abs(res.samples.mean(axis=0))) < 1.0

    def test_svgd_underestimates_spread_versus_langevin(self):
        t = std_gaussian(2)
        svgd = samplers.run(
            "svgd", t, n_particles=6, iterations=200,
            schedule=StepSchedule(eps0=0.1),
            policy=CollectionPolicy(burn_in=199, thin=1), seed=1,
            init_mean=[3.0, 3.0], init_std=0.5,
        )
        langevin = samplers.run(
            "repulsive_sgld", t, n_particles=6, iterations=3000,
            schedule=StepSchedule(eps0=0.3),
            policy=CollectionPolicy(burn_in=500, thin=5), seed=1,
        )
        assert svgd.samples.std(axis=0).mean() < langevin.samples.std(axis=0).mean()


class TestStepTable:
    @pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
    def test_run_equals_hand_loop_of_public_step(self, kind):
        t, n, iterations, eps, seed = std_gaussian(2), 4, 30, 0.05, 9
        cfg = KernelConfig()
        res = samplers.run(
            kind, t, n_particles=n, iterations=iterations,
            schedule=StepSchedule(eps0=eps), policy=CollectionPolicy(), seed=seed,
        )

        # same seed, same draw order: initial positions, then initial momenta
        rng = np.random.default_rng(seed)
        ens = ParticleEnsemble(rng.standard_normal((n, 2)))
        if kind == "repulsive_sgdm":
            mom = MomentumState(rng.standard_normal((n, 2)))
        elif kind == "repulsive_adam":
            mom = MomentumState(np.zeros((n, 2)), second_moments=np.zeros((n, 2)))
        kept = []
        for _ in range(iterations):
            if kind == "sgld":
                ens = sgld_step(ens, t, eps, rng)
            elif kind == "svgd":
                ens = svgd_step(ens, t, cfg, eps)
            elif kind == "repulsive_sgld":
                ens = repulsive_sgld_step(ens, t, cfg, eps, rng)
            elif kind == "repulsive_sgdm":
                ens, mom = repulsive_sgdm_step(ens, mom, t, cfg, eps, rng=rng)
            else:
                ens, mom = repulsive_adam_step(ens, mom, t, cfg, eps, rng)
            kept.append(ens.positions)

        assert np.array_equal(res.per_particle, np.stack(kept).transpose(1, 0, 2))
        assert np.array_equal(res.final.positions, ens.positions)

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
            kind, std_gaussian(1), n_particles=3, iterations=12,
            schedule=StepSchedule(eps0=0.01), policy=CollectionPolicy(), seed=0,
        )
        assert len(calls) == 12
