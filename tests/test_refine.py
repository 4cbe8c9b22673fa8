import dataclasses

import numpy as np
import pytest

from steinmc import autodiff as ad
from steinmc import bnn, cli, kernels, refine, targets
from steinmc.errors import ConfigError, DivergenceError
from steinmc.kernels import KernelConfig
from steinmc.refine import (
    INNER_SAMPLERS,
    DiagonalGaussianGuide,
    RefinedGuide,
    elbo,
    elbo_grad,
    kde_entropy_grad,
    optimize,
    sample_refined,
)

FUNNEL = targets.funnel()
GAUSS2 = targets.std_gaussian(2)
MOE = targets.mixture_of_exponentials()
MOG = targets.mog_grid()
ALL_TARGETS = [FUNNEL, GAUSS2, MOE, MOG]
ALL_IDS = ["funnel", "gaussian2d", "moe", "mog"]


def unit_guide(dim=2):
    return DiagonalGaussianGuide(np.zeros(dim), np.zeros(dim))


class TestGuide:
    def test_entropy_closed_form(self):
        g = DiagonalGaussianGuide(np.zeros(2), np.log(np.array([0.5, 2.0])))
        expected = np.log(0.5) + np.log(2.0) + 0.5 * 2 * (1 + np.log(2 * np.pi))
        assert g.entropy() == pytest.approx(expected, rel=1e-14)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="mean and log_scale must share a shape"):
            DiagonalGaussianGuide(np.zeros(2), np.zeros(3))


class TestSampleRefined:
    def test_zero_steps_returns_guide_draws(self):
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd", steps_refine=0)
        samples, trajectory = sample_refined(rg, GAUSS2, 16, np.random.default_rng(0))
        direct = unit_guide().sample(16, np.random.default_rng(0))
        np.testing.assert_array_equal(samples, direct)
        assert len(trajectory) == 1

    def test_single_ascent_step_hand_evaluated(self):
        # one deterministic step on the Gaussian: z1 = z0 + eta * (-z0)
        eta = 0.05
        rg = RefinedGuide(
            guide=unit_guide(), inner_sampler="sgd", steps_refine=1, log_eta=np.log(eta)
        )
        samples, trajectory = sample_refined(rg, GAUSS2, 4, np.random.default_rng(1))
        z0 = trajectory[0]
        np.testing.assert_allclose(samples, z0 * (1 - eta), rtol=1e-14)

    def test_entropy_mode_does_not_affect_samples(self):
        draws = {}
        for mode in ("dirac", "markov"):
            rg = RefinedGuide(
                guide=unit_guide(), inner_sampler="sgld", steps_refine=2, entropy_mode=mode
            )
            draws[mode], _ = sample_refined(rg, FUNNEL, 8, np.random.default_rng(2))
        np.testing.assert_array_equal(draws["dirac"], draws["markov"])

    @pytest.mark.parametrize("sampler", INNER_SAMPLERS)
    def test_overflowing_step_raises_divergence(self, sampler):
        # a wide guide and a large step overflow exp in the funnel's score
        rg = RefinedGuide(
            guide=DiagonalGaussianGuide(np.zeros(2), np.full(2, 2.0)),
            inner_sampler=sampler, steps_refine=20, log_eta=np.log(10.0),
        )
        with pytest.raises(DivergenceError):
            sample_refined(rg, FUNNEL, 8, np.random.default_rng(0))

    def test_sample_count_validated(self):
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd")
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sample_refined(rg, GAUSS2, 0, np.random.default_rng(0))


class TestElbo:
    def test_zero_steps_equals_plain_estimator_all_modes(self):
        # oracle: mean log p(z0) + closed-form guide entropy on the same draws
        rng = np.random.default_rng(0)
        z0 = unit_guide().sample(8, rng)
        plain = np.mean(FUNNEL.log_density(z0)) + unit_guide().entropy()
        for mode, sampler in (
            ("dirac", "sgld"),
            ("markov", "sgld"),
            ("dirac", "sgd"),
        ):
            rg = RefinedGuide(
                guide=unit_guide(), inner_sampler=sampler, steps_refine=0, entropy_mode=mode
            )
            val = elbo(rg, FUNNEL, 8, np.random.default_rng(0)).value
            assert val == plain

    def test_zero_steps_matches_closed_form_on_gaussian(self):
        # closed form for a zero-mean unit Gaussian guide on the standard
        # Gaussian target: E[log p] + H(q)
        g = DiagonalGaussianGuide(np.array([0.4, -0.3]), np.log(np.array([0.8, 1.3])))
        rg = RefinedGuide(guide=g, inner_sampler="sgd", steps_refine=0)
        vals = [elbo(rg, GAUSS2, 64, np.random.default_rng(s)).value for s in range(40)]
        d = 2
        expected_logp = -0.5 * float(np.sum(g.mean**2 + g.scale**2)) - 0.5 * d * np.log(
            2 * np.pi
        )
        closed = expected_logp + g.entropy()
        assert np.mean(vals) == pytest.approx(closed, abs=3 * np.std(vals) / np.sqrt(40))

    def test_markov_entropy_adds_per_step_transition_term(self):
        eta = 0.01
        kwargs = dict(guide=unit_guide(), inner_sampler="sgld", log_eta=np.log(eta))
        dirac = RefinedGuide(steps_refine=3, entropy_mode="dirac", **kwargs)
        markov = RefinedGuide(steps_refine=3, entropy_mode="markov", **kwargs)
        v_dirac = elbo(dirac, GAUSS2, 8, np.random.default_rng(5)).value
        v_markov = elbo(markov, GAUSS2, 8, np.random.default_rng(5)).value
        per_step = 0.5 * 2 * np.log(4 * np.pi * np.e * eta)
        assert v_markov - v_dirac == pytest.approx(3 * per_step, rel=1e-12)

    @pytest.mark.parametrize("field", ["steps_refine"])
    def test_negative_step_count_names_its_field(self, field):
        with pytest.raises(ConfigError) as info:
            RefinedGuide(guide=unit_guide(), inner_sampler="sgd", **{field: -1})
        assert info.value.field == field

    def test_sample_count_validated_for_the_bound(self):
        # the one sample-count rule of the refinement loop, also on the tape
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd")
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            elbo(rg, GAUSS2, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            optimize(rg, GAUSS2, 1, np.random.default_rng(0), n_samples=0)

    @pytest.mark.parametrize("field", ["inner_sampler", "ad_mode"])
    def test_unknown_choice_names_its_field(self, field):
        with pytest.raises(ConfigError) as info:
            RefinedGuide(guide=unit_guide(), **{"inner_sampler": "sgd", field: "x"})
        assert info.value.field == field

    @pytest.mark.parametrize("mode", ["gaussian", "flow"])
    def test_deleted_entropy_modes_rejected(self, mode):
        with pytest.raises(ConfigError) as info:
            RefinedGuide(guide=unit_guide(), inner_sampler="sgd", entropy_mode=mode)
        assert info.value.field == "entropy_mode"

    @pytest.mark.parametrize("sampler", ["sgd", "svgd", "flow"])
    def test_markov_mode_requires_stochastic_sampler(self, sampler):
        # a deterministic step has no transition entropy to add; the bound
        # would silently be the dirac one
        with pytest.raises(ConfigError) as info:
            RefinedGuide(guide=unit_guide(), inner_sampler=sampler, entropy_mode="markov")
        assert info.value.field == "entropy_mode"

    def test_flow_inner_sampler_runs_on_tape(self):
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="flow", steps_refine=2)
        tape = elbo(rg, GAUSS2, 6, np.random.default_rng(6))
        assert np.isfinite(tape.value)

    def test_svgd_inner_sampler_single_sample_reduces_to_sgd(self):
        eta = 0.03
        kwargs = dict(guide=unit_guide(), steps_refine=1, log_eta=np.log(eta))
        svgd = RefinedGuide(inner_sampler="svgd", **kwargs)
        sgd = RefinedGuide(inner_sampler="sgd", **kwargs)
        v1 = elbo(svgd, GAUSS2, 1, np.random.default_rng(7)).value
        v2 = elbo(sgd, GAUSS2, 1, np.random.default_rng(7)).value
        assert v1 == pytest.approx(v2, rel=1e-14)


def off_centre_guide(dim=2):
    mean, scale = np.array([0.3, -0.2]), np.array([0.8, 1.2])
    return DiagonalGaussianGuide(mean[:dim], np.log(scale[:dim]))


class TestBatchedTape:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("target", ALL_TARGETS, ids=ALL_IDS)
    @pytest.mark.parametrize("sampler", INNER_SAMPLERS)
    def test_tape_samples_equal_numeric_refinement(self, sampler, target, n):
        rg = RefinedGuide(
            guide=off_centre_guide(target.dim), inner_sampler=sampler, steps_refine=2,
            log_eta=np.log(0.05),
        )
        tape = elbo(rg, target, n, np.random.default_rng(11))
        numeric, _ = sample_refined(rg, target, n, np.random.default_rng(11))
        assert tape.samples.shape == (n, target.dim)
        np.testing.assert_allclose(tape.samples, numeric, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sampler", INNER_SAMPLERS)
    def test_node_count_independent_of_sample_count(self, sampler):
        for target in ALL_TARGETS:
            rg = RefinedGuide(
                guide=unit_guide(target.dim), inner_sampler=sampler, steps_refine=2
            )
            tapes = [elbo(rg, target, n, np.random.default_rng(0)) for n in (4, 64)]
            counts = [len(ad._topological_order(tape.objective)) for tape in tapes]
            assert counts[0] == counts[1], target.name

    def test_funnel_bound_holds_no_constant_but_its_draws(self, monkeypatch):
        # the T = 2 bound with the vis-funnel guide: the plain floats and the
        # target's fixed arrays get no node, so the only parentless nodes are
        # the parameter leaves, xi and one noise draw per step
        guides = []
        monkeypatch.setattr(refine, "optimize", lambda rg, *args, **kwargs: guides.append(rg))
        cli.funnel_trace(2, 0, FUNNEL)
        [rg] = guides
        n = cli.FUNNEL_SAMPLES
        tape = elbo(rg, FUNNEL, n, np.random.default_rng(5))
        reached, stack = set(), [tape.objective]
        while stack:
            node = stack.pop()
            if node not in reached:
                reached.add(node)
                stack.extend(parent for parent, _ in node.parents)
        leaves = {tape.mean, tape.log_scale, tape.log_eta}
        parentless = {node for node in reached if not node.parents}
        assert leaves <= parentless
        rng = np.random.default_rng(5)
        draws = [rng.standard_normal((n, 2)) for _ in range(1 + rg.steps_refine)]
        assert sorted(node.value.tobytes() for node in parentless - leaves) == sorted(
            draw.tobytes() for draw in draws
        )

    def test_tape_score_shape_mismatch_names_target(self):
        summed = dataclasses.replace(
            GAUSS2, grad_log_density=lambda z, ops: ops.reduce_sum(z, axis=-1)
        )
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd", steps_refine=1)
        with pytest.raises(ConfigError, match="target"):
            elbo(rg, summed, 4, np.random.default_rng(0))

    def test_target_without_ops_argument_is_config_error(self):
        # a sampler-only user target: its functions take the batch alone
        plain = dataclasses.replace(
            GAUSS2,
            log_density=lambda z: -0.5 * np.sum(z * z, axis=1),
            grad_log_density=lambda z: -z,
        )
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd", steps_refine=1)
        for call in (elbo, sample_refined):
            with pytest.raises(ConfigError) as info:
                call(rg, plain, 4, np.random.default_rng(0))
            assert info.value.field == "target"
        # with no refinement step only the bound calls the target
        with pytest.raises(ConfigError, match="log_density"):
            elbo(dataclasses.replace(rg, steps_refine=0), plain, 4, np.random.default_rng(0))

    def test_type_error_inside_target_propagates(self):
        def broken(z, ops):
            raise TypeError("inside the target")

        target = dataclasses.replace(GAUSS2, grad_log_density=broken)
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd", steps_refine=1)
        with pytest.raises(TypeError, match="inside the target"):
            elbo(rg, target, 4, np.random.default_rng(0))


def assert_gradients_match_finite_differences(rg, target, n=4, seed=8):
    """Full-mode bound gradients against central differences of the bound."""
    _, grads = elbo_grad(
        dataclasses.replace(rg, ad_mode="full"), target, n, np.random.default_rng(seed)
    )

    def value_at(mean, log_scale, log_eta):
        rg2 = dataclasses.replace(
            rg, guide=DiagonalGaussianGuide(mean, log_scale), log_eta=float(log_eta)
        )
        return elbo(rg2, target, n, np.random.default_rng(seed)).value

    base = {"mean": rg.guide.mean, "log_scale": rg.guide.log_scale,
            "log_eta": np.array(rg.log_eta)}
    step = 1e-6
    for key, x0 in base.items():
        fd = np.zeros(x0.shape)
        for i in np.ndindex(x0.shape):
            args = {k: v.copy() for k, v in base.items()}
            args[key][i] += step
            up = value_at(**args)
            args[key][i] -= 2 * step
            fd[i] = (up - value_at(**args)) / (2 * step)
        np.testing.assert_allclose(grads[key], fd, rtol=1e-5, atol=1e-8, err_msg=key)


class TestElboGrad:
    def test_fast_mode_step_size_gradient_exactly_zero(self):
        for mode in ("dirac", "markov"):
            rg = RefinedGuide(
                guide=unit_guide(),
                inner_sampler="sgld",
                steps_refine=2,
                entropy_mode=mode,
            )
            fast = dataclasses.replace(rg, ad_mode="fast")
            _, grads = elbo_grad(fast, FUNNEL, 8, np.random.default_rng(0))
            assert float(np.asarray(grads["log_eta"])) == 0.0
            assert np.linalg.norm(grads["mean"]) > 0

    def test_full_mode_step_size_gradient_matches_finite_differences(self):
        rg = RefinedGuide(
            guide=unit_guide(),
            inner_sampler="sgld",
            steps_refine=1,
            entropy_mode="dirac",
            ad_mode="full",
            log_eta=np.log(0.01),
        )
        _, grads = elbo_grad(rg, FUNNEL, 16, np.random.default_rng(3))

        def value_at(log_eta):
            rg2 = dataclasses.replace(rg, log_eta=float(log_eta))
            return elbo(rg2, FUNNEL, 16, np.random.default_rng(3)).value

        d = 1e-6
        fd = (value_at(rg.log_eta + d) - value_at(rg.log_eta - d)) / (2 * d)
        assert abs(float(grads["log_eta"]) - fd) / abs(fd) < 1e-4

    @pytest.mark.parametrize("sampler", ["svgd", "flow"])
    def test_full_mode_interacting_gradients_match_finite_differences(self, sampler):
        # a fixed bandwidth keeps the value a smooth function of the
        # parameters (the tape holds the median bandwidth constant)
        rg = RefinedGuide(
            guide=off_centre_guide(),
            inner_sampler=sampler,
            steps_refine=2,
            entropy_mode="dirac",
            log_eta=np.log(0.05),
            kernel_cfg=KernelConfig(bandwidth=1.5),
        )
        assert_gradients_match_finite_differences(rg, FUNNEL)

    @pytest.mark.parametrize("target", [MOE, MOG], ids=["moe", "mog"])
    @pytest.mark.parametrize("sampler", INNER_SAMPLERS)
    def test_mixture_gradients_match_finite_differences(self, sampler, target):
        rg = RefinedGuide(
            guide=off_centre_guide(target.dim),
            inner_sampler=sampler,
            steps_refine=2,
            log_eta=np.log(0.02),
            kernel_cfg=KernelConfig(bandwidth=1.5),
        )
        assert_gradients_match_finite_differences(rg, target)

    def test_full_and_fast_guide_gradients_agree_without_displacement(self):
        rg = RefinedGuide(
            guide=unit_guide(),
            inner_sampler="sgd",
            steps_refine=1,
            log_eta=np.log(1e-300),  # displacement numerically zero
        )
        full, fast = (
            elbo_grad(dataclasses.replace(rg, ad_mode=m), FUNNEL, 8, np.random.default_rng(4))[1]
            for m in ("full", "fast")
        )
        np.testing.assert_array_equal(full["mean"], fast["mean"])
        np.testing.assert_array_equal(full["log_scale"], fast["log_scale"])


class TestTighterBound:
    @pytest.mark.parametrize("target", [FUNNEL, GAUSS2], ids=["funnel", "gauss"])
    @pytest.mark.parametrize("eta", [1e-3, 1e-2])
    def test_single_ascent_step_tightens_bound(self, target, eta):
        wins = 0
        for seed in range(100):
            base = RefinedGuide(
                guide=unit_guide(), inner_sampler="sgd", steps_refine=0,
                log_eta=np.log(eta),
            )
            refined = dataclasses.replace(base, steps_refine=1)
            v0 = elbo(base, target, 1, np.random.default_rng(seed)).value
            v1 = elbo(refined, target, 1, np.random.default_rng(seed)).value
            wins += v1 >= v0
        assert wins >= 90


class TestKdeEntropyGrad:
    CFG = KernelConfig()

    def test_single_particle_zero(self):
        out = kde_entropy_grad(np.array([[0.4, -2.0]]), self.CFG)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_mirror_pair_antisymmetric(self):
        out = kde_entropy_grad(np.array([[1.0], [-1.0]]), self.CFG)
        assert out[0, 0] == pytest.approx(-out[1, 0], rel=1e-14)
        assert out[0, 0] > 0  # pushed away from the opposite particle

    def test_matches_kde_log_density_gradient(self):
        # oracle: complex-step derivative of the summed kernel-density
        # log-likelihood of the particle set (exact to machine precision)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 2))
        from steinmc.kernels import kernel_matrix

        h = kernel_matrix(z, self.CFG).bandwidth
        grad = kde_entropy_grad(z, self.CFG)

        def total_loglik(pos):
            total = 0.0
            for j in range(pos.shape[0]):
                diffs = pos[j] - pos
                sq = np.sum(diffs * diffs, axis=1)
                total = total + np.log(np.sum(np.exp(-sq / h)) / pos.shape[0])
            return total

        step = 1e-20
        oracle = np.zeros_like(z)
        for m in range(z.shape[0]):
            for c in range(z.shape[1]):
                zc = z.astype(complex).copy()
                zc[m, c] += 1j * step
                oracle[m, c] = np.imag(total_loglik(zc)) / step
        rel = np.max(np.abs(grad + oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_difference_tensor_form(self, n):
        # reference: the (L, L, d) pairwise-gradient tensor, summed with row
        # and column weights; the matrix form differs only in float rounding
        from steinmc.kernels import kernel_matrix

        rng = np.random.default_rng(n)
        for cfg in (self.CFG, KernelConfig(bandwidth=0.5)):
            for _ in range(25):
                z = rng.normal(size=(n, int(rng.integers(1, 5))))
                km = kernel_matrix(z, cfg)
                k, h, sums = km.entries, km.bandwidth, km.entries.sum(axis=1)
                grad_k = -(2.0 / h) * (z[:, None, :] - z[None, :, :]) * k[:, :, None]
                term1 = grad_k.sum(axis=1) / sums[:, None]
                ref = -(term1 + (grad_k / sums[None, :, None]).sum(axis=1))
                np.testing.assert_allclose(kde_entropy_grad(z, cfg), ref, rtol=1e-13, atol=1e-12)


def flow_steps(pos, target, steps, eta=0.05):
    """The shared refinement loop's flow step on plain numpy, `steps` times."""
    rg = RefinedGuide(
        guide=unit_guide(pos.shape[1]), inner_sampler="flow", steps_refine=steps
    )
    return refine._refine(rg, target, pos, eta, None, ad.numpy_ops)[-1]


class TestFlowStep:
    def test_single_particle_is_pure_ascent(self):
        z = np.array([[2.0, -1.0]])
        out = flow_steps(z, GAUSS2, 1, eta=0.1)
        np.testing.assert_allclose(out, z + 0.1 * (-z), rtol=1e-14)

    def test_long_run_variance_near_target(self):
        rng = np.random.default_rng(0)
        pos = 3.0 + 0.2 * rng.standard_normal((100, 1))
        pos = flow_steps(pos, targets.std_gaussian(1), 2000)
        assert 0.8 < pos.var() < 1.2

    def test_converged_configuration_is_fixed_point(self):
        rng = np.random.default_rng(1)
        t = targets.std_gaussian(1)
        pos = flow_steps(rng.standard_normal((40, 1)), t, 3000)
        residual = flow_steps(pos, t, 1) - pos
        assert np.max(np.abs(residual)) < 1e-3

    def test_eta_validation(self):
        with pytest.raises(ValueError, match="eta must be > 0"):
            flow_steps(np.zeros((2, 1)), GAUSS2, 1, eta=0.0)


class TestOneLoop:
    @pytest.mark.parametrize("target", [MOE, MOG], ids=["moe", "mog"])
    @pytest.mark.parametrize("sampler", INNER_SAMPLERS)
    def test_mixtures_refine_and_train(self, sampler, target):
        rg = RefinedGuide(
            guide=unit_guide(target.dim), inner_sampler=sampler, steps_refine=2,
            log_eta=np.log(0.02),
        )
        assert np.isfinite(elbo(rg, target, 8, np.random.default_rng(0)).value)
        rng = np.random.default_rng(1)
        res = optimize(rg, target, 5, rng, n_samples=8)
        assert np.all(np.isfinite(res.loss_trace))
        draws, _ = sample_refined(res.guide, target, 16, rng)
        assert draws.shape == (16, target.dim)

    @pytest.mark.parametrize("sampler", ["svgd", "flow"])
    def test_fixed_bandwidth_skips_the_median(self, sampler, monkeypatch):
        def no_median(sq):
            raise AssertionError("median bandwidth computed for a fixed bandwidth")

        monkeypatch.setattr(kernels, "median_bandwidth", no_median)
        rg = RefinedGuide(
            guide=unit_guide(), inner_sampler=sampler, steps_refine=2,
            kernel_cfg=KernelConfig(bandwidth=1.5),
        )
        elbo(rg, FUNNEL, 6, np.random.default_rng(0))
        sample_refined(rg, FUNNEL, 6, np.random.default_rng(0))
        with pytest.raises(AssertionError, match="median"):
            elbo(dataclasses.replace(rg, kernel_cfg=KernelConfig()), FUNNEL, 6,
                 np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_bnn_target_refuses_the_tape(self, steps):
        x = np.random.default_rng(0).normal(size=(20, 2))
        data = bnn.load_arrays(x, x[:, 0] - x[:, 1], seed=0)
        target = bnn.minibatch_target(bnn.BnnPotential(input_dim=2, hidden_dim=3), data, 5)
        rg = RefinedGuide(
            guide=unit_guide(target.dim), inner_sampler="sgd", steps_refine=steps
        )
        with pytest.raises(ConfigError) as info:
            elbo(rg, target, 4, np.random.default_rng(0))
        assert info.value.field == "target"


class TestOptimize:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda rg, rng: sample_refined(rg, GAUSS2, -1, rng), "n_samples must be >= 1"),
            (lambda rg, rng: elbo(rg, GAUSS2, -1, rng), "n_samples must be >= 1"),
            (lambda rg, rng: optimize(rg, GAUSS2, 0, rng), "outer_iterations must be >= 1"),
        ],
        ids=["sample_refined", "elbo", "optimize_outer_iterations"],
    )
    def test_bad_count_named_before_any_draw(self, call, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            call(RefinedGuide(guide=unit_guide(), inner_sampler="sgd"), rng)
        assert rng.bit_generator.state == state

    def test_trace_length_and_positive_scale(self):
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgld", steps_refine=1)
        res = optimize(rg, FUNNEL, 25, np.random.default_rng(0), n_samples=16)
        assert len(res.loss_trace) == 25
        assert res.guide.eta > 0

    def test_zero_step_training_recovers_gaussian_mean(self):
        center = np.array([1.2, -0.7])
        # one definition, run on the tape by the bound
        shifted = dataclasses.replace(
            GAUSS2,
            log_density=lambda z, ops: -0.5 * ops.reduce_sum((z - center) * (z - center), axis=-1),
            grad_log_density=lambda z, ops: -(z - center),
        )
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgd", steps_refine=0)
        res = optimize(
            rg, shifted, 400, np.random.default_rng(0), n_samples=32, learning_rate=0.03
        )
        assert np.max(np.abs(res.guide.guide.mean - center)) < 0.1

    def test_refined_training_beats_plain_on_matched_seed(self):
        plain = RefinedGuide(
            guide=unit_guide(), inner_sampler="sgld", steps_refine=0,
            log_eta=np.log(0.05),
        )
        refined = dataclasses.replace(plain, steps_refine=1)
        kwargs = dict(n_samples=64, learning_rate=0.08)
        r0 = optimize(plain, FUNNEL, 50, np.random.default_rng(0), **kwargs)
        r1 = optimize(refined, FUNNEL, 50, np.random.default_rng(0), **kwargs)
        assert r1.loss_trace[-1] < r0.loss_trace[-1]

    def test_tape_overflow_raises_divergence_at_first_iteration(self):
        # a wide guide and a large step overflow exp inside the funnel's
        # tape gradient on the first bound
        rg = RefinedGuide(
            guide=DiagonalGaussianGuide(np.zeros(2), np.full(2, 2.0)),
            inner_sampler="sgld", steps_refine=2, log_eta=np.log(3.0),
        )
        with pytest.raises(DivergenceError) as info:
            optimize(rg, FUNNEL, 10, np.random.default_rng(0), n_samples=64)
        assert info.value.iteration == 0
        assert info.value.snapshot.shape == (0,)

    def test_tape_overflow_carries_loss_trace_so_far(self):
        rg = RefinedGuide(
            guide=unit_guide(), inner_sampler="sgld", steps_refine=2, log_eta=np.log(3.0)
        )
        kwargs = dict(n_samples=64, learning_rate=0.08)
        with pytest.raises(DivergenceError) as info:
            optimize(rg, FUNNEL, 20, np.random.default_rng(0), **kwargs)
        it = info.value.iteration
        assert it >= 1
        # the snapshot is the trace of the iterations that completed
        done = optimize(rg, FUNNEL, it, np.random.default_rng(0), **kwargs)
        np.testing.assert_array_equal(info.value.snapshot, done.loss_trace)

    def test_second_moment_overflow_raises_divergence(self, monkeypatch):
        # a finite gradient whose square overflows would leave an infinite
        # second moment and a silently zero step for that parameter
        from steinmc import refine

        mean_grads = iter([1.0, 1e200])

        def huge_gradient(rg, target, n_samples, rng):
            g = np.full(2, next(mean_grads))
            return -1.0, {"mean": g, "log_scale": np.ones(2), "log_eta": np.zeros(())}

        monkeypatch.setattr(refine, "elbo_grad", huge_gradient)
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgld", steps_refine=1)
        with pytest.raises(DivergenceError) as info:
            optimize(rg, FUNNEL, 5, np.random.default_rng(0))
        assert info.value.iteration == 1
        np.testing.assert_array_equal(info.value.snapshot, [1.0])

    @pytest.mark.parametrize(
        "target, sampler, steps, ad_mode",
        [(FUNNEL, "sgld", 0, "full"), (FUNNEL, "sgld", 2, "full"),
         (FUNNEL, "sgld", 0, "fast"), (FUNNEL, "sgld", 2, "fast"),
         (targets.std_gaussian(3), "svgd", 2, "full")],
        ids=["funnel-T0-full", "funnel-T2-full", "funnel-T0-fast", "funnel-T2-fast",
             "gaussian3-svgd"],
    )
    def test_flat_adam_state_matches_per_key_loop_bitwise(self, target, sampler, steps, ad_mode):
        rg = RefinedGuide(
            guide=DiagonalGaussianGuide(np.linspace(-0.5, 0.5, target.dim), np.zeros(target.dim)),
            inner_sampler=sampler, steps_refine=steps, ad_mode=ad_mode, log_eta=np.log(0.05),
        )
        res = optimize(rg, target, 20, np.random.default_rng(3), n_samples=16, learning_rate=0.08)
        trace, guide = per_key_adam(rg, target, 20, np.random.default_rng(3), 16, 0.08)
        assert np.array_equal(res.loss_trace, trace)
        assert np.array_equal(res.guide.guide.mean, guide.guide.mean)
        assert np.array_equal(res.guide.guide.scale, guide.guide.scale)
        assert res.guide.eta == guide.eta

    def test_inference_phase_runs_tuned_sampler(self):
        # train through one refinement step, then draw through four
        rg = RefinedGuide(guide=unit_guide(), inner_sampler="sgld", steps_refine=1)
        rng = np.random.default_rng(2)
        res = optimize(rg, FUNNEL, 5, rng, n_samples=8)
        draws, _ = sample_refined(dataclasses.replace(res.guide, steps_refine=4), FUNNEL, 32, rng)
        assert draws.shape == (32, 2)
        assert np.all(np.isfinite(draws))


def per_key_adam(rg, target, outer_iterations, rng, n_samples, learning_rate):
    """Reference: optimize's Adam loop with one state per parameter, as it was
    written before the state became one flat vector.  Returns (trace, guide)."""
    params = {
        "mean": rg.guide.mean.copy(),
        "log_scale": rg.guide.log_scale.copy(),
        "log_eta": np.asarray(float(rg.log_eta)),
    }

    def current():
        guide = DiagonalGaussianGuide(params["mean"], params["log_scale"])
        return dataclasses.replace(rg, guide=guide, log_eta=float(params["log_eta"]))

    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2, stab = 0.9, 0.999, 1e-8
    trace = []
    for it in range(outer_iterations):
        value, grads = elbo_grad(current(), target, n_samples, rng)
        for key, g in grads.items():
            m[key] = b1 * m[key] + (1 - b1) * g
            v[key] = b2 * v[key] + (1 - b2) * g * g
        trace.append(-value)
        for key in params:
            mhat = m[key] / (1 - b1 ** (it + 1))
            vhat = v[key] / (1 - b2 ** (it + 1))
            params[key] = params[key] + learning_rate * mhat / (np.sqrt(vhat) + stab)
    return np.asarray(trace), current()
