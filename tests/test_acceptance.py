"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (visible with -s or -v plus -rA) after its
assertions, so the suite doubles as a checklist.  Module-scoped fixtures
share the heavier benchmark runs between criteria.
"""

import dataclasses
import json

import numpy as np
import pytest

from steinmc import autodiff as ad
from steinmc import bnn, cli, samplers, targets
from steinmc.diagnostics import fp_residual
from steinmc.kernels import KernelConfig, kernel_matrix
from steinmc.refine import DiagonalGaussianGuide, RefinedGuide, elbo, kde_entropy_grad
from steinmc.samplers import (
    CollectionPolicy,
    MomentumState,
    ParticleEnsemble,
    StepSchedule,
    momentum_block_matrix,
    repulsive_adam_step,
    repulsive_sgdm_step,
)
from steinmc.targets import TargetModel, std_gaussian

SEEDS = [0, 1, 2, 3, 4]


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def bench(pytestconfig):
    rows = cli.bench_rows(SEEDS)
    out = {}
    for dist, kind, seed, ess, _, err1, err2 in rows:
        out.setdefault((dist, kind), []).append({"seed": seed, "ess": ess, "err": err1})
    return out


class TestCriterion01MoeMomentError:
    def test_moe_error_median_and_ordering(self, bench):
        rep = [r["err"] for r in bench[("moe", "repulsive_sgld")]]
        plain = [r["err"] for r in bench[("moe", "sgld")]]
        median_rep = float(np.median(rep))
        wins = sum(r <= p for r, p in zip(rep, plain))
        assert median_rep <= 0.25
        assert wins >= 4
        report(
            "criterion 1 (exponential-mixture moment error)",
            f"repulsive median {median_rep:.3f} <= 0.25; better on {wins}/5 seeds",
        )


class TestCriterion02MogMomentError:
    def test_mog_combined_error_ordering(self, bench):
        rep = [r["err"] for r in bench[("mog", "repulsive_sgld")]]
        plain = [r["err"] for r in bench[("mog", "sgld")]]
        wins = sum(r <= p for r, p in zip(rep, plain))
        assert wins >= 4
        report(
            "criterion 2 (Gaussian-grid combined moment error)",
            f"repulsive better on {wins}/5 seeds "
            f"(medians {np.median(rep):.3f} vs {np.median(plain):.3f})",
        )


class TestCriterion03EssOrdering:
    def test_moe_ess_median_ordering(self, bench):
        rep = float(np.median([r["ess"] for r in bench[("moe", "repulsive_sgld")]]))
        plain = float(np.median([r["ess"] for r in bench[("moe", "sgld")]]))
        assert rep >= plain
        report(
            "criterion 3 (effective sample size ordering)",
            f"repulsive median ESS {rep:.1f} >= plain {plain:.1f}",
        )


class TestCriterion04VarianceUnderestimation:
    def test_deterministic_flow_underestimates_spread(self):
        t = std_gaussian(2)
        svgd_stds, rep_stds = [], []
        for seed in SEEDS:
            svgd = samplers.run(
                samplers.RunSpec(
                    "svgd", n_particles=6, iterations=200, schedule=StepSchedule(eps0=0.1),
                    policy=CollectionPolicy(burn_in=199, thin=1), init_mean=[3.0, 3.0],
                    init_std=0.5,
                ),
                t, seed,
            )
            rep = samplers.run(
                samplers.RunSpec(
                    "repulsive_sgld", n_particles=6, iterations=3000,
                    schedule=StepSchedule(eps0=0.3), policy=CollectionPolicy(burn_in=500, thin=5),
                ),
                t, seed,
            )
            svgd_stds.append(svgd.samples.std(axis=0).mean())
            rep_stds.append(rep.samples.std(axis=0).mean())
        svgd_med, rep_med = float(np.median(svgd_stds)), float(np.median(rep_stds))
        assert svgd_med < rep_med
        assert 0.7 <= rep_med <= 1.3
        report(
            "criterion 4 (deterministic flow underestimates spread)",
            f"flow median std {svgd_med:.3f} < noisy sampler {rep_med:.3f} in [0.7, 1.3]",
        )


class TestCriterion05StationarityCertificates:
    def test_transport_residuals(self):
        t = std_gaussian(1)
        with_noise = fp_residual(t, lambda z: -z, 1.0, -6, 6, 2000)
        without_noise = fp_residual(t, lambda z: -z, 0.0, -6, 6, 2000)
        assert with_noise < 1e-4
        assert without_noise > 0.05
        report(
            "criterion 5 (transport-equation certificates)",
            f"residual {with_noise:.2e} < 1e-4 with diffusion; "
            f"{without_noise:.3f} > 0.05 without",
        )


class TestCriterion06ReductionIdentities:
    def test_single_particle_bitwise_reduction(self):
        kwargs = dict(
            n_particles=1, iterations=300,
            schedule=StepSchedule(eps0=0.01),
            policy=CollectionPolicy(burn_in=100, thin=1),
        )
        a = samplers.run(samplers.RunSpec("sgld", **kwargs), std_gaussian(3), 42)
        b = samplers.run(samplers.RunSpec("repulsive_sgld", **kwargs), std_gaussian(3), 42)
        assert np.array_equal(a.samples, b.samples)

    def test_unit_mass_adaptive_step_matches_momentum_step(self):
        dim = 2
        t = TargetModel(
            name="linear", dim=dim,
            log_density=lambda z: float(-np.sum(z)),
            grad_log_density=lambda z: -np.ones_like(z),
        )
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, dim))
        m0 = rng.normal(size=(4, dim))
        beta1, eps = 0.7, 0.05
        fixed = KernelConfig(bandwidth=1.0, bandwidth_mode="fixed")

        adam_ens, _ = repulsive_adam_step(
            ParticleEnsemble(z.copy()),
            MomentumState(m0.copy(), second_moments=np.ones((4, dim)),
                          beta1=beta1, beta2=0.4, stabilizer=0.0),
            t, kernel_matrix(z, fixed), eps, np.random.default_rng(7),
        )
        m1 = beta1 * m0 + (1 - beta1) * np.ones((4, dim))
        sgdm_ens, _ = repulsive_sgdm_step(
            ParticleEnsemble(z.copy()), MomentumState(m1), t, kernel_matrix(z, fixed), eps,
            rng=np.random.default_rng(7), position_noise=True,
        )
        assert np.max(np.abs(adam_ens.positions - sgdm_ens.positions)) < 1e-12

    def test_momentum_block_matrix_skew_symmetry(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            km = kernel_matrix(rng.normal(size=(n, 3)), KernelConfig())
            q = momentum_block_matrix(km)
            assert np.array_equal(q, -q.T)
        report(
            "criterion 6 (reduction identities)",
            "single-particle bitwise; unit-mass match < 1e-12; exact skew symmetry",
        )


class TestCriterion07AutodiffGradcheck:
    def test_primitive_and_composite_gradients(self):
        rng = np.random.default_rng(0)

        def fd(f, x, step=1e-6):
            g = np.zeros_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                g[i] = (f(xp) - f(xm)) / (2 * step)
            return g

        prims = {
            "add": lambda x: ad.add(x, ad.mul(3.0, x)),
            "mul": lambda x: ad.mul(x, x),
            "neg": lambda x: ad.neg(x),
            "exp": lambda x: ad.exp(x),
            "log": lambda x: ad.log(ad.add(ad.mul(x, x), 1.0)),
            "tanh": lambda x: ad.tanh(x),
            "relu": lambda x: ad.relu(x),
            "div": lambda x: ad.div(1.0, ad.add(ad.mul(x, x), 2.0)),
            "gaussian_log_pdf": lambda x: ad.gaussian_log_pdf(
                x, ad.constant(np.zeros(3)), ad.constant(np.ones(3))
            ),
            "dot": lambda x: ad.mul(ad.dot(x, x), ad.constant(1.0)),
            "reduce_sum": lambda x: ad.mul(2.0, ad.reduce_sum(x)),
        }
        worst = 0.0
        for name, build in prims.items():
            x0 = rng.uniform(0.2, 1.0, size=3)
            leaf = ad.leaf(x0)
            out = build(leaf)
            out = out if out.value.shape == () else ad.reduce_sum(out)
            ad.backward(out)

            def f(v, build=build):
                o = build(ad.constant(v))
                return float(np.sum(o.value))

            numeric = fd(f, x0)
            scale = np.maximum(1.0, np.abs(numeric))
            worst = max(worst, float(np.max(np.abs(leaf.grad - numeric) / scale)))
        assert worst < 1e-5

        # randomized 50-node composite
        def composite(vals, as_leaf):
            rng2 = np.random.default_rng(99)
            mk = ad.leaf if as_leaf else ad.constant
            pool = [mk(float(v)) for v in vals]
            leaves = list(pool)
            ops = [
                lambda a, b: ad.add(a, b),
                lambda a, b: ad.mul(a, ad.tanh(b)),
                lambda a, b: ad.tanh(ad.add(a, ad.mul(0.5, b))),
                lambda a, b: ad.div(a, ad.add(ad.exp(ad.tanh(b)), 1.0)),
                lambda a, b: ad.mul(0.3, ad.add(ad.exp(ad.tanh(a)), b)),
            ]
            idx = rng2.integers(0, len(ops), size=50)
            picks = rng2.integers(0, 10_000, size=(50, 2))
            for k in range(50):
                pool.append(ops[idx[k]](pool[picks[k, 0] % len(pool)],
                                        pool[picks[k, 1] % len(pool)]))
            return pool[-1], leaves

        base = rng.uniform(-1, 1, size=6)
        out, leaves = composite(base, as_leaf=True)
        ad.backward(out)
        grads = np.array([0.0 if l.grad is None else float(l.grad) for l in leaves])
        numeric = fd(lambda v: float(composite(v, as_leaf=False)[0].value), base)
        scale = np.maximum(1.0, np.abs(numeric))
        comp_err = float(np.max(np.abs(grads - numeric) / scale))
        assert comp_err < 1e-5

        # stop-gradient blocks exactly
        x = ad.leaf(1.7)
        y = ad.add(ad.stop_gradient(ad.mul(x, x)), ad.mul(0.0, x))
        ad.backward(y)
        assert float(x.grad) == 0.0
        report(
            "criterion 7 (gradient checks)",
            f"primitives worst rel err {worst:.1e}; composite {comp_err:.1e}; "
            "stop-gradient exactly zero",
        )


class TestCriterion08FunnelRefinement:
    def test_refined_training_gap(self):
        finals = {0: [], 1: []}
        for steps in (0, 1):
            for seed in range(10):
                result = cli.funnel_trace(steps, seed)
                assert len(result.loss_trace) == 50
                finals[steps].append(result.loss_trace[-1])
        gap = float(np.median(finals[0]) - np.median(finals[1]))
        assert gap >= 0.15
        report(
            "criterion 8 (funnel refinement gap)",
            f"median final loss gap {gap:.3f} >= 0.15 nats over 10 seeds",
        )


class TestCriterion09TighterBound:
    def test_single_step_refinement_tightens_bound(self):
        results = []
        for t in (targets.funnel(), std_gaussian(2)):
            for eta in (1e-3, 1e-2):
                wins = 0
                for seed in range(100):
                    guide = DiagonalGaussianGuide(np.zeros(2), np.zeros(2))
                    base = RefinedGuide(
                        guide=guide, inner_sampler="sgd", steps_refine=0,
                        log_eta=float(np.log(eta)),
                    )
                    refined = dataclasses.replace(base, steps_refine=1)
                    v0 = elbo(base, t, 1, np.random.default_rng(seed)).value
                    v1 = elbo(refined, t, 1, np.random.default_rng(seed)).value
                    wins += v1 >= v0
                assert wins >= 90
                results.append(wins)
        report(
            "criterion 9 (tighter bound)",
            f"refined >= plain on {min(results)}-{max(results)}/100 seeds "
            "across targets and step sizes",
        )


class TestCriterion10KdeIdentity:
    def test_entropy_gradient_matches_kde_log_density_gradient(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 2))
        cfg = KernelConfig()
        h = kernel_matrix(z, cfg).bandwidth
        grad = kde_entropy_grad(z, cfg)

        def total_loglik(pos):
            total = 0.0
            for j in range(pos.shape[0]):
                diffs = pos[j] - pos
                total = total + np.log(
                    np.sum(np.exp(-np.sum(diffs * diffs, axis=1) / h)) / pos.shape[0]
                )
            return total

        oracle = np.zeros_like(z)
        step = 1e-20
        for m in range(50):
            for c in range(2):
                zc = z.astype(complex).copy()
                zc[m, c] += 1j * step
                oracle[m, c] = np.imag(total_loglik(zc)) / step
        rel = float(np.max(np.abs(grad + oracle)) / np.max(np.abs(oracle)))
        assert rel < 1e-8
        report(
            "criterion 10 (kernel-density entropy-gradient identity)",
            f"max rel deviation {rel:.1e} < 1e-8 at 50 particles",
        )


class TestCriterion11BnnProtocol:
    def _linear_dataset(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 4))
        y = x @ rng.normal(size=4) + 0.1 * rng.standard_normal(500)
        return bnn.load_arrays(x, y, split_fraction=0.9, seed=0, name="linear")

    def _public_dataset(self):
        sklearn_datasets = pytest.importorskip("sklearn.datasets")
        d = sklearn_datasets.load_diabetes()
        return bnn.load_arrays(d.data, d.target, split_fraction=0.9, seed=0,
                               name="diabetes")

    def _assert_finite_protocol(self, ds):
        metrics = {}
        for sampler in ("sgld", "repulsive_sgld"):
            payload = cli.bnn_report(ds, sampler, seed=0)
            assert np.isfinite(payload["rmse"])
            assert np.isfinite(payload["test_ll"])
            metrics[(ds.name, sampler)] = payload["rmse"]
        return metrics

    def test_linear_protocol_and_unbiasedness(self):
        metrics = self._assert_finite_protocol(self._linear_dataset())

        # minibatch unbiasedness over an exhaustive disjoint partition
        rng = np.random.default_rng(1)
        pot = bnn.BnnPotential(input_dim=4)
        ds = self._linear_dataset()
        theta = rng.normal(size=pot.n_params) * 0.3
        x, y = ds.features_train[:400], ds.targets_train[:400]
        full = pot.potential_grad(theta, x, y, 400)
        parts = [
            pot.potential_grad(theta, x[i : i + 100], y[i : i + 100], 400)
            for i in range(0, 400, 100)
        ]
        rel = np.max(np.abs(np.mean(parts, axis=0) - full)) / max(
            1.0, np.max(np.abs(full))
        )
        assert rel < 1e-12
        report(
            "criterion 11 (network-regression protocol, linear data)",
            f"finite metrics for {sorted(metrics)}; partition bias {rel:.1e} < 1e-12",
        )

    def test_public_dataset_protocol(self):
        metrics = self._assert_finite_protocol(self._public_dataset())
        report(
            "criterion 11 (network-regression protocol, diabetes data)",
            f"finite metrics for {sorted(metrics)}",
        )


def criterion12_invocations(tmp_path, data_csv):
    """Criterion 12's argv per command, without ``--out``."""
    config = {
        "schema_version": 1,
        "target": {"name": "moe"},
        "samplers": [
            {"name": "repulsive_sgld", "particles": 5, "step_size": 0.5},
        ],
        "iterations": 300,
        "collection": {"burn_in": 100, "thin": 10},
        "seeds": [0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return {
        "run": ["run", "--config", str(cfg_path)],
        "bench-synthetic": ["bench-synthetic", "--seed", "0"],
        "vis-funnel": ["vis-funnel", "--seed", "3"],
        "bnn": ["bnn", "--data", data_csv, "--target-column", "y",
                "--sampler", "sgld", "--seed", "0"],
    }


class TestCriterion12Determinism:
    def _assert_identical_trees(self, a, b):
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_every_command_rerun_is_byte_identical(self, tmp_path, data_csv_small):
        invocations = criterion12_invocations(tmp_path, data_csv_small)
        for name, argv in invocations.items():
            dir_a, dir_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
            assert cli.main(argv + ["--out", str(dir_a)]) == 0
            assert cli.main(argv + ["--out", str(dir_b)]) == 0
            self._assert_identical_trees(dir_a, dir_b)
        report(
            "criterion 12 (byte-level reproducibility)",
            "all four commands re-ran byte-identically",
        )


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")  # RFC 8259 has no NaN or Infinity


# bench-synthetic writes no JSON; the last case is a valid run whose second
# moment overflows (step 400 throws the log-space particles far out)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["run", "vis-funnel", "bnn", "run-moe-step400"])
def test_json_artifacts_are_strict_json(tmp_path, data_csv_small, name):
    config = {
        "schema_version": 1,
        "target": {"name": "moe"},
        "samplers": [{"name": "sgld", "particles": 10, "step_size": 400}],
        "iterations": 200,
        "collection": {"burn_in": 0, "thin": 1},
        "seeds": [0],
    }
    (tmp_path / "step400.json").write_text(json.dumps(config))
    invocations = {
        **criterion12_invocations(tmp_path, data_csv_small),
        "run-moe-step400": ["run", "--config", str(tmp_path / "step400.json")],
    }
    assert cli.main(invocations[name] + ["--out", str(tmp_path / "out")]) == 0
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=reject_constant)


@pytest.fixture(scope="module")
def data_csv_small(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(150, 3))
    y = x @ np.array([0.5, -1.0, 2.0]) + 0.1 * rng.standard_normal(150)
    path = tmp_path_factory.mktemp("bnn") / "tiny.csv"
    with open(path, "w") as fh:
        fh.write("a,b,c,y\n")
        for row, t in zip(x, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(t)!r}\n")
    return str(path)
