"""Sampler-refined variational approximation.

A diagonal Gaussian guide is pushed through T steps of an inner sampler with
learnable step size; the resulting implicit density is trained by ascending a
refined evidence lower bound.  Four entropy treatments are available:

* ``dirac``    - endpoint particles as a Dirac mixture; the guide's
                 closed-form entropy is kept as a regularizer.
* ``markov``   - joint factorization over the refinement path; each
                 stochastic transition contributes its closed-form Gaussian
                 entropy (d/2) log(4 pi e eta).
* ``gaussian`` - Gaussian of guide scale placed at the endpoint; for an
                 unconditional diagonal guide its entropy equals the guide's.
* ``flow``     - deterministic density flow whose entropy-gradient term is
                 estimated by kernel smoothing; requires a deterministic
                 inner sampler.

Two differentiation modes: ``full`` differentiates through the refinement
displacement (the step size receives a gradient); ``fast`` wraps the
displacement in a stop-gradient, so the step-size gradient is exactly zero
while guide gradients still flow through the initial draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import kernels, samplers
from .errors import ConfigError, DivergenceError
from .kernels import KernelConfig
from .targets import TargetModel

ENTROPY_MODES = ("dirac", "markov", "gaussian", "flow")
INNER_SAMPLERS = ("sgd", "sgld", "svgd", "flow")
AD_MODES = ("full", "fast")

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class DiagonalGaussianGuide:
    """Diagonal Gaussian with log-parameterized scales."""

    mean: np.ndarray
    log_scale: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.log_scale = np.asarray(self.log_scale, dtype=float)
        if self.mean.shape != self.log_scale.shape:
            raise ValueError("mean and log_scale must share a shape")

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def scale(self) -> np.ndarray:
        return np.exp(self.log_scale)

    def entropy(self) -> float:
        return float(np.sum(self.log_scale) + 0.5 * self.dim * (1.0 + _LOG_2PI))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.scale * rng.standard_normal((n, self.dim))

    def log_density(self, z: np.ndarray) -> float:
        s = self.scale
        u = (np.asarray(z, dtype=float) - self.mean) / s
        return float(-0.5 * np.dot(u, u) - np.sum(self.log_scale) - 0.5 * self.dim * _LOG_2PI)


@dataclass
class RefinedGuide:
    """Guide plus inner sampler configuration.

    With ``steps_refine`` = 0 the refined approximation coincides with the
    plain guide.  The inner step size is stored as ``log_eta`` so it stays
    positive while being tuned.
    """

    guide: DiagonalGaussianGuide
    inner_sampler: str = "sgd"
    log_eta: float = math.log(1e-2)
    steps_refine: int = 1
    steps_infer: int = 0
    entropy_mode: str = "dirac"
    ad_mode: str = "full"
    kernel_cfg: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.inner_sampler not in INNER_SAMPLERS:
            raise ConfigError(
                f"unknown inner sampler {self.inner_sampler!r}", field="inner_sampler"
            )
        if self.entropy_mode not in ENTROPY_MODES:
            raise ConfigError(
                f"unknown entropy mode {self.entropy_mode!r}", field="entropy_mode"
            )
        if self.ad_mode not in AD_MODES:
            raise ConfigError(f"unknown ad mode {self.ad_mode!r}", field="ad_mode")
        if self.steps_refine < 0 or self.steps_infer < 0:
            raise ConfigError("step counts must be >= 0", field="steps_refine")
        if self.entropy_mode == "flow" and self.inner_sampler == "sgld":
            raise ConfigError(
                "flow entropy requires a deterministic inner sampler",
                field="entropy_mode",
            )

    @property
    def eta(self) -> float:
        return math.exp(self.log_eta)


def kde_entropy_grad(positions: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Kernel-smoothed estimate of -grad log q at each particle.

    Row m is the negative gradient, with respect to particle m, of the summed
    kernel-density log-likelihood of all particles:

        row_m = - sum_n grad_m K(z_m, z_n) / sum_n K(z_m, z_n)
                - sum_l grad_m K(z_m, z_l) / sum_n K(z_n, z_l)

    A single particle yields exactly zero.
    """
    positions = np.asarray(positions, dtype=float)
    km = kernels.kernel_matrix(positions, cfg)
    k = km.entries
    h = km.bandwidth
    # row m: (2/h) sum_l W_ml (z_m - z_l) with W_ml = K_ml (1/S_m + 1/S_l)
    sums = k.sum(axis=1)
    weights = k / sums[:, None] + k / sums
    return (2.0 / h) * (positions * weights.sum(axis=1)[:, None] - weights @ positions)


def flow_step(
    positions: np.ndarray, target: TargetModel, cfg: KernelConfig, eta: float
) -> np.ndarray:
    """Deterministic density-flow update z + eta (score + entropy gradient).

    The entropy-gradient term estimates -grad log q via kernel smoothing, so
    the flow transports the particle density toward the target.
    """
    if not eta > 0:
        raise ValueError("eta must be > 0")
    scores = target.grad_log_density(positions)
    return positions + eta * (scores + kde_entropy_grad(positions, cfg))


@np.errstate(over="ignore", invalid="ignore")  # each step is checked for finiteness
def _numeric_refine(
    rg: RefinedGuide,
    target: TargetModel,
    z: np.ndarray,
    steps: int,
    eta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[np.ndarray]]:
    trajectory = [z.copy()]
    for t in range(steps):
        ensemble = samplers.ParticleEnsemble(z, t)
        if rg.inner_sampler == "sgld":
            z = samplers.sgld_step(ensemble, target, eta, rng).positions
        elif rg.inner_sampler == "svgd":
            z = samplers.svgd_step(ensemble, target, rg.kernel_cfg, eta).positions
        elif rg.inner_sampler == "sgd":
            z = z + eta * target.grad_log_density(z)
        else:  # flow
            z = flow_step(z, target, rg.kernel_cfg, eta)
        samplers._check_finite(z, t + 1)
        trajectory.append(z.copy())
    return z, trajectory


def sample_refined(
    rg: RefinedGuide, target: TargetModel, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw guide samples and push them through the refinement steps.

    Returns the refined draws and the full trajectory (one array per step,
    starting with the guide draws).  The draw is unaffected by the entropy
    mode; given the same rng state the samples are identical across modes.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    z0 = rg.guide.sample(n_samples, rng)
    return _numeric_refine(rg, target, z0, rg.steps_refine, rg.eta, rng)


# ---------------------------------------------------------------------------
# tape-side construction


def _kernel_drift(k: ad.Node, z: ad.Node) -> ad.Node:
    """Row i: sum_l k_il (z_i - z_l), for an m x m weight node k."""
    return ad.mul(z, ad.reshape(ad.reduce_sum(k, axis=1), (-1, 1))) - ad.matmul(k, z)


def _tape_refine(rg, target, z, eta_node, n_steps, rng):
    """Unroll the inner sampler on the tape over the whole (m, d) batch.

    Each step is a fixed number of array nodes whatever m is; noise enters
    as constants.  The kernel bandwidth is treated as a constant of the
    current positions (a median statistic, not differentiated).
    """
    if n_steps and target.ad_grad_log_density is None:
        raise ConfigError(
            f"target {target.name!r} exposes no differentiable gradient",
            field="target",
        )
    wrap = ad.stop_gradient if rg.ad_mode == "fast" else (lambda x: x)
    m, d = z.value.shape
    if rg.inner_sampler == "sgld":
        root = ad.exp(ad.mul(0.5, ad.log(ad.mul(2.0, eta_node))))  # sqrt(2 eta)
    for step in range(n_steps):
        scores = target.ad_grad_log_density(z)
        if scores.value.shape != (m, d):
            raise ConfigError(
                f"target {target.name!r} returned tape scores of shape "
                f"{scores.value.shape}; expected {(m, d)}",
                field="target",
            )
        if rg.inner_sampler in ("sgd", "sgld"):
            delta = ad.mul(eta_node, scores)
            if rg.inner_sampler == "sgld":
                xi = ad.constant(rng.standard_normal((m, d)))
                delta = ad.add(delta, ad.mul(root, xi))
        else:
            h, _ = kernels.median_bandwidth(kernels.squared_distances(z.value))
            if rg.kernel_cfg.bandwidth_mode == "fixed":
                h = rg.kernel_cfg.bandwidth
            diff = ad.reshape(z, (m, 1, d)) - ad.reshape(z, (1, m, d))
            k = ad.exp(ad.mul(-1.0 / h, ad.reduce_sum(ad.mul(diff, diff), axis=-1)))
            if rg.inner_sampler == "svgd":
                # (1/m) [K @ scores + (2/h) sum_l K_il (z_i - z_l)]
                phi = ad.add(ad.matmul(k, scores), ad.mul(2.0 / h, _kernel_drift(k, z)))
                delta = ad.mul(eta_node, ad.div(phi, float(m)))
            else:
                # flow: score + kernel-smoothed -grad log q, whose row i is
                # (2/h) sum_l K_il (1/S_i + 1/S_l) (z_i - z_l) with S = K's row sums
                sums = ad.reduce_sum(k, axis=1)
                weights = ad.add(ad.div(k, ad.reshape(sums, (-1, 1))), ad.div(k, sums))
                ent = ad.mul(2.0 / h, _kernel_drift(weights, z))
                delta = ad.mul(eta_node, ad.add(scores, ent))
        z = ad.add(z, wrap(delta))
        samplers._check_finite(z.value, step + 1)
    return z


@dataclass
class ElboTape:
    """Objective node plus the parameter leaves it depends on."""

    objective: ad.Node
    mean: ad.Node
    log_scale: ad.Node
    log_eta: ad.Node
    samples: np.ndarray

    @property
    def value(self) -> float:
        return float(self.objective.value)


def elbo(
    rg: RefinedGuide, target: TargetModel, n_samples: int, rng: np.random.Generator
) -> ElboTape:
    """Monte-Carlo refined lower bound as a differentiable tape.

    The bound averages the target log density at the refined draws and adds
    the entropy term selected by the guide's entropy mode.  At zero
    refinement steps every mode reduces to the plain bound
    E[log p(z0)] + H(guide).
    """
    if target.ad_log_density is None:
        raise ConfigError(
            f"target {target.name!r} has no tape log-density", field="target"
        )
    guide = rg.guide
    d = guide.dim
    full = rg.ad_mode == "full"
    mean = ad.leaf(guide.mean)
    log_scale = ad.leaf(guide.log_scale)
    log_eta = ad.leaf(float(rg.log_eta), requires_grad=full)
    eta_node = ad.exp(log_eta) if full else ad.constant(rg.eta)
    scale = ad.exp(log_scale)

    xi = ad.constant(rng.standard_normal((n_samples, d)))
    z = _tape_refine(rg, target, mean + scale * xi, eta_node, rg.steps_refine, rng)
    avg_logp = ad.div(ad.reduce_sum(target.ad_log_density(z)), float(n_samples))

    # closed-form guide entropy; differentiable in log_scale
    guide_entropy = ad.add(ad.reduce_sum(log_scale), 0.5 * d * (1.0 + _LOG_2PI))
    entropy = guide_entropy
    if rg.entropy_mode == "markov" and rg.inner_sampler == "sgld":
        # each transition is Gaussian with covariance 2 eta I
        per_step = ad.add(
            ad.mul(0.5 * d, ad.log(ad.mul(2.0, eta_node))),
            0.5 * d * (1.0 + _LOG_2PI),
        )
        for _ in range(rg.steps_refine):
            entropy = ad.add(entropy, per_step)

    objective = ad.add(avg_logp, entropy)
    return ElboTape(objective, mean, log_scale, log_eta, z.value)


def elbo_grad(
    rg: RefinedGuide,
    target: TargetModel,
    n_samples: int,
    rng: np.random.Generator,
    mode: str | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Value and gradients of the refined bound for (mean, log_scale, log_eta).

    Fast mode blocks the refinement displacement, so the step-size gradient
    is exactly zero and guide gradients flow only through the initial draw.
    """
    if mode is not None:
        rg = replace(rg, ad_mode=mode)
    tape = elbo(rg, target, n_samples, rng)
    ad.backward(tape.objective)
    grads = {
        "mean": np.asarray(tape.mean.grad, dtype=float),
        "log_scale": np.asarray(tape.log_scale.grad, dtype=float),
        "log_eta": np.zeros(())
        if tape.log_eta.grad is None
        else np.asarray(tape.log_eta.grad, dtype=float),
    }
    return tape.value, grads


@dataclass
class OptimizeResult:
    guide: RefinedGuide
    loss_trace: np.ndarray  # negative bound per outer iteration
    inference_samples: np.ndarray | None


def optimize(
    rg: RefinedGuide,
    target: TargetModel,
    outer_iterations: int,
    rng: np.random.Generator,
    *,
    n_samples: int = 16,
    learning_rate: float = 0.05,
    inference_samples: int = 0,
) -> OptimizeResult:
    """Adaptive gradient ascent on the refined bound.

    Updates the guide parameters (and the inner step size in full mode) for
    ``outer_iterations`` steps, then optionally runs the tuned sampler for
    ``steps_infer`` refinement steps from the learned guide.  Aborts with a
    DivergenceError on a non-finite objective, gradient or refinement step,
    naming the outer iteration and attaching the loss trace so far.
    """
    if outer_iterations < 1:
        raise ValueError("outer_iterations must be >= 1")
    guide = rg
    params = {
        "mean": guide.guide.mean.copy(),
        "log_scale": guide.guide.log_scale.copy(),
        "log_eta": np.asarray(float(guide.log_eta)),
    }
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2, stab = 0.9, 0.999, 1e-8

    trace = []
    for it in range(outer_iterations):
        current = replace(
            guide,
            guide=DiagonalGaussianGuide(params["mean"], params["log_scale"]),
            log_eta=float(params["log_eta"]),
        )
        try:
            value, grads = elbo_grad(current, target, n_samples, rng)
        except (ad.NonFiniteError, DivergenceError) as err:
            particle = getattr(err, "particle", -1)
            raise DivergenceError(it, particle, snapshot=np.array(trace)) from err
        with np.errstate(over="ignore"):  # an inf second moment would zero its step
            for key, g in grads.items():
                m[key] = b1 * m[key] + (1 - b1) * g
                v[key] = b2 * v[key] + (1 - b2) * g * g
        if not all(np.isfinite(x).all() for x in (value, *grads.values(), *v.values())):
            raise DivergenceError(iteration=it, particle=-1, snapshot=np.array(trace))
        trace.append(-value)
        for key in params:
            mhat = m[key] / (1 - b1 ** (it + 1))
            vhat = v[key] / (1 - b2 ** (it + 1))
            params[key] = params[key] + learning_rate * mhat / (np.sqrt(vhat) + stab)

    trained = replace(
        guide,
        guide=DiagonalGaussianGuide(params["mean"], params["log_scale"]),
        log_eta=float(params["log_eta"]),
    )
    inferred = None
    if inference_samples > 0:
        infer_guide = replace(trained, steps_refine=trained.steps_infer)
        inferred, _ = sample_refined(infer_guide, target, inference_samples, rng)
    return OptimizeResult(
        guide=trained, loss_trace=np.asarray(trace), inference_samples=inferred
    )
