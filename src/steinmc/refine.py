"""Sampler-refined variational approximation.

A diagonal Gaussian guide is pushed through T steps of an inner sampler with
learnable step size; the resulting implicit density is trained by ascending a
refined evidence lower bound.  The inner samplers are ``sgd`` (score ascent),
``sgld`` (Langevin), ``svgd`` (Stein variational gradient) and ``flow``
(score plus a kernel-smoothed estimate of -grad log q, a deterministic
density flow).  Two entropy treatments are available:

* ``dirac``  - endpoint particles as a Dirac mixture; the guide's
               closed-form entropy is kept as a regularizer.
* ``markov`` - joint factorization over the refinement path; each
               stochastic transition contributes its closed-form Gaussian
               entropy (d/2) log(4 pi e eta).  Only ``sgld`` has stochastic
               transitions, so the other inner samplers reject it.

One refinement loop serves both uses: written over an ``ops`` namespace
like the targets, it runs on :data:`autodiff.numpy_ops` to draw refined
samples and on the :mod:`autodiff` tape to build the differentiable bound.
The ``svgd`` and ``flow`` steps take their RBF kernel and kernel drift from
:mod:`steinmc.kernels`, the same code the ensemble samplers use; this module
computes no distance of its own.

Two differentiation modes, chosen by ``RefinedGuide.ad_mode``: ``full``
differentiates through the refinement displacement (the step size receives a
gradient); ``fast`` wraps the displacement in a stop-gradient, so the
step-size gradient is exactly zero while guide gradients still flow through
the initial draw.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import kernels
from .errors import ConfigError, DivergenceError, check_finite, check_step
from .kernels import KernelConfig
from .targets import TargetModel, check_scores

ENTROPY_MODES = ("dirac", "markov")
INNER_SAMPLERS = ("sgd", "sgld", "svgd", "flow")
AD_MODES = ("full", "fast")


def _standard_draws(n_samples: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The (n_samples, dim) standard normal draws behind every guide sample."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return rng.standard_normal((n_samples, dim))


def _gaussian_entropy(sum_log_std, dim: int):
    """Diagonal Gaussian entropy from the sum of its log stds, a float or a node."""
    return sum_log_std + 0.5 * dim * (1.0 + ad.LOG_2PI)


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
        return float(_gaussian_entropy(np.sum(self.log_scale), self.dim))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.scale * _standard_draws(n, self.dim, rng)


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
        if self.steps_refine < 0:
            raise ConfigError("must be >= 0", field="steps_refine")
        if self.entropy_mode == "markov" and self.inner_sampler != "sgld":
            raise ConfigError(
                f"markov entropy needs stochastic transitions; inner sampler "
                f"{self.inner_sampler!r} is deterministic",
                field="entropy_mode",
            )

    @property
    def eta(self) -> float:
        return math.exp(self.log_eta)


def _entropy_grad(k, z, h, ops):
    """Kernel-smoothed -grad log q of the batch z with kernel matrix k.

    Row i is (2/h) sum_l W_il (z_i - z_l) with W_il = K_il (1/S_i + 1/S_l)
    and S the row sums of K.
    """
    sums = ops.reduce_sum(k, axis=1)
    weights = k / ops.reshape(sums, (-1, 1)) + k / sums
    return 2.0 / h * kernels.kernel_drift(weights, z, ops)


def kde_entropy_grad(positions: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Kernel-smoothed estimate of -grad log q at each particle.

    Row m is the negative gradient, with respect to particle m, of the summed
    kernel-density log-likelihood of all particles:

        row_m = - sum_n grad_m K(z_m, z_n) / sum_n K(z_m, z_n)
                - sum_l grad_m K(z_m, z_l) / sum_n K(z_n, z_l)

    A single particle yields exactly zero.  This is the entropy term of the
    ``flow`` inner sampler.
    """
    z = np.asarray(positions, dtype=float)
    k, h, _ = kernels.rbf(z, cfg)
    return _entropy_grad(k, z, h, ad.numpy_ops)


def _call_target(target: TargetModel, name: str, z, ops):
    """``target.<name>(z, ops)``; a function that cannot take ``ops`` is a ConfigError."""
    fn = getattr(target, name)
    try:
        return fn(z, ops)
    except TypeError:
        try:
            inspect.signature(fn).bind(z, ops)
        except TypeError:
            raise ConfigError(
                f"{name} of {target.name!r} must take (z, ops) to be refined",
                field="target",
            ) from None
        except ValueError:  # no signature to check: keep the original error
            pass
        raise


def _refine(rg: RefinedGuide, target: TargetModel, z, eta, rng, ops) -> list:
    """Push the (m, d) batch z through ``rg.steps_refine`` inner steps.

    Returns the batch before and after every step.  On the tape, each step
    is a fixed number of array nodes whatever m is; noise enters as
    constants, drawn in the same order on both backends.
    """
    check_step(ops.value(eta), "eta")
    wrap = ops.stop_gradient if rg.ad_mode == "fast" else (lambda x: x)
    m, d = ops.value(z).shape
    if rg.inner_sampler == "sgld":
        root = ops.exp(0.5 * ops.log(2.0 * eta))  # sqrt(2 eta)
    path = [z]
    for step in range(rg.steps_refine):
        scores = _call_target(target, "grad_log_density", z, ops)
        check_scores(target, ops.value(scores), (m, d))
        if rg.inner_sampler in ("sgd", "sgld"):
            delta = eta * scores
            if rg.inner_sampler == "sgld":
                delta = delta + root * ops.constant(rng.standard_normal((m, d)))
        else:
            k, h, _ = kernels.rbf(z, rg.kernel_cfg, ops)
            if rg.inner_sampler == "svgd":
                # (1/m) [K @ scores + (2/h) sum_l K_il (z_i - z_l)]
                phi = ops.matmul(k, scores) + 2.0 / h * kernels.kernel_drift(k, z, ops)
                delta = eta * (phi / float(m))
            else:
                delta = eta * (scores + _entropy_grad(k, z, h, ops))
        z = z + wrap(delta)
        check_finite(ops.value(z), step + 1)
        path.append(z)
    return path


def sample_refined(
    rg: RefinedGuide, target: TargetModel, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw guide samples and push them through the refinement steps.

    Returns the refined draws and the full trajectory (one array per step,
    starting with the guide draws).  The draw is unaffected by the entropy
    mode; given the same rng state the samples are identical across modes,
    and equal to the samples of :func:`elbo`.
    """
    z0 = rg.guide.sample(n_samples, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # each step is checked
        path = _refine(rg, target, z0, rg.eta, rng, ad.numpy_ops)
    return path[-1], path


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
    guide = rg.guide
    d = guide.dim
    full = rg.ad_mode == "full"
    mean = ad.leaf(guide.mean)
    log_scale = ad.leaf(guide.log_scale)
    log_eta = ad.leaf(float(rg.log_eta), requires_grad=full)
    eta_node = ad.exp(log_eta) if full else ad.constant(rg.eta)
    scale = ad.exp(log_scale)

    xi = ad.constant(_standard_draws(n_samples, d, rng))
    z = _refine(rg, target, mean + scale * xi, eta_node, rng, ad)[-1]
    logp = _call_target(target, "log_density", z, ad)
    avg_logp = ad.div(ad.reduce_sum(logp), float(n_samples))

    # closed-form guide entropy; differentiable in log_scale
    entropy = _gaussian_entropy(ad.reduce_sum(log_scale), d)
    if rg.entropy_mode == "markov":
        # each transition is Gaussian with covariance 2 eta I
        per_step = _gaussian_entropy(ad.mul(0.5 * d, ad.log(ad.mul(2.0, eta_node))), d)
        for _ in range(rg.steps_refine):
            entropy = ad.add(entropy, per_step)

    objective = ad.add(avg_logp, entropy)
    return ElboTape(objective, mean, log_scale, log_eta, z.value)


def elbo_grad(
    rg: RefinedGuide, target: TargetModel, n_samples: int, rng: np.random.Generator
) -> tuple[float, dict[str, np.ndarray]]:
    """Value and gradients of the refined bound for (mean, log_scale, log_eta).

    With ``rg.ad_mode == "fast"`` the step-size gradient is exactly zero and
    guide gradients flow only through the initial draw.
    """
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


def optimize(
    rg: RefinedGuide,
    target: TargetModel,
    outer_iterations: int,
    rng: np.random.Generator,
    *,
    n_samples: int = 16,
    learning_rate: float = 0.05,
) -> OptimizeResult:
    """Adaptive gradient ascent on the refined bound.

    Updates the guide parameters (and the inner step size in full mode) for
    ``outer_iterations`` steps.  To draw from the result through k steps of
    the tuned sampler, call ``sample_refined(replace(result.guide,
    steps_refine=k), target, n, rng)``.  Aborts with a DivergenceError on a
    non-finite objective, gradient or refinement step, naming the outer
    iteration and the loss trace so far.
    """
    if outer_iterations < 1:
        raise ValueError("outer_iterations must be >= 1")
    # one flat Adam state over [mean, log_scale, log_eta], in elbo_grad's order
    shape, size = rg.guide.mean.shape, rg.guide.mean.size
    x = np.concatenate([rg.guide.mean.ravel(), rg.guide.log_scale.ravel(), [float(rg.log_eta)]])

    def current():
        guide = DiagonalGaussianGuide(x[:size].reshape(shape), x[size:-1].reshape(shape))
        return replace(rg, guide=guide, log_eta=float(x[-1]))

    m, v = np.zeros_like(x), np.zeros_like(x)
    b1, b2, stab = 0.9, 0.999, 1e-8

    trace = []
    for it in range(outer_iterations):
        try:
            value, grads = elbo_grad(current(), target, n_samples, rng)
        except (ad.NonFiniteError, DivergenceError) as err:
            particle = getattr(err, "particle", -1)
            raise DivergenceError(it, particle, snapshot=np.array(trace)) from err
        g = np.concatenate([grads[key].ravel() for key in ("mean", "log_scale", "log_eta")])
        with np.errstate(over="ignore"):  # an inf second moment would zero its step
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
        if not (np.isfinite(value) and np.isfinite(g).all() and np.isfinite(v).all()):
            raise DivergenceError(iteration=it, particle=-1, snapshot=np.array(trace))
        trace.append(-value)
        mhat = m / (1 - b1 ** (it + 1))
        vhat = v / (1 - b2 ** (it + 1))
        x = x + learning_rate * mhat / (np.sqrt(vhat) + stab)

    return OptimizeResult(guide=current(), loss_trace=np.asarray(trace))
