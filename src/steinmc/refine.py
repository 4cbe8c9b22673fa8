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
    sums = k.sum(axis=1)  # sums[j] = sum_n K(z_n, z_j)

    # grad_m K(z_m, z_n) = -(2/h) (z_m - z_n) K_mn
    diff = positions[:, None, :] - positions[None, :, :]
    grad_k = -(2.0 / h) * diff * k[:, :, None]

    term1 = grad_k.sum(axis=1) / sums[:, None]
    term2 = (grad_k / sums[None, :, None]).sum(axis=1)
    return -(term1 + term2)


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
        if not np.all(np.isfinite(z)):
            raise DivergenceError(iteration=t + 1, particle=int(
                np.argmax(~np.all(np.isfinite(z), axis=1))
            ))
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


def _tape_scores(target: TargetModel, z_nodes: list[ad.Node]) -> list[ad.Node]:
    if target.ad_grad_log_density is None:
        raise ConfigError(
            f"target {target.name!r} exposes no differentiable gradient",
            field="target",
        )
    return [target.ad_grad_log_density(z) for z in z_nodes]


def _tape_kernel_rows(z_nodes: list[ad.Node], h: float):
    """Pairwise kernel weights as tape expressions.

    The bandwidth is treated as a constant of the current positions (it is a
    median statistic, not differentiated).
    """
    m = len(z_nodes)
    k_nodes = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                k_nodes[i][j] = ad.constant(1.0)
            elif j < i:
                k_nodes[i][j] = k_nodes[j][i]
            else:
                diff = z_nodes[i] - z_nodes[j]
                k_nodes[i][j] = ad.exp(ad.mul(-1.0 / h, ad.reduce_sum(ad.mul(diff, diff))))
    return k_nodes


def _tape_refine(rg, target, z_nodes, eta_node, n_steps, rng):
    """Unroll the inner sampler on the tape; noise enters as constants."""
    wrap = ad.stop_gradient if rg.ad_mode == "fast" else (lambda x: x)
    m = len(z_nodes)
    for step in range(n_steps):
        if rg.inner_sampler in ("sgd", "sgld"):
            scores = _tape_scores(target, z_nodes)
            new = []
            for z, s in zip(z_nodes, scores):
                delta = ad.mul(eta_node, s)
                if rg.inner_sampler == "sgld":
                    xi = rng.standard_normal(z.value.shape)
                    root = ad.exp(ad.mul(0.5, ad.log(ad.mul(2.0, eta_node))))
                    delta = ad.add(delta, ad.mul(root, ad.constant(xi)))
                new.append(ad.add(z, wrap(delta)))
            z_nodes = new
        elif rg.inner_sampler in ("svgd", "flow"):
            values = np.stack([z.value for z in z_nodes])
            h, _ = kernels.median_bandwidth(kernels.squared_distances(values))
            if rg.kernel_cfg.bandwidth_mode == "fixed":
                h = rg.kernel_cfg.bandwidth
            k_nodes = _tape_kernel_rows(z_nodes, h)
            scores = _tape_scores(target, z_nodes)
            new = []
            for i in range(m):
                if rg.inner_sampler == "svgd":
                    # (1/m) sum_l [ K_li score_l + (2/h)(z_i - z_l) K_li ]
                    acc = None
                    for l in range(m):
                        term = ad.mul(k_nodes[l][i], scores[l])
                        if l != i:
                            rep = ad.mul(
                                ad.mul(2.0 / h, k_nodes[l][i]), z_nodes[i] - z_nodes[l]
                            )
                            term = ad.add(term, rep)
                        acc = term if acc is None else ad.add(acc, term)
                    delta = ad.mul(eta_node, ad.mul(1.0 / m, acc))
                else:  # flow: score + kernel-smoothed entropy gradient
                    ent = _tape_entropy_grad_row(z_nodes, k_nodes, h, i, m)
                    delta = ad.mul(eta_node, ad.add(scores[i], ent))
                new.append(ad.add(z_nodes[i], wrap(delta)))
            z_nodes = new
        for idx, z in enumerate(z_nodes):
            if not np.all(np.isfinite(z.value)):
                raise DivergenceError(iteration=step + 1, particle=idx)
    return z_nodes


def _tape_entropy_grad_row(z_nodes, k_nodes, h, i, m):
    """Tape expression of the kernel-smoothed -grad log q for particle i."""
    sums = []
    for j in range(m):
        s = None
        for n in range(m):
            s = k_nodes[n][j] if s is None else ad.add(s, k_nodes[n][j])
        sums.append(s)
    # grad_i K(z_i, z_n) = -(2/h)(z_i - z_n) K_in
    num = None
    for n in range(m):
        if n == i:
            continue
        g = ad.mul(ad.mul(-2.0 / h, k_nodes[i][n]), z_nodes[i] - z_nodes[n])
        num = g if num is None else ad.add(num, g)
    zero = ad.constant(np.zeros(z_nodes[i].value.shape))
    term1 = ad.div(num, sums[i]) if num is not None else zero
    term2 = None
    for l in range(m):
        if l == i:
            continue
        g = ad.mul(ad.mul(-2.0 / h, k_nodes[i][l]), z_nodes[i] - z_nodes[l])
        g = ad.div(g, sums[l])
        term2 = g if term2 is None else ad.add(term2, g)
    if term2 is None:
        term2 = zero
    return ad.neg(ad.add(term1, term2))


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

    z_nodes = []
    for _ in range(n_samples):
        xi = rng.standard_normal(d)
        z_nodes.append(ad.add(mean, ad.mul(scale, ad.constant(xi))))

    z_nodes = _tape_refine(rg, target, z_nodes, eta_node, rg.steps_refine, rng)

    total = None
    for z in z_nodes:
        lp = target.ad_log_density(z)
        total = lp if total is None else ad.add(total, lp)
    avg_logp = ad.mul(1.0 / n_samples, total)

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
    samples = np.stack([z.value for z in z_nodes])
    return ElboTape(objective, mean, log_scale, log_eta, samples)


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
    ``steps_infer`` refinement steps from the learned guide.  Aborts on a
    non-finite objective, attaching the loss trace so far.
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
        value, grads = elbo_grad(current, target, n_samples, rng)
        if not np.isfinite(value):
            raise DivergenceError(iteration=it, particle=-1, snapshot=np.array(trace))
        trace.append(-value)
        for key in params:
            g = grads[key]
            m[key] = b1 * m[key] + (1 - b1) * g
            v[key] = b2 * v[key] + (1 - b2) * g * g
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
