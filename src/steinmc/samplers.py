"""Ensemble update rules and the generic evolution runner.

All update rules are written internally in score space (score = grad log
density); the H-space descent forms used in their docstrings relate through
H = -log pi.  Every sampler moves its positions by the one update

    z <- z + eps * drift (+ noise),

written once in :func:`_advance`; the samplers differ only in their drift
and their noise.  Every step applies the two run-time rules of
:mod:`steinmc.errors`: ``check_step`` rejects a step size that is not > 0
before the step uses it (the noisy interacting steps leave it to
:func:`kernels.sample_repulsive_noise`, whose draw is their first use of
eps), and ``check_finite`` diverges the step on a non-finite score, in
:func:`_scores`, or new position, in :func:`_advance`; :func:`run` applies
it to the initial draw as iteration 0.  The interacting samplers take their
drift from

    phi_i(v) = (1/L) [ sum_l K_il * v_l + repulsion_i ],

where repulsion_i is the kernel-gradient row from :mod:`steinmc.kernels` and
v is the scores (svgd, repulsive_sgld) or the negated, possibly
preconditioned momenta (repulsive_sgdm, repulsive_adam).  svgd adds no noise
and is the deterministic flow, which underestimates spread.  Only sgld is exact
to O(eps): repulsive_sgld's drift omits the median bandwidth's gradient, and
the momentum kinds, as run drives them, do not sample their target (README).

A run is a :class:`RunSpec`, whose constructor checks every rule of the
run's settings before anything is drawn, handed to :func:`run`, the one
sampling loop, with a target and a seed; its :class:`RunResult` is the one
record of a run: the draws, their ESS, R-hat and moment errors, and its
time.  The loop alone builds each step's kernel, through
:func:`kernels.kernel_matrix`, and the interacting step functions take that
kernel.  The CLI and the scripts take the kept iterations from
:meth:`CollectionPolicy.iterations` and each kind's step from
:func:`scaled_step`.  A rejected setting raises a ConfigError naming, once,
the parameter that took it: ``RunSpec(..., init_std=-1)`` raises ``init_std:
must be finite and >= 0``; the CLI alone maps parameters to config paths.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .diagnostics import ess_multivariate, gelman_rubin, moment_error
from .errors import ConfigError, check_finite, check_step
from .kernels import KernelConfig, KernelMatrix
from .targets import TargetModel, check_scores

@dataclass
class ParticleEnsemble:
    """L particles in d dimensions plus the iteration counter."""

    positions: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] < 1:
            raise ValueError("positions must be an L x d matrix with L >= 1")


@dataclass
class StepSchedule:
    """Step size eps_t: constant eps0, or, when `gamma` is given, the decay
    eps_t = eps0 * (1 + t)^(-gamma) with gamma in (0.5, 1], whose sum diverges
    and whose squared sum converges: the stochastic-approximation conditions.
    """

    eps0: float = 1e-3
    gamma: float | None = None

    def __post_init__(self):
        if not 0 < self.eps0 < math.inf:
            raise ConfigError("must be finite and > 0", field="eps0")
        if self.gamma is not None and not 0.5 < self.gamma <= 1.0:
            raise ConfigError("must lie in (0.5, 1]", field="gamma")

    def eps(self, t: int) -> float:
        if self.gamma is None:
            return self.eps0
        return self.eps0 * (1.0 + t) ** (-self.gamma)


@dataclass
class MomentumState:
    """Auxiliary momenta (and gradient second moments for the adaptive rule)."""

    momenta: np.ndarray
    second_moments: np.ndarray | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    stabilizer: float = 1e-8

    def __post_init__(self):
        self.momenta = np.asarray(self.momenta, dtype=float)
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError("must lie in (0, 1)", field=name)
        if not 0 <= self.stabilizer < math.inf:
            raise ConfigError("must be finite and >= 0", field="stabilizer")
        if self.second_moments is not None:
            self.second_moments = np.asarray(self.second_moments, dtype=float)
            if (self.second_moments < 0).any():
                raise ValueError("second moments must be non-negative")


@dataclass
class CollectionPolicy:
    """Discard the first `burn_in` iterations, then keep every `thin`-th."""

    burn_in: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.burn_in < 0:
            raise ConfigError("must be >= 0", field="burn_in")
        if self.thin < 1:
            raise ConfigError("must be >= 1", field="thin")

    def iterations(self, total: int) -> range:
        """The 1-based iterations, of `total`, whose draws are kept."""
        return range(self.burn_in + self.thin, total + 1, self.thin)


def _scores(target: TargetModel, ensemble: ParticleEnsemble) -> np.ndarray:
    """All L scores in one call; a non-finite row diverges the iteration being
    computed, with the ensemble as its last all-finite snapshot."""
    positions = ensemble.positions
    out = np.asarray(target.grad_log_density(positions), dtype=float)
    check_scores(target, out, positions.shape)
    check_finite(out, ensemble.step_index + 1, snapshot=positions)
    return out


def _interaction_drift(v: np.ndarray, km: KernelMatrix) -> np.ndarray:
    """(1/L) [K @ v + repulsion rows]; the shared interacting drift."""
    drift = km.entries @ v
    drift += km.grad_terms
    drift /= km.n_particles
    return drift


def _advance(
    ensemble: ParticleEnsemble, drift: np.ndarray, eps: float, noise: np.ndarray | None = None
) -> ParticleEnsemble:
    """The one position update of every sampler: z + eps * drift (+ noise).

    A non-finite new position diverges the step, with the ensemble it
    started from as the snapshot.
    """
    z = ensemble.positions
    new = z + eps * drift
    if noise is not None:
        new += noise
    check_finite(new, ensemble.step_index + 1, snapshot=z)
    return ParticleEnsemble(new, ensemble.step_index + 1)


def sgld_step(
    ensemble: ParticleEnsemble, target: TargetModel, eps: float, rng: np.random.Generator
) -> ParticleEnsemble:
    """Langevin step per particle: z + eps * score + N(0, 2 eps I); no interaction."""
    check_step(eps)
    scores = _scores(target, ensemble)
    noise = rng.standard_normal(ensemble.positions.shape)
    noise *= np.sqrt(2.0 * eps)
    return _advance(ensemble, scores, eps, noise)


def svgd_direction(
    ensemble: ParticleEnsemble, target: TargetModel, km: KernelMatrix
) -> np.ndarray:
    """Descent direction on H = -log pi; row i of -(1/L)[K @ score + repulsion].

    Updating z <- z - eps * direction performs kernel-smoothed ascent on the
    log density plus repulsion between particles.
    """
    scores = _scores(target, ensemble)
    return -_interaction_drift(scores, km)


def svgd_step(
    ensemble: ParticleEnsemble, target: TargetModel, km: KernelMatrix, eps: float
) -> ParticleEnsemble:
    """Deterministic interacting step (no noise)."""
    check_step(eps)
    return _advance(ensemble, -svgd_direction(ensemble, target, km), eps)


def repulsive_sgld_step(
    ensemble: ParticleEnsemble,
    target: TargetModel,
    km: KernelMatrix,
    eps: float,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """Interacting Langevin step: eps * drift plus kernel-correlated noise.

    With a single particle the kernel collapses to 1 and the update law is
    bitwise identical to :func:`sgld_step`.
    """
    drift = _interaction_drift(_scores(target, ensemble), km)
    noise = kernels.sample_repulsive_noise(km, eps, rng)
    return _advance(ensemble, drift, eps, noise)


def repulsive_sgdm_step(
    ensemble: ParticleEnsemble,
    momentum: MomentumState,
    target: TargetModel,
    km: KernelMatrix,
    eps: float,
    rng: np.random.Generator | None = None,
) -> tuple[ParticleEnsemble, MomentumState]:
    """Momentum-augmented interacting step.

    Positions descend along kernel-smoothed momenta while being pushed apart;
    momenta absorb the kernel-smoothed H-gradient plus the repulsion:

        z_i <- z_i - (eps/L) sum_l [ K_il m_l - repulsion_il ]
        m_i <- m_i + (eps/L) sum_l [ K_il grad_H_l + repulsion_il ]

    With L = 1 this is z <- z - eps m, m <- m + eps grad_H(z), the explicit
    Euler discretization of a phase-space rotation: it drifts the energy
    H(z) + ||m||^2/2 by O(eps^2) per step instead of tearing along an
    unstable direction.  The update is deterministic without `rng`; with
    it, positions take the kernel-correlated noise of the Langevin variant.
    """
    check_step(eps)
    m = momentum.momenta
    if m.shape != ensemble.positions.shape:
        raise ValueError("momentum state shape must match ensemble")
    new_m = m + eps * _interaction_drift(-_scores(target, ensemble), km)
    noise = None if rng is None else kernels.sample_repulsive_noise(km, eps, rng)
    new = _advance(ensemble, _interaction_drift(-m, km), eps, noise)
    return new, replace(momentum, momenta=new_m)


def repulsive_adam_step(
    ensemble: ParticleEnsemble,
    momentum: MomentumState,
    target: TargetModel,
    km: KernelMatrix,
    eps: float,
    rng: np.random.Generator,
) -> tuple[ParticleEnsemble, MomentumState]:
    """Adaptively preconditioned interacting step with noise.

    Per particle, m and v track exponential moving averages of the H-gradient
    and its square (no bias correction).  Positions then take the momentum
    kernel step with m rescaled by the per-particle diagonal mass
    1/sqrt(v + stabilizer), plus kernel-correlated noise:

        m <- beta1 m + (1 - beta1) grad_H          (elementwise, per particle)
        v <- beta2 v + (1 - beta2) grad_H^2
        z_i <- z_i - (eps/L) sum_l [ K_il m_l/sqrt(v_l + c) - repulsion_il ] + noise_i
    """
    m = momentum.momenta
    v = momentum.second_moments
    if v is None:
        raise ValueError("adaptive step requires second_moments in the momentum state")
    if m.shape != ensemble.positions.shape or v.shape != m.shape:
        raise ValueError("momentum state shape must match ensemble")
    grad_h = -_scores(target, ensemble)
    new_m = momentum.beta1 * m + (1.0 - momentum.beta1) * grad_h
    new_v = momentum.beta2 * v + (1.0 - momentum.beta2) * grad_h**2
    drift = _interaction_drift(-new_m / np.sqrt(new_v + momentum.stabilizer), km)
    noise = kernels.sample_repulsive_noise(km, eps, rng)
    new = _advance(ensemble, drift, eps, noise)
    return new, replace(momentum, momenta=new_m, second_moments=new_v)


def momentum_block_matrix(km: KernelMatrix) -> np.ndarray:
    """The 2L x 2L curl matrix [[0, -K], [K, 0]] of the momentum dynamics."""
    n = km.n_particles
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = -km.entries
    out[n:, :n] = km.entries
    return out


@dataclass
class RunResult:
    """Collected draws plus diagnostics for one sampler run."""

    samples: np.ndarray  # chain-major (L * events, d) view of per_particle, not a copy
    per_particle: np.ndarray  # (L, events, d), moment space
    final: ParticleEnsemble
    ess: float  # nan when it cannot be estimated
    rhat: np.ndarray | None  # None where the sampler's particles are no chains
    moment_errors: list[tuple[str, float]]
    wall_clock: float

    @property
    def ess_per_second(self) -> float:
        return self.ess / self.wall_clock if self.wall_clock > 0 else 0.0


# The step table: kind -> (interacting, noisy, momentum initializer or None,
# one step).  A kind that is not noisy draws no noise as run drives it (its
# step is passed no rng), so its particles are no chains and no R-hat is
# reported for them.  An initializer maps (rng, zero-momentum state) to the
# kind's initial state.  A step maps (ensemble, momentum, target, km, eps, rng)
# to (ensemble, momentum), where km is the kernel that :func:`run` built for
# this step (None for a kind that does not interact).  It looks its update
# rule up in this module's globals at call time, so a wrapper installed on,
# say, ``samplers.sgld_step`` sees every runner step.
_KINDS = {
    "sgld": (False, True, None, lambda e, m, t, km, eps, rng: (sgld_step(e, t, eps, rng), m)),
    "svgd": (True, False, None, lambda e, m, t, km, eps, rng: (svgd_step(e, t, km, eps), m)),
    "repulsive_sgld": (
        True, True, None,
        lambda e, m, t, km, eps, rng: (repulsive_sgld_step(e, t, km, eps, rng), m),
    ),
    "repulsive_sgdm": (
        True, False,
        # momenta start from their standard-Gaussian stationary law
        lambda rng, m: replace(m, momenta=rng.standard_normal(m.momenta.shape)),
        lambda e, m, t, km, eps, rng: repulsive_sgdm_step(e, m, t, km, eps),
    ),
    "repulsive_adam": (
        True, True,
        lambda rng, m: replace(m, second_moments=np.zeros_like(m.momenta)),
        lambda e, m, t, km, eps, rng: repulsive_adam_step(e, m, t, km, eps, rng),
    ),
}
SAMPLER_KINDS = tuple(_KINDS)


def scaled_step(kind: str, per_particle_step: float, n_particles: int) -> float:
    """The step giving `kind` plain Langevin's per-particle drift and noise: an
    interacting kind's drift and noise carry a 1/L, so its step is L times it."""
    return per_particle_step * n_particles if _KINDS[kind][0] else per_particle_step


@dataclass(frozen=True)
class RunSpec:
    """One sampler run of :func:`run`, checked when it is built.

    The schedule, collection policy and kernel config have checked their own
    fields: the steps decay only where the schedule has a `gamma`, and the
    kernel takes the median bandwidth unless its config has a `bandwidth`.
    The momentum kinds take :class:`MomentumState`'s defaults.
    `init_mean` and `init_std` may each be one number or one per coordinate,
    a rule that needs the target and lives in :meth:`initial`.
    """

    kind: str
    n_particles: int
    iterations: int
    schedule: StepSchedule
    policy: CollectionPolicy
    init_mean: np.typing.ArrayLike = 0.0
    init_std: np.typing.ArrayLike = 1.0
    kernel_cfg: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown sampler kind {self.kind!r}", field="kind")
        if self.n_particles < 1:
            raise ConfigError("must be >= 1", field="n_particles")
        if not self.policy.iterations(self.iterations):
            raise ConfigError("must exceed burn_in by at least thin", field="iterations")
        if not np.isfinite(np.asarray(self.init_mean, dtype=float)).all():
            raise ConfigError("must be finite", field="init_mean")
        std = np.asarray(self.init_std, dtype=float)
        if not ((std >= 0) & (std < math.inf)).all():
            raise ConfigError("must be finite and >= 0", field="init_std")
        if not self.schedule.eps(self.iterations - 1) > 0:  # eps_t never increases
            raise ConfigError("decays to 0 within the run's iterations", field="schedule")

    def initial(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The (dim,) mean and std of the initial particles."""
        for name, value in (("init_mean", self.init_mean), ("init_std", self.init_std)):
            if np.ndim(value) > 1 or np.size(value) not in (1, dim):
                raise ConfigError(f"expected a number or {dim} numbers", field=name)
        mean = np.broadcast_to(np.asarray(self.init_mean, dtype=float), (dim,))
        return mean, np.broadcast_to(np.asarray(self.init_std, dtype=float), (dim,))


def run(spec: RunSpec, target: TargetModel, seed: int) -> RunResult:
    """Evolve an ensemble and collect draws under the thinning policy.

    The one sampling loop of the package: every kind advances through its
    row of the step table.  Deterministic given the seed.  Collected draws
    are mapped through the target's moment transform and pooled over
    particles; the reported ESS discounts the pooled draw count by the
    autocorrelation of the per-event ensemble mean.
    """
    dim, n_particles = target.dim, spec.n_particles
    mean, std = spec.initial(dim)
    momentum = MomentumState(np.zeros((n_particles, dim)))
    rng = np.random.default_rng(seed)
    interacting, noisy, init_momentum, step = _KINDS[spec.kind]
    collected = spec.policy.iterations(spec.iterations)
    draws = np.empty((n_particles, len(collected), dim))  # chain-major
    # the initial draw, as iteration 0, and each step check finiteness; a
    # statistic that overflows is reported non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        ensemble = ParticleEnsemble(mean + std * rng.standard_normal((n_particles, dim)))
        check_finite(ensemble.positions, 0)
        if init_momentum is not None:
            momentum = init_momentum(rng, momentum)
        start = time.perf_counter()
        for t in range(spec.iterations):
            eps = spec.schedule.eps(t)
            if target.resample_batch is not None:
                target.resample_batch(rng)
            km = None
            if interacting:
                km = kernels.kernel_matrix(ensemble.positions, spec.kernel_cfg)
            ensemble, momentum = step(ensemble, momentum, target, km, eps, rng)

            if t + 1 in collected:
                draws[:, collected.index(t + 1)] = ensemble.positions
        wall = time.perf_counter() - start

        per_particle = target.moment_transform(draws)
        pooled = per_particle.reshape(-1, dim)  # a view

        errors = [
            (ref.label, moment_error(pooled, ref.order, ref.exact))
            for ref in target.reference_moments
        ]
        # the pooled ESS is L x the ESS of the per-event particle mean, whose
        # autocorrelation registers both within-chain and interaction-induced
        # cross-chain correlation; the mean is taken event-major and contiguous,
        # since with d = 1 numpy sums a contiguous particle axis pairwise and a
        # strided one in sequence, which rounds differently
        mean_series = np.ascontiguousarray(per_particle.transpose(1, 0, 2)).mean(axis=1)
        pooled_ess = n_particles * ess_multivariate(mean_series)
        rhat = gelman_rubin(per_particle) if noisy else None

    return RunResult(
        samples=pooled, per_particle=per_particle, final=ensemble,
        ess=pooled_ess, rhat=rhat, moment_errors=errors, wall_clock=wall,
    )
