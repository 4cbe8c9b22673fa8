"""Ensemble update rules and the generic evolution runner.

All update rules are written internally in score space (score = grad log
density); the H-space descent forms used in their docstrings relate through
H = -log pi.  Every sampler moves its positions by the one update

    z <- z + eps * drift (+ noise),

written once in :func:`_advance`; the samplers differ only in their drift
and their noise.  Every step checks the finiteness of the scores in
:func:`_scores` and of the new positions in :func:`_advance`, each by one
pass over the whole array, with the per-row scan that names the diverged
particle run only when that pass fails.  The interacting samplers take their
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
:func:`kernels.kernel_matrix` or, from the repulsion cutoff on,
:func:`kernels.identity_kernel`, and the interacting step functions take
that kernel.  The loop's per-step states skip their constructors' checks.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .diagnostics import ess_multivariate, gelman_rubin, moment_error
from .errors import ConfigError, DegenerateChainError, DivergenceError
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


SCHEDULE_KINDS = ("constant", "robbins_monro")


@dataclass
class StepSchedule:
    """Constant or polynomially decaying step sizes.

    The decaying variant eps_t = eps0 * (1 + t)^(-gamma) with gamma in
    (0.5, 1] has divergent sum and convergent squared sum, the classic
    stochastic-approximation conditions.
    """

    kind: str = "constant"
    eps0: float = 1e-3
    gamma: float = 0.55

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}", field="schedule")
        if not 0 < self.eps0 < math.inf:
            raise ConfigError("eps0 must be finite and > 0", field="step_size")
        if not 0.5 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0.5, 1]", field="gamma")

    def eps(self, t: int) -> float:
        if self.kind == "constant":
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
                raise ConfigError(f"{name} must lie in (0, 1)", field=name)
        if not 0 <= self.stabilizer < math.inf:
            raise ConfigError("stabilizer must be finite and >= 0", field="stabilizer")
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
            raise ConfigError("must be >= 0", field="collection.burn_in")
        if self.thin < 1:
            raise ConfigError("must be >= 1", field="collection.thin")

    def collect_at(self, t: int) -> bool:
        # t is the 1-based count of completed iterations
        return t > self.burn_in and (t - self.burn_in) % self.thin == 0


def _scores(target: TargetModel, ensemble: ParticleEnsemble) -> np.ndarray:
    """All L scores in one call; a non-finite row diverges the coming step.

    The DivergenceError names the iteration being computed and carries the
    ensemble as its last all-finite snapshot.
    """
    positions = ensemble.positions
    out = np.asarray(target.grad_log_density(positions), dtype=float)
    check_scores(target, out, positions.shape)
    _check_finite(out, ensemble.step_index + 1, snapshot=positions)
    return out


def _check_finite(positions: np.ndarray, iteration: int, snapshot=None):
    # one pass over the whole array; the row scan runs only to name the particle
    if not np.isfinite(positions).all():
        bad = ~np.isfinite(positions).all(axis=1)
        raise DivergenceError(iteration=iteration, particle=int(bad.argmax()), snapshot=snapshot)


def _interaction_drift(v: np.ndarray, km: KernelMatrix) -> np.ndarray:
    """(1/L) [K @ v + repulsion rows]; the shared interacting drift."""
    return (km.entries @ v + km.grad_terms) / km.n_particles


def _check_eps(eps: float) -> None:
    """The step-size rule of every step function, checked before eps is used."""
    if not eps > 0:
        raise ValueError("eps must be > 0")


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
        new = new + noise
    _check_finite(new, ensemble.step_index + 1, snapshot=z)
    return _evolved(ensemble, positions=new, step_index=ensemble.step_index + 1)


def _evolved(state, **changes):
    """:func:`dataclasses.replace` without ``__post_init__``, for a step's new
    state: its arrays are built by the step itself, which checks what may go
    wrong in them, so the constructor's rules need not run again."""
    new = object.__new__(type(state))
    new.__dict__.update(vars(state), **changes)
    return new


def _pooled_ess(collected: np.ndarray) -> float:
    """Effective draw count behind the pooled moment estimate.

    The per-event ensemble mean carries the information the pooled estimator
    uses; its autocorrelation time discounts the L x n_events pooled draws.
    Reported as the per-dimension minimum of L * ess(mean series), which
    reduces to the standard scalar estimator when L = 1.  Both within-chain
    autocorrelation and interaction-induced cross-chain correlation register
    through the mean series.
    """
    n_events, n_chains, dim = collected.shape
    if n_events < 10:
        return float("nan")
    mean_series = collected.mean(axis=1)  # (n_events, d)
    try:
        return n_chains * ess_multivariate(mean_series)
    except DegenerateChainError:
        return float("nan")


def sgld_step(
    ensemble: ParticleEnsemble, target: TargetModel, eps: float, rng: np.random.Generator
) -> ParticleEnsemble:
    """Langevin step per particle: z + eps * score + N(0, 2 eps I); no interaction."""
    _check_eps(eps)
    scores = _scores(target, ensemble)
    noise = np.sqrt(2.0 * eps) * rng.standard_normal(ensemble.positions.shape)
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
    _check_eps(eps)
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
    _check_eps(eps)
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
    position_noise: bool = False,
) -> tuple[ParticleEnsemble, MomentumState]:
    """Momentum-augmented interacting step.

    Positions descend along kernel-smoothed momenta while being pushed apart;
    momenta absorb the kernel-smoothed H-gradient plus the repulsion:

        z_i <- z_i - (eps/L) sum_l [ K_il m_l - repulsion_il ]
        m_i <- m_i + (eps/L) sum_l [ K_il grad_H_l + repulsion_il ]

    With L = 1 this is z <- z - eps m, m <- m + eps grad_H(z), the explicit
    Euler discretization of a phase-space rotation: it drifts the energy
    H(z) + ||m||^2/2 by O(eps^2) per step instead of tearing along an
    unstable direction.  The update is deterministic by default;
    `position_noise` adds the kernel-correlated noise used by the Langevin
    variant.
    """
    _check_eps(eps)
    m = momentum.momenta
    if m.shape != ensemble.positions.shape:
        raise ValueError("momentum state shape must match ensemble")
    new_m = m + eps * _interaction_drift(-_scores(target, ensemble), km)
    noise = None
    if position_noise:
        if rng is None:
            raise ValueError("position_noise requires an rng")
        noise = kernels.sample_repulsive_noise(km, eps, rng)
    new = _advance(ensemble, _interaction_drift(-m, km), eps, noise)
    return new, _evolved(momentum, momenta=new_m)


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
    _check_eps(eps)
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
    return new, _evolved(momentum, momenta=new_m, second_moments=new_v)


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

    samples: np.ndarray  # chain-major (L * n_events, d) view of per_particle, not a copy
    per_particle: np.ndarray  # (L, n_events, d), moment space
    final: ParticleEnsemble
    ess: float  # nan when it cannot be estimated
    rhat: np.ndarray | None  # None where the sampler's particles are no chains
    moment_errors: list[tuple[str, float]]
    wall_clock: float

    @property
    def ess_per_second(self) -> float:
        return self.ess / self.wall_clock if self.wall_clock > 0 else 0.0


# The step table: kind -> (interacting, momentum initializer or None, one
# step).  An initializer maps (rng, zero-momentum state) to the kind's
# initial state.  A step maps (ensemble, momentum, target, km, eps, rng) to
# (ensemble, momentum), where km is the kernel that :func:`run` built for
# this step (None for a kind that does not interact).  It looks its update
# rule up in this module's globals at call time, so a wrapper installed on,
# say, ``samplers.sgld_step`` sees every runner step.
_KINDS = {
    "sgld": (False, None, lambda e, m, t, km, eps, rng: (sgld_step(e, t, eps, rng), m)),
    "svgd": (True, None, lambda e, m, t, km, eps, rng: (svgd_step(e, t, km, eps), m)),
    "repulsive_sgld": (
        True,
        None,
        lambda e, m, t, km, eps, rng: (repulsive_sgld_step(e, t, km, eps, rng), m),
    ),
    "repulsive_sgdm": (
        True,
        # momenta start from their standard-Gaussian stationary law
        lambda rng, m: replace(m, momenta=rng.standard_normal(m.momenta.shape)),
        lambda e, m, t, km, eps, rng: repulsive_sgdm_step(e, m, t, km, eps, rng),
    ),
    "repulsive_adam": (
        True,
        lambda rng, m: replace(m, second_moments=np.zeros_like(m.momenta)),
        lambda e, m, t, km, eps, rng: repulsive_adam_step(e, m, t, km, eps, rng),
    ),
}
SAMPLER_KINDS = tuple(_KINDS)
# Kinds whose update, as run drives it, draws no noise: their particles are
# no chains, so no R-hat is reported for them.
_NOISELESS_KINDS = ("svgd", "repulsive_sgdm")


@dataclass(frozen=True)
class RunSpec:
    """One sampler run of :func:`run`, checked when it is built.

    The schedule, collection policy and kernel config have checked their own
    fields; the momentum settings are checked here by building a
    :class:`MomentumState`, for every kind, also where unused.  `init_mean`
    and `init_std` may each be one number or one per coordinate, a rule
    that needs the target and lives in :meth:`initial`.
    `repulsion_cutoff` switches the interacting samplers to the identity
    kernel (no interaction) from that iteration on.
    """

    kind: str
    n_particles: int
    iterations: int
    schedule: StepSchedule
    policy: CollectionPolicy
    init_mean: np.typing.ArrayLike = 0.0
    init_std: np.typing.ArrayLike = 1.0
    kernel_cfg: KernelConfig = field(default_factory=KernelConfig)
    beta1: float = 0.9
    beta2: float = 0.999
    stabilizer: float = 1e-8
    repulsion_cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown sampler kind {self.kind!r}", field="sampler")
        if self.n_particles < 1:
            raise ConfigError("must be >= 1", field="particles")
        if self.n_events < 1:
            raise ConfigError("must exceed burn_in by at least thin", field="iterations")
        if not np.isfinite(np.asarray(self.init_mean, dtype=float)).all():
            raise ConfigError("must be finite", field="init.mean")
        std = np.asarray(self.init_std, dtype=float)
        if not ((std >= 0) & (std < math.inf)).all():
            raise ConfigError("must be finite and >= 0", field="init.std")
        if self.repulsion_cutoff is not None and self.repulsion_cutoff < 0:
            raise ConfigError("must be >= 0", field="repulsion_cutoff")
        self._zero_momentum(0)

    @property
    def n_events(self) -> int:
        return (self.iterations - self.policy.burn_in) // self.policy.thin

    def initial(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The (dim,) mean and std of the initial particles."""
        for name, value in (("init.mean", self.init_mean), ("init.std", self.init_std)):
            if np.ndim(value) > 1 or np.size(value) not in (1, dim):
                raise ConfigError(f"expected a number or {dim} numbers", field=name)
        mean = np.broadcast_to(np.asarray(self.init_mean, dtype=float), (dim,))
        return mean, np.broadcast_to(np.asarray(self.init_std, dtype=float), (dim,))

    def _zero_momentum(self, dim: int) -> MomentumState:
        return MomentumState(
            np.zeros((self.n_particles, dim)),
            beta1=self.beta1, beta2=self.beta2, stabilizer=self.stabilizer,
        )


def run(spec: RunSpec, target: TargetModel, seed: int) -> RunResult:
    """Evolve an ensemble and collect draws under the thinning policy.

    The one sampling loop of the package: every kind advances through its
    row of the step table.  Deterministic given the seed.  Collected draws
    are mapped through the target's moment transform and pooled over
    particles; the reported ESS discounts the pooled draw count by the
    autocorrelation of the per-event ensemble mean.
    """
    dim, n_particles, cutoff = target.dim, spec.n_particles, spec.repulsion_cutoff
    mean, std = spec.initial(dim)
    momentum = spec._zero_momentum(dim)
    rng = np.random.default_rng(seed)
    ensemble = ParticleEnsemble(mean + std * rng.standard_normal((n_particles, dim)))

    interacting, init_momentum, step = _KINDS[spec.kind]
    if init_momentum is not None:
        momentum = init_momentum(rng, momentum)

    draws = np.empty((n_particles, spec.n_events, dim))  # chain-major
    event = 0
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # each step checks finiteness
        for t in range(spec.iterations):
            eps = spec.schedule.eps(t)
            if target.resample_batch is not None:
                target.resample_batch(rng)
            km = None
            if interacting:
                if cutoff is not None and t >= cutoff:
                    km = kernels.identity_kernel(n_particles, dim)
                else:
                    km = kernels.kernel_matrix(ensemble.positions, spec.kernel_cfg)
            ensemble, momentum = step(ensemble, momentum, target, km, eps, rng)

            if spec.policy.collect_at(t + 1):
                draws[:, event] = ensemble.positions
                event += 1
    wall = time.perf_counter() - start

    per_particle = target.moment_transform(draws)
    pooled = per_particle.reshape(-1, dim)  # a view

    errors = [
        (ref.label, moment_error(pooled, ref.order, ref.exact))
        for ref in target.reference_moments
    ]
    # event-major and contiguous: with d = 1 numpy sums a contiguous particle
    # axis pairwise and a strided one in sequence, which rounds differently
    pooled_ess = _pooled_ess(np.ascontiguousarray(per_particle.transpose(1, 0, 2)))
    # R-hat needs two noisy chains of ten events; a chain with zero variance has none
    rhat = None if spec.kind in _NOISELESS_KINDS else np.full(dim, np.nan)
    if rhat is not None and n_particles >= 2 and spec.n_events >= 10:
        with contextlib.suppress(DegenerateChainError):
            rhat = gelman_rubin(per_particle)

    return RunResult(
        samples=pooled, per_particle=per_particle, final=ensemble,
        ess=pooled_ess, rhat=rhat, moment_errors=errors, wall_clock=wall,
    )
