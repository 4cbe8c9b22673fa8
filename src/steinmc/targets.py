"""Differentiable target log-densities with exact reference moments.

Each target is written once, as two batched functions over an ``ops``
namespace: ``log_density(z, ops)`` maps an (n, d) batch of points to their
(n,) log densities, and ``grad_log_density(z, ops)`` (the score) maps it to
the (n, d) batch of their gradients, so samplers never loop over particles.
``ops`` defaults to :data:`autodiff.numpy_ops`; passing the :mod:`autodiff`
module instead builds the same expressions on the tape, which is how the
refined variational sampler differentiates through unrolled steps without a
second-order tape.  Every constructor runs a finite-difference audit of the
score before handing the target out.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

_NP = ad.numpy_ops


@dataclass
class MomentSpec:
    """A raw moment E[z^order] (per coordinate) with its exact value."""

    order: int
    exact: np.ndarray
    label: str


@dataclass
class TargetModel:
    """Unnormalized log-density with analytic gradient.

    ``log_density(z, ops)`` maps an (n, d) batch of points to the (n,) array
    of their log densities; ``grad_log_density(z, ops)`` maps it to the
    (n, d) batch of their gradients, row for row.  ``ops`` is
    :data:`autodiff.numpy_ops` when omitted, or the :mod:`autodiff` module
    for tape nodes.  ``moment_transform`` maps sampling-space
    draws into the space where the reference moments live (identity for most
    targets; exp for the log-reparameterized ones).  ``resample_batch``, when
    set, is called with the run's rng before each iteration of
    :func:`samplers.run`, as a minibatch target draws its next batch.
    """

    name: str
    dim: int
    log_density: Callable[..., np.ndarray]
    grad_log_density: Callable[..., np.ndarray]
    reference_moments: list[MomentSpec] = field(default_factory=list)
    moment_transform: Callable[[np.ndarray], np.ndarray] = lambda z: z
    resample_batch: Callable[[np.random.Generator], None] | None = None
    # Not a constructor field: only the benchmark tracer (perfbench/tracer.py)
    # reads it; nothing in the library sets or reads it.
    grad_log_density_batch = None


def check_scores(target: TargetModel, scores, shape: tuple) -> None:
    """The score-shape rule: the scores of an (n, d) batch are (n, d)."""
    if scores.shape != shape:
        raise ConfigError(f"target {target.name!r} returned scores of shape {scores.shape} "
                          f"for points of shape {shape}; expected (n, d) -> (n, d)", field="target")


def finite_difference_grad(f, points, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a batched log-density, (n, d) -> (n, d).

    ``f`` maps (n, d) points to (n,) values; it is called twice per
    coordinate on the whole batch.
    """
    points = np.asarray(points, dtype=float)
    g = np.empty_like(points)
    for i in range(points.shape[1]):
        shift = np.zeros(points.shape[1])
        shift[i] = step
        g[:, i] = (f(points + shift) - f(points - shift)) / (2.0 * step)
    return g


@np.errstate(over="ignore", invalid="ignore")  # a non-finite error fails the audit
def audit_gradient(target: TargetModel, points: np.ndarray, rel_tol: float = 1e-5):
    """Check grad_log_density against central differences at the given points.

    The gradient is called once on the whole (n, d) batch and compared row
    by row with the finite differences of the log-density; a NaN error fails.
    """
    points = np.asarray(points, dtype=float)
    grads = np.asarray(target.grad_log_density(points), dtype=float)
    check_scores(target, grads, points.shape)
    numeric = finite_difference_grad(target.log_density, points)
    scale = np.maximum(1.0, np.max(np.abs(numeric), axis=1))
    err = np.max(np.abs(grads - numeric), axis=1) / scale
    bad = ~(err <= rel_tol)  # NaN compares False
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AssertionError(
            f"gradient audit failed for {target.name} at z={points[i]}: "
            f"rel err {err[i]:.2e}"
        )


def _registered(target: TargetModel, audit_points: np.ndarray) -> TargetModel:
    audit_gradient(target, audit_points)
    return target


def _softmax(logs, ops):
    """Rows of exp(logs) normalised to sum to one, shifted by the row max."""
    w = ops.exp(logs - ops.row_max(logs))
    return w / ops.reshape(ops.reduce_sum(w, axis=1), (-1, 1))


def _logsumexp(logs, ops):
    """log sum_j exp(logs_ij) per row, shifted by the row max."""
    top = ops.row_max(logs)
    return ops.reshape(top, (-1,)) + ops.log(ops.reduce_sum(ops.exp(logs - top), axis=1))


def std_gaussian(dim: int) -> TargetModel:
    """Standard Gaussian N(0, I) in `dim` dimensions."""
    if dim < 1:
        raise ConfigError("must be >= 1", field="dim")

    def log_density(z, ops=_NP):
        return -0.5 * ops.reduce_sum(z * z, axis=-1) - 0.5 * dim * ad.LOG_2PI

    def grad(z, ops=_NP):
        return -z

    target = TargetModel(
        name=f"gaussian{dim}d",
        dim=dim,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[
            MomentSpec(1, np.zeros(dim), "mean"),
            MomentSpec(2, np.ones(dim), "second_moment"),
        ],
    )
    rng = np.random.default_rng(0)
    return _registered(target, rng.normal(size=(5, dim)))


# mixture of two exponentials: rates and weights of the synthetic benchmark
MOE_RATES = (1.5, 0.5)
MOE_WEIGHTS = (1.0 / 3.0, 2.0 / 3.0)


def moe_exact_moment(order: int) -> float:
    """E[z^order] for the exponential mixture: sum_i w_i * order! / rate_i^order."""
    fact = float(math.factorial(order))
    return sum(w * fact / r**order for w, r in zip(MOE_WEIGHTS, MOE_RATES))


def mixture_of_exponentials() -> TargetModel:
    """Two-component exponential mixture, sampled in log space.

    The positive variable z is reparameterized as y = log z, with density
    p(y) = p(exp(y)) * exp(y).  Moments are evaluated after mapping samples
    back through exp.
    """
    rates = np.asarray(MOE_RATES)
    # log(w_i rate_i) per component
    log_w_rates = np.log(np.asarray(MOE_WEIGHTS)) + np.log(rates)
    rate_column = rates[:, None]

    def log_density(y, ops=_NP):
        # log sum_i w_i rate_i exp(-rate_i z) plus the Jacobian y, z = exp(y)
        terms = log_w_rates - rates * ops.exp(y)
        return _logsumexp(terms, ops) + ops.reshape(y, (-1,))

    def grad(y, ops=_NP):
        z = ops.exp(y)  # (n, 1)
        w = _softmax(log_w_rates - rates * z, ops)  # (n, 2) component weights
        return 1.0 - z * ops.matmul(w, rate_column)

    target = TargetModel(
        name="moe",
        dim=1,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[
            MomentSpec(1, np.array([moe_exact_moment(1)]), "mean"),
            MomentSpec(2, np.array([moe_exact_moment(2)]), "second_moment"),
        ],
        moment_transform=np.exp,
    )
    rng = np.random.default_rng(1)
    return _registered(target, rng.normal(scale=1.5, size=(7, 1)))


MOG_GRID_VALUES = (-2.0, 0.0, 2.0)
MOG_COMPONENT_VAR = 0.1


def mog_grid() -> TargetModel:
    """Equally weighted 3x3 grid of isotropic 2-d Gaussians, variance 0.1 each."""
    centers = np.array([(a, b) for a in MOG_GRID_VALUES for b in MOG_GRID_VALUES])
    var = MOG_COMPONENT_VAR
    k = len(centers)

    def _component_logs(z, ops):
        # (n, d) points -> (n, k) component log-densities
        diff = ops.reshape(z, (-1, 1, 2)) - centers
        return -0.5 * ops.reduce_sum(diff * diff, axis=2) / var - ad.LOG_2PI - np.log(var)

    def log_density(z, ops=_NP):
        return _logsumexp(_component_logs(z, ops), ops) - np.log(k)

    def grad(z, ops=_NP):
        w = _softmax(_component_logs(z, ops), ops)
        return -(z - ops.matmul(w, centers)) / var

    second = var + float(np.mean(centers[:, 0] ** 2))
    target = TargetModel(
        name="mog",
        dim=2,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[
            MomentSpec(1, np.zeros(2), "mean"),
            MomentSpec(2, np.full(2, second), "second_moment"),
        ],
    )
    rng = np.random.default_rng(2)
    return _registered(target, rng.normal(scale=2.0, size=(7, 2)))


def funnel(scale: float = 1.35) -> TargetModel:
    """Hierarchical 2-d funnel: z1 ~ N(0, s1^2), z2 ~ N(0, exp(z1)^2), s1 = ``scale``."""
    if not 0 < scale < math.inf:
        raise ConfigError("must be finite and > 0", field="scale")
    s1 = scale
    var = float(s1) * float(s1)
    if not (var > 0 and 1.0 / var < math.inf):
        raise ConfigError("too small: its precision 1/s1^2 overflows", field="scale")

    basis = np.eye(2)

    # The vis-funnel traces depend on this exact order of tape operations.
    def _split(z, ops):
        # the two columns of an (n, 2) batch, each (n, 1)
        return ops.matmul(z, basis[:, :1]), ops.matmul(z, basis[:, 1:])

    def log_density(z, ops=_NP):
        z1, z2 = _split(z, ops)
        lp1 = -0.5 / (s1 * s1) * (z1 * z1) + (-np.log(s1) - 0.5 * ad.LOG_2PI)
        e = ops.exp(-2.0 * z1)
        lp2 = -0.5 * (z2 * z2 * e) + -z1 - 0.5 * ad.LOG_2PI
        return ops.reshape(lp1 + lp2, (-1,))

    def grad(z, ops=_NP):
        z1, z2 = _split(z, ops)
        e = ops.exp(-2.0 * z1)
        g1 = -1.0 / (s1 * s1) * z1 + z2 * z2 * e - 1.0
        g2 = -(z2 * e)
        # stack the (n, 1) columns back into (n, 2)
        return g1 * basis[:1] + g2 * basis[1:]

    target = TargetModel(
        name="funnel",
        dim=2,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[MomentSpec(1, np.zeros(2), "mean")],
    )
    rng = np.random.default_rng(3)
    return _registered(target, rng.normal(scale=1.0, size=(8, 2)))


BUILTIN_TARGETS = {
    "gaussian": std_gaussian,
    "moe": mixture_of_exponentials,
    "mog": mog_grid,
    "funnel": funnel,
}


def make_target(name: str, **params) -> TargetModel:
    if name not in BUILTIN_TARGETS:
        raise ValueError(f"unknown target {name!r}; choose from {sorted(BUILTIN_TARGETS)}")
    parameters = inspect.signature(BUILTIN_TARGETS[name], eval_str=True).parameters
    # a required parameter left out keeps its default, Parameter.empty, which fits no type
    for key, value in {**{k: p.default for k, p in parameters.items()}, **params}.items():
        kind = parameters[key].annotation if key in parameters else None
        # read as JSON: a float parameter takes an integer too, and a bool fits none
        if not (type(value) is kind or kind is float and type(value) is int):
            raise ConfigError(f"{name} takes ({', '.join(map(str, parameters.values()))}), "
                              f"got {params}", field=key)
    return BUILTIN_TARGETS[name](**params)
