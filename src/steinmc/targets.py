"""Differentiable target log-densities with exact reference moments.

The log-density takes one point of shape (d,) and returns a float.  The
gradient (the score) is batched: it maps an (L, d) array of particles to the
(L, d) array of their scores in one call, so samplers never loop over
particles.  Every constructor runs a finite-difference audit of the analytic
gradient before handing the target out.  Targets used by the refined
variational sampler additionally expose tape builders with the same batched
contract: ``ad_log_density`` maps an (n, d) node to the (n,) node of per-row
log densities and ``ad_grad_log_density`` maps it to the (n, d) node of
scores, so unrolled sampler steps stay differentiable without a second-order
tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MomentSpec:
    """A raw moment E[z^order] (per coordinate) with its exact value."""

    order: int
    exact: np.ndarray
    label: str


@dataclass
class TargetModel:
    """Unnormalized log-density with analytic gradient.

    ``log_density`` maps one point of shape (d,) to a float;
    ``grad_log_density`` maps an (L, d) batch of points to the (L, d) batch
    of their gradients, row for row.  The optional tape builders follow the
    same contract on :mod:`autodiff` nodes: ``ad_log_density`` maps an (n, d)
    node to an (n,) node, ``ad_grad_log_density`` an (n, d) node to an (n, d)
    node.  ``moment_transform`` maps sampling-space
    draws into the space where the reference moments live (identity for most
    targets; exp for the log-reparameterized ones).
    """

    name: str
    dim: int
    log_density: Callable[[np.ndarray], float]
    grad_log_density: Callable[[np.ndarray], np.ndarray]
    reference_moments: list[MomentSpec] = field(default_factory=list)
    moment_transform: Callable[[np.ndarray], np.ndarray] = lambda z: z
    ad_log_density: Callable | None = None
    ad_grad_log_density: Callable | None = None
    # Vestigial: only the benchmark tracer (perfbench/tracer.py) reads it;
    # nothing in the library sets or reads it.
    grad_log_density_batch: Callable[[np.ndarray], np.ndarray] | None = None


def finite_difference_grad(f, z, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        g[i] = (f(zp) - f(zm)) / (2.0 * step)
    return g


def audit_gradient(target: TargetModel, points: np.ndarray, rel_tol: float = 1e-5):
    """Check grad_log_density against central differences at the given points.

    The gradient is called once on the whole (n, d) batch; each row is
    compared with the finite differences of the log-density at that point.
    """
    points = np.asarray(points, dtype=float)
    grads = np.asarray(target.grad_log_density(points), dtype=float)
    if grads.shape != points.shape:
        raise AssertionError(
            f"gradient audit failed for {target.name}: shape {grads.shape} "
            f"for points of shape {points.shape}"
        )
    for z, analytic in zip(points, grads):
        numeric = finite_difference_grad(target.log_density, z)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        err = float(np.max(np.abs(analytic - numeric))) / scale
        if err > rel_tol:
            raise AssertionError(
                f"gradient audit failed for {target.name} at z={z}: rel err {err:.2e}"
            )


def _registered(target: TargetModel, audit_points: np.ndarray) -> TargetModel:
    audit_gradient(target, audit_points)
    return target


def std_gaussian(dim: int) -> TargetModel:
    """Standard Gaussian N(0, I) in `dim` dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def log_density(z):
        z = np.asarray(z, dtype=float)
        return float(-0.5 * np.dot(z, z) - 0.5 * dim * _LOG_2PI)

    def grad(z):
        return -np.asarray(z, dtype=float)

    def ad_log_density(z_node):
        quad = ad.mul(-0.5, ad.reduce_sum(ad.mul(z_node, z_node), axis=-1))
        return ad.add(quad, -0.5 * dim * _LOG_2PI)

    def ad_grad(z_node):
        return ad.neg(z_node)

    target = TargetModel(
        name=f"gaussian{dim}d",
        dim=dim,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[
            MomentSpec(1, np.zeros(dim), "mean"),
            MomentSpec(2, np.ones(dim), "second_moment"),
        ],
        ad_log_density=ad_log_density,
        ad_grad_log_density=ad_grad,
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
    log_w = np.log(np.asarray(MOE_WEIGHTS))
    rates = np.asarray(MOE_RATES)
    log_rates = np.log(rates)

    def _terms(z):
        # log(w_i rate_i exp(-rate_i z)) per component, along the last axis
        return log_w + log_rates - rates * z

    def log_density(y):
        y = float(np.asarray(y, dtype=float).reshape(()))
        # log sum_i w_i rate_i exp(-rate_i z), stabilized, plus the Jacobian y
        terms = _terms(np.exp(y))
        m = np.max(terms)
        return float(m + np.log(np.sum(np.exp(terms - m))) + y)

    def grad(y):
        z = np.exp(np.asarray(y, dtype=float))  # (L, 1)
        terms = _terms(z)  # (L, 2)
        w = np.exp(terms - np.max(terms, axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return 1.0 - z * (w @ rates)[:, None]

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

    def _component_logs(z):
        # (L, d) points -> (L, k) component log-densities
        diff = z[:, None, :] - centers
        return -0.5 * np.sum(diff * diff, axis=2) / var - _LOG_2PI - np.log(var)

    def log_density(z):
        logs = _component_logs(np.asarray(z, dtype=float)[None, :])[0]
        m = np.max(logs)
        return float(m + np.log(np.sum(np.exp(logs - m))) - np.log(k))

    def grad(z):
        z = np.asarray(z, dtype=float)
        logs = _component_logs(z)
        w = np.exp(logs - np.max(logs, axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return -(z - w @ centers) / var

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


def funnel(scale: float = 1.35, scale_convention: str = "std") -> TargetModel:
    """Hierarchical 2-d funnel: z1 ~ N(0, s1^2), z2 ~ N(0, exp(z1)^2).

    ``scale_convention`` selects whether ``scale`` (and exp(z1)) are read as
    standard deviations ("std", the default) or variances ("var").
    """
    if scale_convention not in ("std", "var"):
        raise ValueError("scale_convention must be 'std' or 'var'")
    s1 = scale if scale_convention == "std" else float(np.sqrt(scale))
    # exponent multiplier: log-std of z2 is z1 (std convention) or z1/2 (var)
    a = 1.0 if scale_convention == "std" else 0.5

    def log_density(z):
        z1, z2 = float(z[0]), float(z[1])
        lp1 = -0.5 * (z1 / s1) ** 2 - np.log(s1) - 0.5 * _LOG_2PI
        lp2 = -0.5 * z2 * z2 * np.exp(-2.0 * a * z1) - a * z1 - 0.5 * _LOG_2PI
        return float(lp1 + lp2)

    def grad(z):
        z = np.asarray(z, dtype=float)
        z1, z2 = z[:, 0], z[:, 1]
        e = np.exp(-2.0 * a * z1)
        g1 = -z1 / (s1 * s1) + a * z2 * z2 * e - a
        g2 = -z2 * e
        return np.stack([g1, g2], axis=1)

    basis = np.eye(2)

    def _split(z_node):
        # the two columns of an (n, 2) node, each (n, 1)
        return ad.matmul(z_node, basis[:, :1]), ad.matmul(z_node, basis[:, 1:])

    def ad_log_density(z_node):
        z1, z2 = _split(z_node)
        lp1 = ad.add(
            ad.mul(-0.5 / (s1 * s1), ad.mul(z1, z1)),
            -np.log(s1) - 0.5 * _LOG_2PI,
        )
        e = ad.exp(ad.mul(-2.0 * a, z1))
        lp2 = ad.add(
            ad.add(ad.mul(-0.5, ad.mul(ad.mul(z2, z2), e)), ad.mul(-a, z1)),
            -0.5 * _LOG_2PI,
        )
        return ad.reshape(ad.add(lp1, lp2), (-1,))

    def ad_grad(z_node):
        z1, z2 = _split(z_node)
        e = ad.exp(ad.mul(-2.0 * a, z1))
        g1 = ad.add(
            ad.add(ad.mul(-1.0 / (s1 * s1), z1), ad.mul(a, ad.mul(ad.mul(z2, z2), e))),
            -a,
        )
        g2 = ad.neg(ad.mul(z2, e))
        # stack the (n, 1) columns back into (n, 2)
        return ad.add(ad.mul(g1, basis[:1]), ad.mul(g2, basis[1:]))

    target = TargetModel(
        name="funnel",
        dim=2,
        log_density=log_density,
        grad_log_density=grad,
        reference_moments=[MomentSpec(1, np.zeros(2), "mean")],
        ad_log_density=ad_log_density,
        ad_grad_log_density=ad_grad,
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
    return BUILTIN_TARGETS[name](**params)
