"""RBF kernel machinery shared by the repulsive samplers and the refined bound.

The kernel is k(a, b) = exp(-||a - b||^2 / h).  A particle ensemble yields an
L x L kernel matrix K together with per-particle repulsion rows
sum_l grad_{z_l} k(z_l, z_i) = (2/h) sum_l (z_i - z_l) k(z_l, z_i), which act
as the diffusion-correction term of the repulsive update rules.

Squared distances are assembled in Gram form from one symmetric product
X X^T, with no (L, L, d) difference tensor; pairs close enough for the Gram
form to cancel (duplicated rows among them) are recomputed from their explicit
differences, so coincident particles are exactly at distance 0.

:func:`rbf` and :func:`kernel_drift` serve both the samplers (numpy) and the
refined bound of :mod:`steinmc.refine` (numpy or tape nodes).
:func:`kernel_matrix` builds the kernel of every interacting sampler step.

The block-diagonal L*d x L*d diffusion matrix is never materialized: it equals
K (x) I_d, so factorizations and noise draws reduce to the L x L matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FactorizationError, check_step

# Diagonal jitters tried in turn until the kernel matrix factorizes.
_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


@dataclass
class KernelConfig:
    """Bandwidth of the RBF kernel: h = `bandwidth` as given, or, when it is
    None, the median heuristic, recomputed from the particles on every call.
    """

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ConfigError("must be finite and > 0", field="bandwidth")


@dataclass
class KernelMatrix:
    """Kernel evaluations over an ensemble.

    entries:    L x L symmetric matrix with unit diagonal, K_ij = k(z_i, z_j).
    grad_terms: L x d matrix; row i is sum_l grad_{z_l} k(z_l, z_i), the
                repulsion vector pushing particle i away from the others.
    bandwidth:  the h actually used (after the median heuristic, if active).
    degenerate_bandwidth: True when the median heuristic collapsed (all
                particles coincident, or a single particle) and h fell back
                to 1.0.
    """

    entries: np.ndarray
    grad_terms: np.ndarray
    bandwidth: float
    degenerate_bandwidth: bool = False

    @property
    def n_particles(self) -> int:
        return self.entries.shape[0]


def squared_distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances in Gram form, with exact near pairs.

    D_ij = (n_i + n_j) - 2 G_ij with G = X X^T and the norms n taken from
    G's own diagonal, so D has an exactly zero diagonal and is exactly
    symmetric (numpy evaluates X X^T as one symmetric rank-k update).  The
    subtraction cancels when D_ij is small against n_i + n_j, so every pair
    with D_ij <= 1e-6 (n_i + n_j) is recomputed from the explicit difference
    x_i - x_j: duplicated rows get exactly 0 and ensembles far from the origin
    stay accurate.  Other pairs carry a relative error of at most about
    d * 1e-10.
    """
    x = np.ascontiguousarray(positions, dtype=float)
    sq = x @ x.T
    norms = sq.diagonal().copy()
    tol = np.add.outer(norms, norms)
    sq *= -2.0
    sq += tol  # (n_i + n_j) - 2 G_ij, symmetric because the sum is formed first
    tol *= 1e-6
    far = sq > tol
    # the diagonal is always near; recompute only when other pairs are too
    if far.size - np.count_nonzero(far) > x.shape[0]:
        i, j = np.nonzero(~far)
        diff = x[i] - x[j]
        sq[i, j] = np.einsum("ij,ij->i", diff, diff)
    return sq


def median_bandwidth(sq_dists: np.ndarray) -> tuple[float, bool]:
    """Median-heuristic bandwidth h = median(d^2) / log(L + 1).

    Returns (h, degenerate).  Falls back to h = 1.0 when there are no
    distinct pairs or all pairwise distances are zero.  The median is taken
    over the off-diagonal entries of any (L, L) matrix, symmetric or not.
    """
    n = sq_dists.shape[0]
    if n < 2:
        return 1.0, True
    # off-diagonal entries: after the first, every (n + 1)-th flat entry is diagonal
    off = sq_dists.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]
    mid = off.size // 2  # n (n - 1) is even: the median averages the two middle values
    part = off.flatten()
    part.partition(mid)  # one kth: a pair of kth costs 4x as much
    med = (float(part[:mid].max()) + float(part[mid])) / 2
    if med <= 0.0:
        return 1.0, True
    return med / np.log(n + 1.0), False


def kernel_drift(k, z, ops=ad.numpy_ops):
    """Row i: sum_l k_il (z_i - z_l), for an (m, m) weight matrix k."""
    return z * ops.reshape(ops.reduce_sum(k, axis=1), (-1, 1)) - ops.matmul(k, z)


def rbf(z, cfg: KernelConfig, ops=ad.numpy_ops):
    """RBF kernel matrix of an (m, d) batch z: returns (k, h, degenerate).

    On the tape the distances from :func:`squared_distances` enter as one
    node with the analytic pullback dD_ij/dz_i = 2 (z_i - z_j).  A median
    bandwidth is a statistic of the positions, held constant.
    """
    x = ops.value(z)
    sq = squared_distances(x)
    if cfg.bandwidth is None:
        h, degenerate = median_bandwidth(sq)
    else:
        h, degenerate = cfg.bandwidth, False
    if isinstance(z, ad.Node):
        # d/dz_i of sum_jl g_jl D_jl is 2 sum_l (g + g^T)_il (z_i - z_l)
        sq = ad.Node(sq, parents=((z, lambda g: 2.0 * kernel_drift(g + g.T, x)),))
    # D is exactly symmetric with a zero diagonal, so k is too
    return ops.exp(sq / -h), h, degenerate


def kernel_matrix(positions: np.ndarray, cfg: KernelConfig) -> KernelMatrix:
    """Assemble the kernel matrix and repulsion rows for an ensemble.

    grad_terms row i is (2/h) sum_l (z_i - z_l) k(z_l, z_i), the analytic
    gradient of the kernel with respect to its first argument summed over
    the ensemble.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 1:
        raise ValueError("positions must be an L x d matrix with L >= 1")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    entries, h, degenerate = rbf(positions, cfg)
    grad_terms = kernel_drift(entries, positions)
    grad_terms *= 2.0 / h
    return KernelMatrix(
        entries=entries,
        grad_terms=grad_terms,
        bandwidth=h,
        degenerate_bandwidth=degenerate,
    )


def _jittered_cholesky(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    for jit in _JITTER_LADDER:
        try:
            return np.linalg.cholesky(matrix + jit * np.eye(n) if jit > 0 else matrix)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(_JITTER_LADDER)


def sample_repulsive_noise(
    kernel: KernelMatrix, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw L x d Gaussian noise with covariance (2 eps / L) K across particles.

    d is the width of the kernel's repulsion rows.  Coordinates are
    independent across the d dimensions; correlation across particles follows
    the kernel matrix.  Implemented as one product of the L x L Cholesky
    factor C (K = C C^T) with L x d white noise, which gives each dimension
    covariance C C^T = K through the Kronecker structure K (x) I_d.
    """
    check_step(eps)
    chol = _jittered_cholesky(kernel.entries)
    noise = chol @ rng.standard_normal(kernel.grad_terms.shape)
    noise *= np.sqrt(2.0 * eps / kernel.n_particles)
    return noise
