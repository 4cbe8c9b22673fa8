"""RBF kernel machinery shared by the repulsive samplers.

The kernel is k(a, b) = exp(-||a - b||^2 / h).  A particle ensemble yields an
L x L kernel matrix K together with per-particle repulsion rows
sum_l grad_{z_l} k(z_l, z_i) = (2/h) sum_l (z_i - z_l) k(z_l, z_i), which act
as the diffusion-correction term of the repulsive update rules.

The block-diagonal L*d x L*d diffusion matrix is never materialized: it equals
K (x) I_d, so factorizations and noise draws reduce to the L x L matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError

# Diagonal jitter ladder used when a Cholesky factorization fails.
_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


@dataclass
class KernelConfig:
    """Bandwidth and factorization settings for the RBF kernel.

    bandwidth_mode "median" recomputes the bandwidth from the current
    particles on every call; "fixed" uses `bandwidth` as given.
    `jitter` is added to the kernel matrix diagonal before factorization.
    """

    bandwidth: float = 1.0
    bandwidth_mode: str = "median"
    jitter: float = 0.0

    def __post_init__(self):
        if self.bandwidth_mode not in ("fixed", "median"):
            raise ValueError(f"unknown bandwidth_mode {self.bandwidth_mode!r}")
        if self.bandwidth_mode == "fixed" and not self.bandwidth > 0:
            raise ValueError("fixed bandwidth must be > 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


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
    jitter: float = 0.0
    degenerate_bandwidth: bool = False
    _chol: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_particles(self) -> int:
        return self.entries.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor of entries (+ jitter), escalating jitter on failure."""
        if self._chol is None:
            self._chol = _jittered_cholesky(self.entries, self.jitter)
        return self._chol


def squared_distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, computed from explicit differences.

    The difference-based form keeps the matrix exactly symmetric with an
    exactly zero diagonal, which the samplers rely on.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def median_bandwidth(sq_dists: np.ndarray) -> tuple[float, bool]:
    """Median-heuristic bandwidth h = median(d^2) / log(L + 1).

    Returns (h, degenerate).  Falls back to h = 1.0 when there are no
    distinct pairs or all pairwise distances are zero.
    """
    n = sq_dists.shape[0]
    if n < 2:
        return 1.0, True
    off = sq_dists[~np.eye(n, dtype=bool)]
    mid = off.size // 2  # n (n - 1) is even: the median averages the two middle values
    med = float(np.partition(off, (mid - 1, mid))[mid - 1 : mid + 1].mean())
    if med <= 0.0:
        return 1.0, True
    return med / np.log(n + 1.0), False


def kernel_matrix(positions: np.ndarray, cfg: KernelConfig) -> KernelMatrix:
    """Assemble the kernel matrix and repulsion rows for an ensemble.

    grad_terms row i is (2/h) sum_l (z_i - z_l) k(z_l, z_i), the analytic
    gradient of the kernel with respect to its first argument summed over
    the ensemble.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 1:
        raise ValueError("positions must be an L x d matrix with L >= 1")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")

    sq = squared_distances(positions)
    degenerate = False
    if cfg.bandwidth_mode == "median":
        h, degenerate = median_bandwidth(sq)
    else:
        h = cfg.bandwidth

    # sq is exactly symmetric with a zero diagonal, so entries are too
    entries = np.exp(-sq / h)

    # row i: (2/h) * (z_i * sum_l K_il - sum_l K_il z_l)
    col_sums = entries.sum(axis=1)
    grad_terms = (2.0 / h) * (positions * col_sums[:, None] - entries @ positions)

    return KernelMatrix(
        entries=entries,
        grad_terms=grad_terms,
        bandwidth=h,
        jitter=cfg.jitter,
        degenerate_bandwidth=degenerate,
    )


def identity_kernel(n_particles: int, dim: int) -> KernelMatrix:
    """Kernel state of non-interacting particles (K = I, no repulsion)."""
    return KernelMatrix(
        entries=np.eye(n_particles),
        grad_terms=np.zeros((n_particles, dim)),
        bandwidth=1.0,
    )


def _jittered_cholesky(matrix: np.ndarray, base_jitter: float) -> np.ndarray:
    attempted = []
    n = matrix.shape[0]
    ladder = [base_jitter] + [j for j in _JITTER_LADDER if j > base_jitter]
    for jit in ladder:
        attempted.append(jit)
        try:
            return np.linalg.cholesky(matrix + jit * np.eye(n) if jit > 0 else matrix)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(attempted)


def sample_repulsive_noise(
    kernel: KernelMatrix, eps: float, rng: np.random.Generator, dim: int
) -> np.ndarray:
    """Draw L x d Gaussian noise with covariance (2 eps / L) K across particles.

    Coordinates are independent across the d dimensions; correlation across
    particles follows the kernel matrix.  Implemented as one lower-triangular
    solve of the L x L matrix applied to each dimension, exploiting the
    Kronecker structure K (x) I_d.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    n = kernel.n_particles
    chol = kernel.cholesky()
    white = rng.standard_normal((n, dim))
    return np.sqrt(2.0 * eps / n) * (chol @ white)
