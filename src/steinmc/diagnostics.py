"""Run diagnostics: effective sample size, R-hat, moment errors, and a
grid-based stationarity certificate for one-dimensional diffusions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChainError

SCHEMA_VERSION = 1


def ess(chain: np.ndarray) -> float:
    """Autocorrelation-discounted effective sample size of a scalar chain.

    Uses N / (1 + 2 sum rho_k) with the autocorrelation sum truncated at the
    first non-positive estimate, clamped to [1, N].
    """
    chain = np.asarray(chain, dtype=float).ravel()
    n = chain.size
    if n < 10:
        raise ValueError("chain length must be >= 10")
    centered = chain - chain.mean()
    var = float(np.dot(centered, centered)) / n
    if var == 0.0:
        raise DegenerateChainError("constant chain has no effective sample size")
    acf_sum = 0.0
    for lag in range(1, n):
        rho = float(np.dot(centered[:-lag], centered[lag:])) / (n * var)
        if rho <= 0.0:
            break
        acf_sum += rho
    value = n / (1.0 + 2.0 * acf_sum)
    return float(min(max(value, 1.0), n))


def ess_multivariate(samples: np.ndarray) -> float:
    """Per-dimension minimum ESS of pooled (n, d) samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return min(ess(samples[:, j]) for j in range(samples.shape[1]))


def gelman_rubin(chains: np.ndarray) -> np.ndarray:
    """Potential scale reduction factor per dimension.

    ``chains`` has shape (M, N) or (M, N, d) with M >= 2 equal-length chains.
    Returns a length-d array (d = 1 for scalar chains).
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim == 2:
        chains = chains[:, :, None]
    if chains.ndim != 3:
        raise ValueError("chains must have shape (M, N) or (M, N, d)")
    m, n, _ = chains.shape
    if m < 2:
        raise ValueError("need at least 2 chains")
    if n < 10:
        raise ValueError("chains must have length >= 10")

    # (d, M, N) copy in the input's M/N memory order, so numpy sums as a loop over d
    if abs(chains.strides[1]) <= abs(chains.strides[0]):
        x = np.ascontiguousarray(chains.transpose(2, 0, 1))
    else:
        x = np.ascontiguousarray(chains.transpose(2, 1, 0)).transpose(0, 2, 1)
    b_over_n = np.var(np.ascontiguousarray(x.mean(axis=2)), axis=1, ddof=1)
    w = np.mean(np.var(x, axis=2, ddof=1), axis=1)
    if np.any(w == 0.0):
        raise DegenerateChainError("zero within-chain variance")
    v_hat = (n - 1) / n * w + b_over_n
    return np.sqrt(v_hat / w)


def moment_error(samples: np.ndarray, order: int, exact) -> float:
    """Sum over coordinates of |sample raw moment - exact|."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    est = np.mean(samples**order, axis=0)
    return float(np.sum(np.abs(est - np.asarray(exact, dtype=float))))


def fp_residual(target, drift, diffusion: float, lo: float, hi: float, n: int) -> float:
    """Max residual of the stationary transport equation on a grid.

    Evaluates -d/dz [drift(z) pi(z)] + d^2/dz^2 [diffusion * pi(z)] by central
    differences, with pi the grid-normalized density of a one-dimensional
    target.  A residual near zero certifies that pi is stationary for the
    diffusion with that drift; a clearly positive residual certifies it is
    not.
    """
    if diffusion < 0:
        raise ValueError("diffusion must be >= 0")
    if n < 100:
        raise ValueError("need at least 100 grid points")
    grid = np.linspace(lo, hi, n)
    dz = grid[1] - grid[0]

    log_pi = np.array([target.log_density(np.atleast_1d(z)) for z in grid])
    pi = np.exp(log_pi - np.max(log_pi))
    pi /= np.trapezoid(pi, grid)

    mu = np.array([float(np.asarray(drift(z)).reshape(())) for z in grid])

    flux = mu * pi
    d_flux = (flux[2:] - flux[:-2]) / (2.0 * dz)
    d2_pi = (pi[2:] - 2.0 * pi[1:-1] + pi[:-2]) / (dz * dz)
    residual = -d_flux + diffusion * d2_pi
    return float(np.max(np.abs(residual)))


@dataclass
class RunReport:
    """Diagnostics bundle produced by the ensemble runner."""

    ess: float
    ess_per_second: float
    rhat: np.ndarray
    moment_errors: list[tuple[str, float]]
    wall_clock: float
    collected_count: int
    schema_version: int = SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "ess": None if not np.isfinite(self.ess) else self.ess,
            "ess_per_second": None
            if not np.isfinite(self.ess_per_second)
            else self.ess_per_second,
            "rhat": [
                float(r) if np.isfinite(r) else None for r in np.atleast_1d(self.rhat)
            ],
            "wall_clock_seconds": self.wall_clock,
            "collected_count": self.collected_count,
        }
        for label, err in self.moment_errors:
            out[f"err_{label}"] = err
        out.update(self.extra)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
