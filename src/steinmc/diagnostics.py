"""Statistics of sampler output: effective sample size, R-hat, moment
errors, and a grid-based stationarity certificate for one-dimensional
diffusions.  The record that carries them for a run is
:class:`steinmc.samplers.RunResult`."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChainError


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

    Raises DegenerateChainError when in some dimension the within-chain
    standard deviation is at most 1024 ulps of the largest |value| there: a
    chain that has stopped moving still jitters by a few ulps (4 to 12 for a
    converged deterministic SVGD ensemble), which reads as R-hat ~ 1e15,
    while no chain that samples has so little spread next to its values.
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

    # one contiguous (d, M, N) layout whatever the input's strides, so the
    # sums along each chain, and R-hat's last digits, do not depend on them
    x = np.ascontiguousarray(chains.transpose(2, 0, 1))
    b_over_n = np.var(x.mean(axis=2), axis=1, ddof=1)
    w = np.mean(np.var(x, axis=2, ddof=1), axis=1)
    ulp = np.finfo(float).eps * np.max(np.abs(x), axis=(1, 2))
    if np.any(np.sqrt(w) <= 1024 * ulp):
        raise DegenerateChainError("within-chain variance at rounding level")
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

    ``drift`` is called once, on the whole (n,) grid array, and must return
    either n values or one scalar, which applies at every grid point.
    """
    if diffusion < 0:
        raise ValueError("diffusion must be >= 0")
    if n < 100:
        raise ValueError("need at least 100 grid points")
    grid = np.linspace(lo, hi, n)
    dz = grid[1] - grid[0]

    log_pi = np.asarray(target.log_density(grid[:, None]), dtype=float)
    pi = np.exp(log_pi - np.max(log_pi))
    pi /= np.trapezoid(pi, grid)

    mu = np.asarray(drift(grid), dtype=float)
    if mu.ndim == 0:
        mu = np.full(n, float(mu))
    elif mu.shape != (n,):
        raise ValueError(f"drift returned shape {mu.shape} for a grid of {n} points")

    flux = mu * pi
    d_flux = (flux[2:] - flux[:-2]) / (2.0 * dz)
    d2_pi = (pi[2:] - 2.0 * pi[1:-1] + pi[:-2]) / (dz * dz)
    residual = -d_flux + diffusion * d2_pi
    return float(np.max(np.abs(residual)))

