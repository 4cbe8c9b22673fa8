"""Exception types shared across the library, and the two run-time rules
that raise them, each stated once: :func:`check_step` and :func:`check_finite`."""

import numpy as np


class SteinmcError(Exception):
    """Base class for library-specific failures."""


class DivergenceError(SteinmcError):
    """A sampler produced a non-finite coordinate.

    Carries the iteration index, the offending particle index and the last
    all-finite ensemble snapshot so callers can inspect the run up to the
    failure.
    """

    def __init__(self, iteration, particle, snapshot=None):
        self.iteration = iteration
        self.particle = particle
        self.snapshot = snapshot
        super().__init__(
            f"non-finite coordinate for particle {particle} at iteration {iteration}"
        )


class FactorizationError(SteinmcError):
    """Kernel matrix could not be factorized even after jitter escalation."""

    def __init__(self, jitters):
        self.jitters = tuple(jitters)
        super().__init__(
            "Cholesky factorization failed; attempted diagonal jitters: "
            + ", ".join(f"{j:g}" for j in self.jitters)
        )


class ConfigError(SteinmcError, ValueError):
    """Invalid experiment configuration or argument value (hence also a
    ValueError); `field` names the offending entry and `reason` is the message
    without it.  The CLI exits with 2."""

    def __init__(self, message, field=None):
        self.field = field
        self.reason = message
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


def check_step(eps: float, name: str = "eps") -> None:
    """The step-size rule, checked before a step uses ``eps``."""
    if not eps > 0:
        raise ValueError(f"{name} must be > 0")


def check_finite(positions: np.ndarray, iteration: int, snapshot=None) -> None:
    """The divergence rule: a non-finite coordinate diverges ``iteration``.  One
    pass checks the whole array; a row scan names the particle only if it fails."""
    if not np.isfinite(positions).all():
        bad = ~np.isfinite(positions).all(axis=1)
        raise DivergenceError(iteration=iteration, particle=int(bad.argmax()), snapshot=snapshot)
