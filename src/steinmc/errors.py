"""Exception types shared across the library."""


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


class DegenerateChainError(SteinmcError):
    """A diagnostic was asked to summarize a zero-variance chain."""


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
