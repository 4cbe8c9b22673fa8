"""Particle-based Bayesian inference with repulsive stochastic-gradient
samplers and sampler-refined variational approximations."""

__version__ = "0.1.0"

# bound on first access (PEP 562), so a command loads only the modules it runs
_MODULES = ("autodiff", "bnn", "diagnostics", "errors", "kernels", "refine", "samplers", "targets")


def __getattr__(name):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{name}")  # binds the module here, as `import` does
    return globals()[name]
