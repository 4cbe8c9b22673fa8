"""Particle-based Bayesian inference with repulsive stochastic-gradient
samplers and sampler-refined variational approximations."""

from . import autodiff, bnn, diagnostics, kernels, refine, samplers, targets

__version__ = "0.1.0"
