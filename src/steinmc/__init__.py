"""Particle-based Bayesian inference with repulsive stochastic-gradient
samplers and sampler-refined variational approximations."""

from . import autodiff, bnn, diagnostics, kernels, refine, samplers, targets
from .diagnostics import RunReport, ess, fp_residual, gelman_rubin, moment_error
from .kernels import KernelConfig, KernelMatrix, kernel_matrix, sample_repulsive_noise
from .refine import DiagonalGaussianGuide, RefinedGuide, elbo, elbo_grad, optimize
from .samplers import (
    CollectionPolicy,
    MomentumState,
    ParticleEnsemble,
    StepSchedule,
    run,
)
from .targets import TargetModel, make_target

__all__ = [
    "autodiff",
    "bnn",
    "diagnostics",
    "kernels",
    "refine",
    "samplers",
    "targets",
    "RunReport",
    "ess",
    "fp_residual",
    "gelman_rubin",
    "moment_error",
    "KernelConfig",
    "KernelMatrix",
    "kernel_matrix",
    "sample_repulsive_noise",
    "DiagonalGaussianGuide",
    "RefinedGuide",
    "elbo",
    "elbo_grad",
    "optimize",
    "CollectionPolicy",
    "MomentumState",
    "ParticleEnsemble",
    "StepSchedule",
    "run",
    "TargetModel",
    "make_target",
]

__version__ = "0.1.0"
