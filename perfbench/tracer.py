"""Span tracing around the public entry points of each steinmc module.

The tracer replaces a function with a timing wrapper in the namespace of the
module that looks it up at call time, so the program's own code is unchanged
and nothing is wrapped outside a ``with tracer.installed():`` block.  For
example, ``samplers.run`` calls ``gelman_rubin`` through the ``samplers``
module globals, so the wrapper goes on ``steinmc.samplers.gelman_rubin`` and
the span is named after the layer that defines it, ``diagnostics.rhat``.

Spans are kept in memory as ``[name, start, end, parent]`` rows (parent is
the index of the enclosing span, -1 for none) and written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (owner, attribute, span name).  The owner is the module, or class, through
# which callers look the attribute up.
ENTRY_POINTS = (
    ("steinmc.cli", "main", "cli.main"),
    ("steinmc.cli", "write_atomic", "cli.write"),
    ("steinmc.cli", "validate_config", "cli.validate"),
    ("steinmc.targets", "make_target", "targets.build"),
    ("steinmc.targets", "funnel", "targets.build"),
    ("steinmc.samplers", "run", "samplers.run"),
    ("steinmc.samplers", "sgld_step", "samplers.step"),
    ("steinmc.samplers", "repulsive_sgld_step", "samplers.step"),
    ("steinmc.samplers", "repulsive_sgdm_step", "samplers.step"),
    ("steinmc.samplers", "repulsive_adam_step", "samplers.step"),
    ("steinmc.samplers", "svgd_direction", "samplers.step"),
    ("steinmc.samplers", "ess_multivariate", "diagnostics.ess"),
    ("steinmc.samplers", "gelman_rubin", "diagnostics.rhat"),
    ("steinmc.samplers", "moment_error", "diagnostics.moment_error"),
    ("steinmc.kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("steinmc.kernels", "squared_distances", "kernels.squared_distances"),
    ("steinmc.kernels", "median_bandwidth", "kernels.median_bandwidth"),
    ("steinmc.kernels", "sample_repulsive_noise", "kernels.noise"),
    ("steinmc.refine", "optimize", "refine.optimize"),
    ("steinmc.refine", "elbo", "refine.elbo"),
    ("steinmc.autodiff", "backward", "autodiff.backward"),
    ("steinmc.autodiff", "_topological_order", "autodiff.topological_order"),
    ("steinmc.bnn", "load_csv", "bnn.load_csv"),
    ("steinmc.bnn", "evaluate", "bnn.evaluate"),
    ("steinmc.bnn.BnnPotential", "potential_grad", "bnn.potential_grad"),
)

MODULES = ("targets", "kernels", "samplers", "diagnostics", "autodiff", "refine", "bnn", "cli")


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner_name, attr, name in ENTRY_POINTS:
                owner = _resolve(owner_name)
                if attr not in vars(owner):
                    self.missing.add(f"{owner_name}.{attr}")
                    continue
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), self._hook(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- counters taken from arguments and results at the span boundary

    def _hook(self, name: str):
        return {
            "targets.build": self._on_target,
            "kernels.kernel_matrix": self._on_kernel_matrix,
            "autodiff.topological_order": self._on_order,
            "bnn.potential_grad": self._on_potential_grad,
            "cli.write": self._on_write,
        }.get(name)

    def _on_target(self, args, target):
        """Wrap the built target's score functions for this job."""
        counts = self.counts

        def count_one(args, result):
            counts["targets.score_rows"] += 1

        def count_batch(args, result):
            counts["targets.score_rows"] += len(args[0])

        target.grad_log_density = self.wrap("targets.score", target.grad_log_density, count_one)
        if target.grad_log_density_batch is not None:
            target.grad_log_density_batch = self.wrap(
                "targets.score", target.grad_log_density_batch, count_batch
            )

    def _on_kernel_matrix(self, args, km):
        n, d = args[0].shape
        self.counts["kernels.pair_bytes_computed"] += 8 * n * n * d
        self.counts["kernels.degenerate_bandwidth_count"] += bool(km.degenerate_bandwidth)

    def _on_order(self, args, order):
        self.counts["autodiff.nodes"] += len(order)

    def _on_potential_grad(self, args, grad):
        potential, theta, x = args[0], args[1], args[2]
        k = 1 if theta.ndim == 1 else theta.shape[0]
        b, h, p = x.shape[0], potential.hidden_dim, potential.input_dim
        # multiply-adds of the two forward and three backward einsums (2 flops
        # each) plus the two elementwise products that form the hidden adjoint
        self.counts["bnn.flops_computed"] += 2 * k * b * h * (2 * p + 2) + 2 * k * b * h

    def _on_write(self, args, result):
        self.counts["cli.bytes_written"] += len(args[1].encode())

    # -- summaries

    def durations(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds, call counts and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            # a span nested in one of the same name is already inside the outer one
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += end - start
            self_by_name[name] += end - start - child[i]
        return inclusive, calls, self_by_name

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
