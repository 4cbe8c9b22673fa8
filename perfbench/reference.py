"""Fixed reference computations that the gated times are divided by.

The benchmark's machine changes speed by up to ~2x between phases of seconds
to tens of minutes, and code of different kinds slows down by different
factors.  Each workload is therefore timed against a reference computation
that resembles its work, written here once and independent of steinmc, so
both commits of a comparison run exactly the same reference:

* ``mixed``: small-array numpy calls and Python arithmetic in a Python loop,
  with einsums at the BNN workload's shapes and pairwise kernels at the
  ensemble workload's shapes mixed in.  Used by ``synthetic``, ``bnn`` and
  ``ensemble``, and for set-up time.
* ``tape``: building a graph of small Python node objects with numpy values
  and closures, then a reverse sweep, like the refined-guide tape that takes
  nearly all of ``funnel``.  Against ``mixed``, funnel round times grew ~1.2x
  faster than the reference from fast to slow phases.

Each takes 70-100 ms on a fast phase of a 2-core Xeon VM.
"""

from __future__ import annotations

import gc
import time

import numpy as np


def _mixed() -> None:
    z = np.linspace(-1.0, 1.0, 40).reshape(20, 2)
    w = np.linspace(-1.0, 1.0, 20 * 50 * 4).reshape(20, 50, 4)
    x = np.linspace(-1.0, 1.0, 100 * 4).reshape(100, 4)
    cloud = np.linspace(-1.0, 1.0, 60 * 50).reshape(60, 50)
    for i in range(900):
        diff = z[:, None, :] - z[None, :, :]
        k = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
        z = 0.99 * z + 0.001 * (k @ z)
        acc = 0.0
        for v in z.ravel().tolist():
            acc += v * v
        if i % 75 == 0:
            hidden = np.maximum(np.einsum("khp,bp->kbh", w, x), 0.0)
            w = w + 1e-6 * np.einsum("kbh,bp->khp", hidden, x)
        if i % 18 == 0:
            pair = cloud[:, None, :] - cloud[None, :, :]
            cloud = cloud + 1e-6 * np.einsum("ijk,ijk->ij", pair, pair) @ cloud


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents
        self.grad = None


def _tape() -> None:
    nodes = [_Node(np.array([0.3, -0.2]))]
    for i in range(7000):
        a, b = nodes[-1], nodes[i // 2]
        t = np.tanh(a.value)
        pulls = ((a, lambda g, t=t: g * 0.5 * (1.0 - t * t)), (b, lambda g: 0.5 * g))
        nodes.append(_Node(0.5 * t + 0.5 * b.value, pulls))
    out = nodes[-1]
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p, _ in node.parents if id(p) not in seen)
    for node in order:
        node.grad = np.zeros(2)
    out.grad = np.ones(2)
    for node in reversed(order):
        for parent, pull in node.parents:
            parent.grad = parent.grad + pull(node.grad)


KINDS = {"mixed": _mixed, "tape": _tape}


def reference_seconds(kind: str) -> float:
    """Wall seconds of one run of the named reference computation.

    A full garbage collection first makes the reference's own collections
    independent of what ran before it.
    """
    fn = KINDS[kind]
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
