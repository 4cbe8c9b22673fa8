"""Minimal reverse-mode differentiation tape over numpy arrays.

Nodes hold a numpy value of any rank and closures that push adjoints to
their parents.  The graph is built eagerly by the arithmetic helpers below;
calling :func:`backward` on a scalar output accumulates gradients into the
``grad`` attribute of every ``requires_grad`` leaf.

A node is *live* when it is a ``requires_grad`` leaf or has a live parent;
the reverse sweep visits live nodes only, so constants, ``requires_grad=False``
leaves and everything built from them alone never receive a ``grad`` (it
stays ``None``) and their pulls are never called.

Elementwise operations broadcast like numpy; the reverse pass sums each
adjoint back to its operand's shape.  With ``reduce_sum`` along an axis,
``matmul`` and ``reshape``, a whole (n, d) particle batch is a single node,
so an unrolled sampler step costs a fixed number of nodes whatever n is.
A plain number or array operand of ``add``, ``mul``, ``div`` or ``matmul``
is read as an array and gets no node; a value made a node with
:func:`constant` stays one, with ``grad`` left ``None``.  Noise drawn inside
a differentiated update is recorded that way, so step-size gradients flow
only through the explicit step-size factors.

Code that must run both taped and untaped (target densities and scores, the
refinement loop) is written against an ``ops`` namespace: this module is the
taped one, and :data:`numpy_ops` binds the same names to plain numpy.  The
arithmetic operators work on both, because ``Node`` overloads them and numpy
arrays defer to those overloads.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class Node:
    """One recorded value in the computation graph."""

    __slots__ = ("value", "parents", "grad", "requires_grad", "live", "_backward_done")
    # an ndarray operand defers to the reflected operators below instead of
    # broadcasting over the node as an object
    __array_ufunc__ = None

    def __init__(self, value, parents=(), requires_grad=False):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents  # tuple of (node, pull) pairs
        self.grad = None
        self.requires_grad = requires_grad
        self.live = requires_grad  # a requires_grad leaf, or a node with a live parent
        for parent, _ in parents:
            if parent.live:
                self.live = True
                break
        self._backward_done = False

    # arithmetic sugar; every route lands on the primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(other) if isinstance(other, Node) else -np.asarray(other))

    def __rsub__(self, other):
        return add(other, neg(self))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __repr__(self):
        return f"Node(value={self.value!r}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad: bool = True) -> Node:
    return Node(value, requires_grad=requires_grad)


def constant(value) -> Node:
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


class NonFiniteError(ValueError):
    """A tape operation produced inf or nan."""


def _reduce_to(adjoint, shape):
    # undo numpy broadcasting during the reverse pass: sum away the leading
    # axes the operand lacked and the axes where it had size 1
    if adjoint.shape == shape:
        return adjoint
    lead = adjoint.ndim - len(shape)
    if lead > 0:
        adjoint = adjoint.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and adjoint.shape[i] != 1)
    if stretched:
        adjoint = adjoint.sum(axis=stretched, keepdims=True)
    return adjoint


def add(a, b) -> Node:
    av = a.value if isinstance(a, Node) else np.asarray(a, dtype=float)
    bv = b.value if isinstance(b, Node) else np.asarray(b, dtype=float)
    parents = ((a, lambda g: _reduce_to(g, av.shape)),) if isinstance(a, Node) else ()
    if isinstance(b, Node):
        parents += ((b, lambda g: _reduce_to(g, bv.shape)),)
    return Node(av + bv, parents)


def mul(a, b) -> Node:
    av = a.value if isinstance(a, Node) else np.asarray(a, dtype=float)
    bv = b.value if isinstance(b, Node) else np.asarray(b, dtype=float)
    parents = ((a, lambda g: _reduce_to(g * bv, av.shape)),) if isinstance(a, Node) else ()
    if isinstance(b, Node):
        parents += ((b, lambda g: _reduce_to(g * av, bv.shape)),)
    return Node(av * bv, parents)


def neg(a) -> Node:
    a = as_node(a)
    return Node(-a.value, parents=((a, lambda g: -g),))


def div(a, b) -> Node:
    av = a.value if isinstance(a, Node) else np.asarray(a, dtype=float)
    bv = b.value if isinstance(b, Node) else np.asarray(b, dtype=float)
    if (bv == 0).any():
        raise ValueError("div: division by zero")
    parents = ((a, lambda g: _reduce_to(g / bv, av.shape)),) if isinstance(a, Node) else ()
    if isinstance(b, Node):
        parents += ((b, lambda g: _reduce_to(-g * av / (bv * bv), bv.shape)),)
    return Node(av / bv, parents)


def exp(a) -> Node:
    a = as_node(a)
    with np.errstate(over="ignore"):  # overflow is reported below
        val = np.exp(a.value)
    if not np.isfinite(val).all():
        raise NonFiniteError("exp: non-finite result")
    return Node(val, parents=((a, lambda g: g * val),))


def log(a) -> Node:
    a = as_node(a)
    if (a.value <= 0).any():
        raise ValueError("log: operand must be positive")
    return Node(np.log(a.value), parents=((a, lambda g: g / a.value),))


def tanh(a) -> Node:
    a = as_node(a)
    val = np.tanh(a.value)
    return Node(val, parents=((a, lambda g: g * (1.0 - val * val)),))


def relu(a) -> Node:
    """max(0, x); the subgradient at 0 is taken as 0."""
    return mul(a, (value(a) > 0).astype(float))


def reduce_sum(a, axis=None) -> Node:
    """Sum over all entries, or along ``axis`` (an int or a tuple of ints)."""
    a = as_node(a)
    shape = a.value.shape

    def pull(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)

    return Node(a.value.sum(axis=axis), parents=((a, pull),))


def matmul(a, b) -> Node:
    """Product of two matrices."""
    av = a.value if isinstance(a, Node) else np.asarray(a, dtype=float)
    bv = b.value if isinstance(b, Node) else np.asarray(b, dtype=float)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects two matrices")
    parents = ((a, lambda g: g @ bv.T),) if isinstance(a, Node) else ()
    if isinstance(b, Node):
        parents += ((b, lambda g: av.T @ g),)
    return Node(av @ bv, parents)


def reshape(a, shape) -> Node:
    a = as_node(a)
    return Node(
        a.value.reshape(shape), parents=((a, lambda g: g.reshape(a.value.shape)),)
    )


def dot(a, b) -> Node:
    if value(a).ndim != 1 or value(a).shape != value(b).shape:
        raise ValueError("dot expects two vectors of equal length")
    return reduce_sum(mul(a, b))


def gaussian_log_pdf(x, mean, std) -> Node:
    """Elementwise log N(x; mean, std^2); callers reduce_sum as needed."""
    if (value(std) <= 0).any():
        raise ValueError("gaussian_log_pdf: std must be positive")
    z = (as_node(x) - mean) / std
    return -0.5 * z * z - log(std) - 0.5 * LOG_2PI


def stop_gradient(a) -> Node:
    """Identity in the forward pass; the reverse pass sees a constant."""
    a = as_node(a)
    return Node(a.value.copy())


def row_max(a) -> Node:
    """Max over the last axis (kept as a size-1 axis), held constant."""
    return Node(as_node(a).value.max(axis=-1, keepdims=True))


def value(a) -> np.ndarray:
    """The numpy value behind a node."""
    return as_node(a).value


def backward(output: Node) -> None:
    """Reverse-mode sweep from a scalar output.

    Gradients accumulate into ``grad`` on the live nodes reachable from
    ``output``: those with a ``requires_grad`` leaf among their ancestors.
    Every other node keeps ``grad = None``; each ``requires_grad`` leaf ends
    with a writable array of its own shape.  A second sweep from the same
    node without rebuilding the graph is rejected.
    """
    if output.value.shape != ():
        raise ValueError("backward expects a scalar output")
    if output._backward_done:
        raise RuntimeError("backward already ran on this tape; rebuild the graph")
    output._backward_done = True

    order = _topological_order(output)
    for node in order:
        node.grad = None
    output.grad = np.ones(())

    # the first contribution is stored as it comes (it may be a read-only
    # view or another node's adjoint); later ones make a new array
    for node in reversed(order):
        g = node.grad
        for parent, pull in node.parents:
            if parent.live:
                c = pull(g)
                parent.grad = c if parent.grad is None else parent.grad + c
    # each leaf gets a writable array of its own shape: zeros plus the sum,
    # which also gives +0.0 for a -0.0 sum
    for node in order:
        if node.requires_grad:
            grad = np.zeros(node.value.shape)
            grad += node.grad
            node.grad = grad


def _topological_order(output: Node) -> list[Node]:
    """Live nodes reachable from ``output`` (and ``output``), DFS post-order."""
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent.live and parent not in seen:
                stack.append((parent, False))
    return order


# The names above that targets and the refinement loop use, bound to numpy
# callables that skip numpy's Python-level dispatch (scores are called once
# per sampler step on small batches).
numpy_ops = SimpleNamespace(
    exp=np.exp,
    log=np.log,
    reduce_sum=partial(np.add.reduce, axis=None),
    matmul=np.matmul,
    reshape=np.ndarray.reshape,
    row_max=partial(np.maximum.reduce, axis=-1, keepdims=True),
    constant=np.asarray,
    stop_gradient=np.asarray,
    value=np.asarray,
)
