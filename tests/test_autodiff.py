import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from steinmc import autodiff as ad
from steinmc import refine, targets


def numeric_grad(f, x, step=1e-6):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


def check_unary(build, x0):
    """Reverse-mode gradient of reduce_sum(op(x)) against central differences."""
    leaf = ad.leaf(np.asarray(x0, dtype=float))
    out = ad.reduce_sum(build(leaf)) if np.ndim(x0) else build(leaf)
    ad.backward(out)

    def scalar(x):
        v = build(ad.constant(x)).value
        return float(np.sum(v))

    np.testing.assert_allclose(leaf.grad, numeric_grad(scalar, x0), rtol=1e-5, atol=1e-8)


class TestPrimitives:
    def test_square_gradient(self):
        x = ad.leaf(3.0)
        ad.backward(ad.mul(x, x))
        assert float(x.grad) == pytest.approx(6.0)

    def test_exp_gradient_at_zero(self):
        x = ad.leaf(0.0)
        ad.backward(ad.exp(x))
        assert float(x.grad) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name,build,x0",
        [
            ("neg", lambda x: ad.neg(x), np.array([0.3, -1.2])),
            ("exp", lambda x: ad.exp(x), np.array([0.1, -0.4, 1.3])),
            ("log", lambda x: ad.log(x), np.array([0.5, 2.0, 4.2])),
            ("tanh", lambda x: ad.tanh(x), np.array([-1.0, 0.2, 2.5])),
            ("relu", lambda x: ad.relu(x), np.array([-1.5, 0.7, 2.1])),
            ("add", lambda x: ad.add(x, ad.mul(2.0, x)), np.array([0.4, -0.2])),
            ("mul", lambda x: ad.mul(x, ad.add(x, 1.0)), np.array([0.9, -0.8])),
            ("div", lambda x: ad.div(1.0, ad.add(ad.mul(x, x), 1.0)), np.array([0.5, -1.1])),
        ],
    )
    def test_primitive_gradcheck(self, name, build, x0):
        check_unary(build, x0)

    def test_dot(self):
        a = ad.leaf(np.array([1.0, 2.0]))
        b = ad.leaf(np.array([-0.5, 3.0]))
        out = ad.dot(a, b)
        ad.backward(out)
        np.testing.assert_allclose(a.grad, b.value)
        np.testing.assert_allclose(b.grad, a.value)
        with pytest.raises(ValueError, match="equal length"):
            ad.dot(np.array([1.0]), np.array([1.0, 2.0, 3.0]))

    def test_reduce_sum_distributes_ones(self):
        x = ad.leaf(np.arange(100.0))
        ad.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones(100))

    def test_gaussian_log_pdf_value_and_grads(self):
        x = ad.leaf(np.array([0.7]))
        mu = ad.leaf(np.array([0.2]))
        sd = ad.leaf(np.array([1.5]))
        out = ad.reduce_sum(ad.gaussian_log_pdf(x, mu, sd))
        expected = -0.5 * ((0.7 - 0.2) / 1.5) ** 2 - np.log(1.5) - 0.5 * np.log(2 * np.pi)
        assert out.value == pytest.approx(expected)
        ad.backward(out)

        def f(args):
            xv, mv, sv = args
            return float(-0.5 * ((xv - mv) / sv) ** 2 - np.log(sv) - 0.5 * np.log(2 * np.pi))

        fd = numeric_grad(f, np.array([0.7, 0.2, 1.5]))
        np.testing.assert_allclose(
            np.concatenate([x.grad, mu.grad, sd.grad]), fd, rtol=1e-6
        )

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            ad.log(ad.constant(-1.0))
        with pytest.raises(ValueError):
            ad.div(ad.constant(1.0), ad.constant(0.0))
        with pytest.raises(ValueError):
            ad.gaussian_log_pdf(ad.constant(0.0), ad.constant(0.0), ad.constant(0.0))
        # one bad entry anywhere in an array operand is enough
        with pytest.raises(ValueError, match="log: operand must be positive"):
            ad.log(ad.constant(0.0))
        for bad in (0, 2, 4):
            entries = np.linspace(0.5, 2.5, 5)
            entries[bad] = 0.0
            with pytest.raises(ValueError, match="div: division by zero"):
                ad.div(ad.constant(np.ones(5)), ad.constant(entries))
            entries[bad] = -1.0
            with pytest.raises(ValueError, match="log: operand must be positive"):
                ad.log(ad.constant(entries.reshape(5, 1)))
            with pytest.raises(ValueError, match="std must be positive"):
                ad.gaussian_log_pdf(ad.constant(0.0), ad.constant(0.0), ad.constant(entries))

    def test_linear_function_constant_gradient(self):
        x = ad.leaf(np.array([1.0, 2.0, 3.0]))
        out = ad.reduce_sum(ad.mul(4.0, x))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, np.full(3, 4.0))


def check_batched(build, shapes, seed=0):
    """Gradcheck of sum(w * build(*leaves)) with a random weight w, per leaf.

    The random weight makes the adjoint reaching ``build`` non-uniform, so a
    transposed or misplaced reverse rule shows up.
    """
    rng = np.random.default_rng(seed)
    values = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]
    weight = rng.normal(size=np.shape(build(*map(ad.constant, values)).value))
    leaves = [ad.leaf(v) for v in values]
    ad.backward(ad.reduce_sum(ad.mul(weight, build(*leaves))))

    for k, (leaf, v) in enumerate(zip(leaves, values)):
        assert leaf.grad.shape == v.shape

        def f(flat, k=k):
            args = [ad.constant(x) for x in values]
            args[k] = ad.constant(flat.reshape(np.shape(values[k])))
            return float(np.sum(weight * build(*args).value))

        fd = numeric_grad(f, np.ravel(v)).reshape(np.shape(v))
        np.testing.assert_allclose(leaf.grad, fd, rtol=1e-6, atol=1e-8)


class TestBatchedPrimitives:
    @pytest.mark.parametrize(
        "build,shapes",
        [
            (lambda a, b: ad.add(a, b), [(4, 3), (3,)]),
            (lambda a, b: a - b, [(4, 3), (1, 3)]),
            (lambda a, b: ad.mul(a, b), [(4, 3), (4, 1)]),
            (lambda a, b: ad.div(a, b), [(4, 3), (4, 1)]),
            (lambda a, b: ad.mul(a, b), [(), (4, 3)]),
            (lambda a, b: ad.mul(a, b), [(4, 1), (1, 3)]),
            (lambda a: ad.reduce_sum(a, axis=0), [(4, 3)]),
            (lambda a: ad.reduce_sum(a, axis=1), [(4, 3)]),
            (lambda a: ad.reduce_sum(a, axis=-1), [(2, 3, 4)]),
            (lambda a: ad.reduce_sum(a, axis=(0, 2)), [(2, 3, 4)]),
            (lambda a: ad.reduce_sum(a), [(4, 3)]),
            (lambda a, b: ad.matmul(a, b), [(4, 3), (3, 2)]),
            (lambda a: ad.matmul(a, a), [(3, 3)]),
            (lambda a: ad.reshape(a, (3, 4)), [(4, 3)]),
            (lambda a: ad.reshape(a, (-1,)), [(4, 3)]),
            (lambda a: ad.reshape(a, (4, 1, 3)) - ad.reshape(a, (1, 4, 3)), [(4, 3)]),
        ],
        ids=[
            "matrix_plus_row",
            "matrix_minus_row",
            "matrix_times_column",
            "matrix_over_column",
            "scalar_times_matrix",
            "column_times_row",
            "reduce_sum_axis0",
            "reduce_sum_axis1",
            "reduce_sum_last_axis",
            "reduce_sum_axis_tuple",
            "reduce_sum_all",
            "matmul",
            "matmul_shared_operand",
            "reshape",
            "reshape_flatten",
            "pairwise_differences",
        ],
    )
    def test_batched_gradcheck(self, build, shapes):
        check_batched(build, shapes)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))

    def test_rbf_kernel_block_gradcheck(self):
        # an RBF kernel block built from tape primitives alone (the refined
        # bound takes its kernel from kernels.rbf, checked in test_kernels)
        def build(z):
            diff = ad.reshape(z, (5, 1, 2)) - ad.reshape(z, (1, 5, 2))
            k = ad.exp(ad.mul(-0.7, ad.reduce_sum(ad.mul(diff, diff), axis=-1)))
            return ad.matmul(k, z)

        check_batched(build, [(5, 2)])

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
    def test_ndarray_on_the_left_gives_a_node(self, op):
        # numpy defers to the node's reflected operator instead of building
        # an object array of nodes
        left = np.linspace(0.5, 2.0, 12).reshape(4, 3)
        apply = getattr(operator, op)
        assert isinstance(apply(left, ad.leaf(np.ones(3))), ad.Node)
        check_batched(lambda a: apply(left, a), [(3,)])
        check_batched(lambda a: apply(a, left), [(3,)])

    def test_numpy_ops_mirror_the_tape(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        for name in vars(ad.numpy_ops):
            assert callable(getattr(ad, name))
        np.testing.assert_array_equal(ad.row_max(x).value, ad.numpy_ops.row_max(x))
        assert ad.row_max(x).value.shape == (3, 1)
        # the row max is held constant: d/dx sum(max_row * x) = max_row
        leaf = ad.leaf(x)
        ad.backward(ad.reduce_sum(ad.row_max(leaf) * leaf))
        np.testing.assert_array_equal(leaf.grad, np.broadcast_to(ad.row_max(x).value, x.shape))


class TestStopGradient:
    def test_forward_identity(self):
        x = ad.leaf(np.array([1.0, -2.0]))
        np.testing.assert_array_equal(ad.stop_gradient(x).value, x.value)

    def test_any_blocked_expression_has_zero_gradient(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
        @settings(max_examples=50, deadline=None)
        def check(v):
            x = ad.leaf(v)
            blocked = ad.stop_gradient(ad.add(ad.mul(x, x), ad.tanh(x)))
            out = ad.add(blocked, ad.mul(0.0, x))
            ad.backward(out)
            assert float(x.grad) == 0.0

        check()

    def test_product_rule_with_blocked_factor(self):
        x = ad.leaf(3.0)
        out = ad.mul(x, ad.stop_gradient(x))
        ad.backward(out)
        assert float(x.grad) == pytest.approx(3.0)  # not 6

    def test_fully_blocked_path_is_zero(self):
        x = ad.leaf(2.0)
        out = ad.stop_gradient(ad.mul(x, x))
        # output has no parents; gradient of x never touched
        y = ad.add(out, ad.mul(0.0, x))  # keep x in the graph
        ad.backward(y)
        assert float(x.grad) == 0.0


class TestBackward:
    def test_non_scalar_output_rejected(self):
        x = ad.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))

    def test_tape_reuse_rejected(self):
        x = ad.leaf(1.0)
        out = ad.mul(x, x)
        ad.backward(out)
        with pytest.raises(RuntimeError):
            ad.backward(out)

    def test_shared_subexpression_accumulates(self):
        x = ad.leaf(2.0)
        y = ad.mul(x, x)  # x^2
        out = ad.add(y, y)  # 2 x^2
        ad.backward(out)
        assert float(x.grad) == pytest.approx(8.0)

    def test_unrolled_refinement_step_size_gradient(self):
        # T = 3 ascent steps on log p(z) = -z^2/2, differentiated wrt the
        # step size; finite-difference oracle
        def build(eta_value):
            eta = ad.leaf(eta_value)
            z = ad.constant(1.7)
            for _ in range(3):
                z = ad.add(z, ad.mul(eta, ad.neg(z)))
            return ad.mul(-0.5, ad.mul(z, z)), eta

        out, eta = build(0.1)
        ad.backward(out)

        def f(e):
            return float(build(float(e[0]))[0].value)

        fd = numeric_grad(f, np.array([0.1]))
        np.testing.assert_allclose(float(eta.grad), fd[0], rtol=1e-5)

    def test_random_composite_gradcheck(self):
        # randomized 50-node expression over bounded compositions of the
        # primitive set; unused leaves must report zero gradient
        ops = [
            lambda a, b: ad.add(a, b),
            lambda a, b: ad.mul(a, ad.tanh(b)),
            lambda a, b: ad.tanh(ad.add(a, ad.mul(0.5, b))),
            lambda a, b: ad.div(a, ad.add(ad.exp(ad.tanh(b)), 1.0)),
            lambda a, b: ad.mul(0.3, ad.add(ad.exp(ad.tanh(a)), b)),
        ]

        def build(values):
            rng = np.random.default_rng(11)
            leaves = [ad.leaf(float(v)) for v in values]
            pool = list(leaves)
            idx = rng.integers(0, len(ops), size=50)
            picks = rng.integers(0, 10_000, size=(50, 2))
            for k in range(50):
                a = pool[picks[k, 0] % len(pool)]
                b = pool[picks[k, 1] % len(pool)]
                pool.append(ops[idx[k]](a, b))
            return pool[-1], leaves

        base = np.array([0.5, -0.3, 0.8, 1.1, -0.9])
        out, leaves = build(base)
        ad.backward(out)
        grads = np.array(
            [0.0 if l.grad is None else float(l.grad) for l in leaves]
        )

        def f(vals):
            return float(build(vals)[0].value)

        fd = numeric_grad(f, base)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(grads - fd) / scale) < 1e-5

    def test_deterministic_values(self):
        x = ad.leaf(np.array([0.2, 0.4]))
        out1 = ad.reduce_sum(ad.exp(ad.mul(x, x)))
        out2 = ad.reduce_sum(ad.exp(ad.mul(x, x)))
        assert float(out1.value) == float(out2.value)


def full_sweep(output):
    """The reverse sweep without activity analysis: a zeros gradient for
    every node reachable from ``output`` and a pull into every parent."""
    order, seen, stack = [], set(), [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        node.grad = np.zeros(node.value.shape)
    output.grad = np.ones(())
    for node in reversed(order):
        for parent, pull in node.parents:
            parent.grad = parent.grad + pull(node.grad)


def assert_bitwise_equal(reference, pruned):
    assert (reference is None) == (pruned is None)
    if reference is not None:
        reference = np.asarray(reference)
        assert reference.shape == pruned.shape
        assert reference.tobytes() == pruned.tobytes()


# every shape broadcasts with every other; reduce_sum along axis 0 keeps that
SHAPES = [(), (2,), (1, 2), (3, 1), (3, 2)]
INPUT_KINDS = ("leaf", "frozen", "constant", "array")
OPS = {
    "add": lambda a, b: ad.add(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "sub": lambda a, b: ad.as_node(a) - b,
    "neg": lambda a, b: ad.neg(a),
    "tanh": lambda a, b: ad.tanh(a),
    "exp_tanh": lambda a, b: ad.exp(ad.tanh(a)),
    "stop_gradient": lambda a, b: ad.stop_gradient(a),
    "reduce_sum": lambda a, b: ad.reduce_sum(a),
    "reduce_sum_axis0": lambda a, b: ad.reduce_sum(a, axis=0 if np.ndim(ad.value(a)) else None),
}


@st.composite
def graphs(draw):
    """A recipe for a random graph: inputs of every kind, then 1-12 ops."""
    inputs = []
    for kind in draw(st.lists(st.sampled_from(INPUT_KINDS), min_size=1, max_size=5)):
        shape = draw(st.sampled_from(SHAPES))
        # signed zeros often: a -0.0 adjoint must still read +0.0 at a leaf
        elements = st.floats(-2, 2) | st.sampled_from([0.0, -0.0])
        values = draw(hnp.arrays(float, shape, elements=elements))
        inputs.append((kind, values))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 99), st.integers(0, 99)),
            min_size=1,
            max_size=12,
        )
    )
    return inputs, steps


def build(recipe):
    """The graph of a recipe, built afresh: (scalar output, input nodes)."""
    inputs, steps = recipe
    make = {
        "leaf": ad.leaf,
        "frozen": lambda v: ad.leaf(v, requires_grad=False),
        "constant": ad.constant,
        "array": lambda v: v.copy(),
    }
    pool = [make[kind](values) for kind, values in inputs]
    for name, i, j in steps:
        pool.append(OPS[name](pool[i % len(pool)], pool[j % len(pool)]))
    out = ad.reduce_sum(pool[-1])
    for extra in pool[-3:-1]:
        out = out + ad.reduce_sum(extra)
    return out, pool[: len(inputs)]


class TestPrunedSweep:
    """``backward`` visits only nodes that lead to a requires_grad leaf and
    gives every such leaf bitwise the gradient of the full sweep."""

    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_leaf_gradients_equal_the_full_sweep(self, recipe):
        ref_out, ref_inputs = build(recipe)
        full_sweep(ref_out)
        out, inputs = build(recipe)
        ad.backward(out)
        for (kind, _), ref_node, node in zip(recipe[0], ref_inputs, inputs):
            if kind == "leaf":
                assert_bitwise_equal(ref_node.grad, node.grad)
            elif kind in ("frozen", "constant"):
                assert node.grad is None

    def test_negative_zero_adjoint_reads_as_in_the_full_sweep(self):
        def graph():
            x = ad.leaf(np.array([1.0, 2.0]))
            return ad.reduce_sum(ad.neg(ad.mul(x, 0.0))), x

        (ref_out, ref_x), (out, x) = graph(), graph()
        full_sweep(ref_out)
        ad.backward(out)
        assert not np.signbit(x.grad).any()
        assert_bitwise_equal(ref_x.grad, x.grad)

    @pytest.mark.parametrize("ad_mode", refine.AD_MODES)
    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("sampler", ["sgld", "svgd", "flow"])
    @pytest.mark.parametrize("name", ["funnel", "mog"])
    def test_elbo_gradients_equal_the_full_sweep(self, name, sampler, steps, ad_mode):
        target = targets.make_target(name)
        rg = refine.RefinedGuide(
            guide=refine.DiagonalGaussianGuide(np.array([0.3, -0.2]), np.log([0.8, 1.2])),
            inner_sampler=sampler,
            log_eta=np.log(0.05),
            steps_refine=steps,
            ad_mode=ad_mode,
        )
        reference = refine.elbo(rg, target, 16, np.random.default_rng(5))
        full_sweep(reference.objective)
        tape = refine.elbo(rg, target, 16, np.random.default_rng(5))
        ad.backward(tape.objective)
        for leaf in ("mean", "log_scale", "log_eta"):
            ref_leaf, leaf_node = getattr(reference, leaf), getattr(tape, leaf)
            if leaf_node.requires_grad:
                assert_bitwise_equal(ref_leaf.grad, leaf_node.grad)
            else:
                assert leaf_node.grad is None
        assert reference.value == tape.value


def raising_pull(g):
    raise AssertionError("pull into a constant parent")


class TestGradientContract:
    def test_constant_parent_pull_is_never_called(self):
        x = ad.leaf(np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, -1.0]))
        via_c = ad.Node(c.value * 2.0, parents=((c, raising_pull),))
        ad.backward(ad.reduce_sum(ad.mul(x, via_c)))
        np.testing.assert_array_equal(x.grad, [6.0, -2.0])
        assert via_c.grad is None and c.grad is None

    def test_frozen_leaf_and_constants_keep_no_grad(self):
        x = ad.leaf(np.array([0.5, -1.5]))
        frozen = ad.leaf(np.array([2.0, 3.0]), requires_grad=False)
        c = ad.constant(4.0)
        blocked = ad.stop_gradient(ad.mul(x, x))
        derived = ad.exp(ad.mul(frozen, c))
        out = ad.reduce_sum(ad.mul(x, derived) + blocked + ad.mul(c, frozen))
        ad.backward(out)
        for node in (frozen, c, blocked, derived):
            assert node.grad is None
        np.testing.assert_array_equal(x.grad, np.exp(4.0 * frozen.value))

    @pytest.mark.parametrize(
        "build_out",
        [
            # reduce_sum's pull is a read-only broadcast view
            lambda x, y: ad.reduce_sum(x) + ad.reduce_sum(ad.mul(2.0, y)),
            # add passes the adjoint through unchanged, so both operands would share it
            lambda x, y: ad.reduce_sum(ad.add(x, y)),
            lambda x, y: ad.reduce_sum(ad.add(ad.add(x, y), ad.neg(x))),
            lambda x, y: ad.reduce_sum(ad.reshape(ad.add(x, y), (6,))),
        ],
        ids=["reduce_sum_view", "add_alias", "add_chain", "reshape_view"],
    )
    def test_leaf_grads_are_own_writable_arrays(self, build_out):
        x = ad.leaf(np.arange(6.0).reshape(3, 2))
        y = ad.leaf(np.ones((3, 2)))
        scalar = ad.leaf(1.5)
        out = build_out(x, y) + ad.mul(scalar, scalar)
        ad.backward(out)
        leaves = (x, y, scalar)
        for leaf in leaves:
            assert isinstance(leaf.grad, np.ndarray)
            assert leaf.grad.shape == leaf.value.shape
            assert leaf.grad.flags.writeable
        grads = [leaf.grad for leaf in leaves] + [out.grad]
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_second_backward_from_another_output_resets_grads(self):
        x = ad.leaf(np.array([1.0, -2.0]))
        y = ad.leaf(np.array([0.5, 0.25]))
        shared = ad.mul(x, y)
        ad.backward(ad.reduce_sum(ad.mul(3.0, shared)))
        np.testing.assert_array_equal(x.grad, 3.0 * y.value)
        ad.backward(ad.reduce_sum(ad.add(shared, x)))
        np.testing.assert_array_equal(x.grad, y.value + 1.0)
        np.testing.assert_array_equal(y.grad, x.value)

    def test_nodes_leading_to_no_leaf_are_not_visited(self):
        x = ad.leaf(np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, 4.0]))
        derived = ad.exp(ad.tanh(c))
        product = ad.mul(x, derived)
        out = ad.reduce_sum(product)
        assert x.live and not c.live and not derived.live and out.live
        assert ad._topological_order(out) == [x, product, out]


# a plain operand (Python float, 0-d array, broadcast array) of each binary
# op, on either side of a (3, 2) node; matmul takes a matrix or a nested list
ELEMENTWISE_PLAIN = [1.5, np.array(-0.75), np.array([[0.5, -2.0]])]
PLAIN_CASES = [
    *[(op, plain, side) for op in ("add", "mul", "div") for plain in ELEMENTWISE_PLAIN
      for side in ("left", "right")],
    ("matmul", np.array([[0.5], [-2.0]]), "left"),  # (3, 2) @ (2, 1)
    ("matmul", [[0.25, -1.0, 3.0]], "right"),  # (1, 3) @ (3, 2)
]


@pytest.mark.parametrize(
    "op, plain, node_side",
    PLAIN_CASES,
    ids=[f"{op}-{type(plain).__name__}{np.shape(plain)}-node_{side}"
         for op, plain, side in PLAIN_CASES],
)
class TestPlainOperands:
    """A plain operand is read as an array and gets no node of its own."""

    @staticmethod
    def apply(op, node, operand, node_side):
        fn = getattr(ad, op)
        return fn(node, operand) if node_side == "left" else fn(operand, node)

    def test_only_the_node_operand_is_a_parent(self, op, plain, node_side):
        x = ad.leaf(np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]]))
        out = self.apply(op, x, plain, node_side)
        assert [parent for parent, _ in out.parents] == [x]

    def test_value_and_gradient_equal_the_wrapped_constant(self, op, plain, node_side):
        values = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
        results = []
        for operand in (plain, ad.constant(plain)):
            x = ad.leaf(values)
            out = self.apply(op, x, operand, node_side)
            ad.backward(ad.reduce_sum(ad.mul(out, out)))
            results.append((out.value, x.grad))
        (plain_value, plain_grad), (wrapped_value, wrapped_grad) = results
        assert_bitwise_equal(wrapped_value, plain_value)
        assert_bitwise_equal(wrapped_grad, plain_grad)
