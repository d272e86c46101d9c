import numpy as np
import pytest

from dkm import autodiff as ad
from dkm.errors import NumericError, ParameterError, ShapeError

from helpers import central_diff, pairwise_sq_dists, rel_err


def test_matmul_identity():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
    np.testing.assert_array_equal(out.value, x)


def test_matmul_hand_arithmetic():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.uniform(-2, 2, (3, 4))
    b0 = rng.uniform(-2, 2, (4, 2))

    a, b = ad.leaf(a0), ad.leaf(b0)
    loss = ad.sum_all(ad.square(ad.matmul(a, b)))
    ad.backward(loss)

    def f_a(x):
        return float(np.sum((x @ b0) ** 2))

    def f_b(x):
        return float(np.sum((a0 @ x) ** 2))

    assert rel_err(a.grad, central_diff(f_a, a0)) <= 1e-7
    assert rel_err(b.grad, central_diff(f_b, b0)) <= 1e-7


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_row_softmax_symmetry():
    out = ad.row_softmax(ad.constant([[0.0, 0.0]]), 1.0)
    np.testing.assert_allclose(out.value, [[0.5, 0.5]], atol=1e-15)


def test_row_softmax_hard_limit():
    out = ad.row_softmax(ad.constant([[-1.0, -4.0]]), 1e-3)
    assert out.value[0, 0] >= 1.0 - 1e-6
    assert np.argmax(out.value[0]) == 0


def test_row_softmax_gradient_matches_finite_differences():
    x0 = np.array([[-1.0, -2.0]])
    x = ad.leaf(x0)
    t = np.array([[0.3, 0.7]])
    loss = ad.sum_all(ad.square(ad.sub(ad.row_softmax(x, 1.0), ad.constant(t))))
    ad.backward(loss)

    def f(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        return float(np.sum((y - t) ** 2))

    assert rel_err(x.grad, central_diff(f, x0)) <= 1e-7


def test_row_softmax_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        ad.row_softmax(ad.constant([[1.0, 2.0]]), 0.0)
    with pytest.raises(ParameterError):
        ad.row_softmax(ad.constant([[1.0, 2.0]]), -1.0)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_row_softmax_rows_sum_to_one(dtype, tol):
    rng = np.random.default_rng(3)
    x = ad.constant(rng.uniform(-50, 50, (17, 9)).astype(dtype))
    y = ad.row_softmax(x, 0.37).value
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=tol)
    assert y.dtype == dtype


def test_row_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, (6, 8))
    shifted = x + rng.uniform(-100, 100, (6, 1))
    y1 = ad.row_softmax(ad.constant(x), 0.8).value
    y2 = ad.row_softmax(ad.constant(shifted), 0.8).value
    np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_square_values():
    out = ad.square(ad.constant([[2.0, -3.0]]))
    np.testing.assert_array_equal(out.value, [[4.0, 9.0]])


def test_sum_rows_of_ones():
    out = ad.sum_rows(ad.constant(np.ones((2, 3))))
    np.testing.assert_array_equal(out.value, [[3.0], [3.0]])


def test_sum_cols_of_ones():
    out = ad.sum_cols(ad.constant(np.ones((2, 3))))
    np.testing.assert_array_equal(out.value, [[2.0, 2.0, 2.0]])


def test_elementwise_shape_mismatch():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 2)))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with pytest.raises(ShapeError):
            op(a, b)


def test_composed_chain_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-2, 2, (4, 3))
    w0 = rng.uniform(-2, 2, (3, 3))

    def build(xv, wv):
        x, w = ad.leaf(xv), ad.leaf(wv)
        h = ad.relu(ad.matmul(x, w))
        r = ad.broadcast_col(ad.sum_rows(ad.square(h)), 3)
        z = ad.div(ad.add(h, ad.constant(np.ones((4, 3)))), ad.add(r, ad.constant(np.full((4, 3), 2.0))))
        return x, w, ad.sum_all(ad.mul(z, z))

    x, w, loss = build(x0, w0)
    ad.backward(loss)

    def f_x(v):
        _, _, l = build(v, w0)
        return float(l.value[0, 0])

    def f_w(v):
        _, _, l = build(x0, v)
        return float(l.value[0, 0])

    assert rel_err(x.grad, central_diff(f_x, x0)) <= 1e-6
    assert rel_err(w.grad, central_diff(f_w, w0)) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_primitive_gradient_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(-2, 2, (3, 4))
    b0 = rng.uniform(0.5, 2, (3, 4))  # positive: safe for div

    cases = {
        "add": (lambda a, b: ad.add(a, b), lambda a, b: a + b),
        "sub": (lambda a, b: ad.sub(a, b), lambda a, b: a - b),
        "mul": (lambda a, b: ad.mul(a, b), lambda a, b: a * b),
        "div": (lambda a, b: ad.div(a, b), lambda a, b: a / b),
        "square": (lambda a, b: ad.square(a), lambda a, b: a * a),
        "relu": (lambda a, b: ad.relu(a), lambda a, b: np.maximum(a, 0)),
        "scalar_mul": (lambda a, b: ad.scalar_mul(a, -1.7), lambda a, b: -1.7 * a),
        "transpose": (lambda a, b: ad.transpose(a), lambda a, b: a.T),
        "sum_rows": (lambda a, b: ad.sum_rows(a), lambda a, b: a.sum(axis=1, keepdims=True)),
        "sum_cols": (lambda a, b: ad.sum_cols(a), lambda a, b: a.sum(axis=0, keepdims=True)),
        "regroup_same": (lambda a, b: ad.regroup(a, 6, 2), lambda a, b: a.reshape(6, 2)),
        "regroup_pad": (lambda a, b: ad.regroup(a, 7, 2), lambda a, b: np.append(a, [0.0, 0.0]).reshape(7, 2)),
        "regroup_crop": (lambda a, b: ad.regroup(a, 5, 2), lambda a, b: a.reshape(-1)[:10].reshape(5, 2)),
    }
    for name, (op, ref) in cases.items():
        an, bn = ad.leaf(a0), ad.leaf(b0)
        loss = ad.sum_all(ad.square(op(an, bn)))
        ad.backward(loss)

        def f(v, wrt_a, ref=ref):
            out = ref(v, b0) if wrt_a else ref(a0, v)
            return float(np.sum(out * out))

        if an.grad is not None:
            fd = central_diff(lambda v: f(v, True), a0)
            assert rel_err(an.grad, fd) <= 1e-6, name
        if bn.grad is not None:
            fd = central_diff(lambda v: f(v, False), b0)
            assert rel_err(bn.grad, fd) <= 1e-6, name


def numpy_cross_entropy(x, y):
    """Mean -log softmax(x)[r, y_r] and its gradient (softmax - one-hot) / b, written out."""
    p = np.exp(x - x.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return -np.log(p[np.arange(len(y)), y]).mean(), (p - np.eye(x.shape[1])[y]) / len(y)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_cross_entropy_matches_closed_form_and_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 3.0, (6, 4))
    y = rng.integers(0, 4, 6)
    x = ad.leaf(x0)
    loss = ad.softmax_cross_entropy(x, y)
    ad.backward(loss)
    ref_loss, ref_grad = numpy_cross_entropy(x0, y)
    assert loss.shape == (1, 1)
    assert loss.value[0, 0] == pytest.approx(ref_loss, rel=1e-12)
    assert rel_err(x.grad, ref_grad) <= 1e-12
    fd = central_diff(lambda v: float(ad.softmax_cross_entropy(ad.constant(v), y).value[0, 0]), x0)
    assert rel_err(x.grad, fd) <= 1e-6


def test_softmax_cross_entropy_stays_finite_for_wide_logits():
    # row 0 picks a logit 2000 below its row max, row 1 picks its max
    x = ad.leaf([[1000.0, 0.0, -1000.0], [-500.0, 500.0, 0.0]])
    loss = ad.softmax_cross_entropy(x, np.array([2, 1]))
    ad.backward(loss)
    assert loss.value[0, 0] == pytest.approx(1000.0, rel=1e-15)
    np.testing.assert_allclose(x.grad, [[0.5, 0.0, -0.5], [0.0, 0.0, 0.0]], rtol=0, atol=1e-15)


def test_softmax_cross_entropy_keeps_float32():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(5, 3)).astype(np.float32)
    y = rng.integers(0, 3, 5)
    x = ad.leaf(x0)
    loss = ad.softmax_cross_entropy(x, y)
    ad.backward(loss)
    assert loss.value.dtype == x.grad.dtype == np.float32
    ref_loss, ref_grad = numpy_cross_entropy(x0.astype(np.float64), y)
    assert loss.value[0, 0] == pytest.approx(ref_loss, rel=1e-6)
    assert rel_err(x.grad, ref_grad) <= 1e-6


def test_softmax_cross_entropy_rejects_bad_labels():
    x = ad.leaf(np.zeros((3, 4)))
    for labels in ([0, 1], [0, 1, 4], [0, -1, 2]):
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(x, np.array(labels))


def test_broadcast_gradients():
    rng = np.random.default_rng(5)
    r0 = rng.uniform(-2, 2, (1, 4))
    c0 = rng.uniform(-2, 2, (3, 1))

    r = ad.leaf(r0)
    loss = ad.sum_all(ad.square(ad.broadcast_row(r, 3)))
    ad.backward(loss)
    assert rel_err(r.grad, central_diff(lambda v: float(np.sum(np.broadcast_to(v, (3, 4)) ** 2)), r0)) <= 1e-7

    c = ad.leaf(c0)
    loss = ad.sum_all(ad.square(ad.broadcast_col(c, 4)))
    ad.backward(loss)
    assert rel_err(c.grad, central_diff(lambda v: float(np.sum(np.broadcast_to(v, (3, 4)) ** 2)), c0)) <= 1e-7


def test_backward_sum_gives_ones():
    x = ad.leaf(np.arange(12, dtype=np.float64).reshape(3, 4))
    grads = ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(grads[x], np.ones((3, 4)))


def test_backward_sum_of_squares():
    x = ad.leaf([[1.0, 2.0]])
    ad.backward(ad.sum_all(ad.square(x)))
    np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-15)


def test_backward_mlp_matches_finite_differences():
    rng = np.random.default_rng(13)
    x0 = rng.uniform(-1, 1, (4, 3))
    params = {
        "w1": rng.uniform(-1, 1, (3, 5)),
        "b1": rng.uniform(-1, 1, (1, 5)),
        "w2": rng.uniform(-1, 1, (5, 2)),
        "b2": rng.uniform(-1, 1, (1, 2)),
    }
    target = rng.uniform(-1, 1, (4, 2))

    def forward(p):
        x = ad.constant(x0)
        nodes = {k: ad.leaf(v) for k, v in p.items()}
        h = ad.relu(ad.add(ad.matmul(x, nodes["w1"]), ad.broadcast_row(nodes["b1"], 4)))
        out = ad.add(ad.matmul(h, nodes["w2"]), ad.broadcast_row(nodes["b2"], 4))
        loss = ad.sum_all(ad.square(ad.sub(out, ad.constant(target))))
        return nodes, loss

    nodes, loss = forward(params)
    ad.backward(loss)

    for key in params:
        def f(v, key=key):
            trial = dict(params)
            trial[key] = v
            _, l = forward(trial)
            return float(l.value[0, 0])

        assert rel_err(nodes[key].grad, central_diff(f, params[key])) <= 1e-5, key


def test_backward_accumulates_through_shared_node():
    x = ad.leaf([[1.0, -2.0]])
    # x consumed by two branches: d/dx (sum(x^2) + sum(3x)) = 2x + 3
    loss = ad.sum_all(ad.add(ad.square(x), ad.scalar_mul(x, 3.0)))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [[5.0, -1.0]], atol=1e-15)


def test_backward_same_node_both_operands():
    x = ad.leaf([[3.0]])
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [[6.0]], atol=1e-15)


def test_backward_requires_scalar_loss():
    x = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.backward(ad.square(x))


def test_backward_twice_is_an_error():
    x = ad.leaf([[1.0]])
    loss = ad.sum_all(ad.square(x))
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_constant_gets_no_gradient():
    x = ad.leaf([[1.0, 2.0]])
    c = ad.constant([[3.0, 4.0]])
    grads = ad.backward(ad.sum_all(ad.mul(x, c)))
    assert c not in grads
    np.testing.assert_array_equal(grads[x], [[3.0, 4.0]])


def test_checked_construction_rejects_nonfinite():
    with pytest.raises(NumericError):
        ad.leaf([[1.0, np.nan]])
    with pytest.raises(NumericError):
        ad.constant([[np.inf]])


def test_as_matrix_rejects_higher_rank():
    with pytest.raises(ShapeError):
        ad.as_matrix(np.ones((2, 2, 2)))


def test_float32_pipeline_keeps_dtype():
    x = ad.leaf(np.ones((2, 2), dtype=np.float32))
    y = ad.row_softmax(ad.square(x), 0.5)
    assert y.value.dtype == np.float32
    ad.backward(ad.sum_all(y))
    assert x.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# fused distance node and the lean tape
# ---------------------------------------------------------------------------


def _grid(rng, shape):
    # multiples of 1/4: every product and sum in the distance expansion is
    # exact, so a row equal to a centroid gets a distance of exactly zero
    return rng.integers(-8, 9, shape) / 4.0


@pytest.mark.parametrize("euclidean", [False, True])
def test_neg_sq_distance_gradients_match_finite_differences(euclidean):
    rng = np.random.default_rng(91)
    c0 = _grid(rng, (4, 2))
    w0 = _grid(rng, (7, 2))
    w0[2], w0[5] = c0[1], c0[3]  # coincident rows
    weights = rng.uniform(-1, 1, (7, 4))

    def f(w, c):
        d = pairwise_sq_dists(w, c)
        return float(np.sum(weights * -(np.sqrt(d) if euclidean else d)))

    w, c = ad.leaf(w0), ad.leaf(c0)
    out = ad.neg_sq_distance(w, c, euclidean=euclidean)
    assert out.value[2, 1] == 0.0 and out.value[5, 3] == 0.0
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(weights))))
    assert np.all(np.isfinite(w.grad)) and np.all(np.isfinite(c.grad))
    assert rel_err(w.grad, central_diff(lambda v: f(v, c0), w0, h=1e-4)) <= 1e-6
    assert rel_err(c.grad, central_diff(lambda v: f(w0, v), c0, h=1e-4)) <= 1e-6


@pytest.mark.parametrize("euclidean", [False, True])
def test_neg_sq_distance_gradient_is_exactly_zero_at_coincidence(euclidean):
    c0 = np.array([[0.5, -1.25], [2.0, 0.75]])
    w0 = np.array([[0.5, -1.25]])
    w, c = ad.leaf(w0), ad.leaf(c0)
    out = ad.neg_sq_distance(w, c, euclidean=euclidean)
    picked = ad.mul(out, ad.constant([[1.0, 0.0]]))  # only the coincident pair
    ad.backward(ad.sum_all(picked))
    np.testing.assert_array_equal(w.grad, np.zeros_like(w0))
    np.testing.assert_array_equal(c.grad, np.zeros_like(c0))


def test_neg_sq_distance_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.neg_sq_distance(ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 3))))


def test_transpose_and_broadcasts_are_read_only_views():
    a = ad.leaf(np.arange(6.0).reshape(2, 3))
    row = ad.leaf(np.arange(3.0).reshape(1, 3))
    col = ad.leaf(np.arange(2.0).reshape(2, 1))
    for node, base in [
        (ad.transpose(a), a),
        (ad.broadcast_row(row, 4), row),
        (ad.broadcast_col(col, 5), col),
    ]:
        assert np.shares_memory(node.value, base.value)
        assert not node.value.flags.writeable
    assert a.value.flags.writeable


def test_constant_graph_keeps_no_tape():
    rng = np.random.default_rng(92)
    w, c = ad.constant(rng.normal(size=(5, 2))), ad.constant(rng.normal(size=(3, 2)))
    y = ad.row_softmax(ad.neg_sq_distance(w, c), 0.5)
    out = ad.matmul(ad.transpose(y), w)
    for node in (y, out):
        assert not node.requires_grad
        assert node.parents == () and node._backward is None

    mixed = ad.matmul(ad.transpose(y), ad.leaf(w.value))
    assert mixed.requires_grad and len(mixed.parents) == 2


def test_backward_releases_the_tape_and_keeps_leaf_grads_only():
    x = ad.leaf([[1.0, -2.0]])
    h = ad.square(x)
    grads = ad.backward(ad.sum_all(h))
    assert list(grads) == [x]
    assert h.grad is None and h.parents == ()
    # a second pass through the consumed node must fail, not return zeros
    with pytest.raises(RuntimeError):
        ad.backward(ad.sum_all(ad.scalar_mul(h, 2.0)))
