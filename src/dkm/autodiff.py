"""Minimal reverse-mode autodiff over dense 2-D float matrices.

Just enough machinery to differentiate an unrolled soft-clustering loop and
a small MLP: every value is a 2-D numpy array (float32 or float64), every
operation on a differentiable input records a backward closure, and
``backward`` runs one reverse topological sweep from a scalar loss.

The tape holds only what backward reads:

- a node computed from constants alone keeps no parents and no closure, so
  a forward pass on constants builds no tape at all;
- ``transpose``, ``broadcast_row`` and ``broadcast_col`` return read-only
  views of their input, not copies;
- ``neg_sq_distance`` is one fused node whose value is a read-only view
  of the cluster-major (k, m) distance kernel, and it and ``row_softmax``
  save only their outputs;
- ``dkm.core.dkm_forward`` adds one node for its whole clustering loop,
  which saves the input, each iteration's (k, dim) codebook and (k,)
  column sums, and recomputes its (m, k) arrays tile by tile in backward;
- ``backward`` releases each node's parents and closure once it has run, so
  the tape shrinks as gradients flow, and only leaves keep a gradient.

Because values are shared by reference, no primitive may write into an
input's value, and callers must not write into a node's value while its
graph is alive.

Graphs are per-forward-pass and thread-confined. Distinct graphs may be
built concurrently; there is no shared mutable state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

F64 = np.float64

_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_matrix(data, dtype=F64, checked: bool = True) -> np.ndarray:
    """Coerce ``data`` to a 2-D float array, validating in checked mode.

    Scalars become 1x1, flat sequences become a single row. Checked mode
    rejects NaN/Inf entries; unchecked trusts the caller (hot paths).
    """
    a = np.asarray(data, dtype=dtype)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got {a.ndim}")
    if checked and not np.all(np.isfinite(a)):
        raise NumericError("matrix contains NaN or Inf")
    return a


class Node:
    """One tape entry: a value plus the rule to push gradients to parents.

    ``_backward(g)`` returns one gradient array (or None) per parent.
    Gradients accumulate across consumers, so a node used twice receives
    the sum of both contributions. When no parent requires grad the node
    keeps neither its parents nor the rule, so constants build no tape.
    """

    __slots__ = ("value", "parents", "_backward", "grad", "requires_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple["Node", ...] = (),
        backward: Callable | None = None,
        requires_grad: bool = False,
    ):
        self.value = value
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        if self.requires_grad:
            self.parents, self._backward = parents, backward
        else:
            self.parents, self._backward = (), None
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, dtype={self.value.dtype}, requires_grad={self.requires_grad})"


def _coerce(data, dtype, checked: bool) -> np.ndarray:
    if dtype is None:
        dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in _DTYPES else F64
    return as_matrix(data, dtype=dtype, checked=checked)


def leaf(data, dtype=None, checked: bool = True) -> Node:
    """Differentiable input node (gradients will be accumulated here)."""
    return Node(_coerce(data, dtype, checked), requires_grad=True)


def constant(data, dtype=None, checked: bool = True) -> Node:
    """Non-differentiable node; backward never descends into it."""
    return Node(_coerce(data, dtype, checked), requires_grad=False)


def _check_same_shape(a: Node, b: Node, op: str):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "add")
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "sub")
    return Node(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "mul")
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def div(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "div")
    out = a.value / b.value
    return Node(out, (a, b), lambda g: (g / b.value, -g * out / b.value))


def square(a: Node) -> Node:
    return Node(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,))


def sqrt(a: Node) -> Node:
    out = np.sqrt(a.value)
    # Floor the saved output so the rule stays finite at exact zeros, where
    # the true derivative of the composed squared distance is zero anyway.
    safe = np.maximum(out, np.finfo(out.dtype).tiny ** 0.5)
    return Node(out, (a,), lambda g: (0.5 * g / safe,))


def exp(a: Node) -> Node:
    out = np.exp(a.value)
    return Node(out, (a,), lambda g: (g * out,))


def log(a: Node) -> Node:
    return Node(np.log(a.value), (a,), lambda g: (g / a.value,))


def relu(a: Node) -> Node:
    # np.maximum (not where) so NaN propagates instead of masking to zero
    mask = a.value > 0
    return Node(np.maximum(a.value, 0.0), (a,), lambda g: (g * mask,))


def scalar_mul(a: Node, s: float) -> Node:
    s = a.value.dtype.type(s)
    return Node(a.value * s, (a,), lambda g: (g * s,))


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ {a.value.shape} vs {b.value.shape}")
    return Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def transpose(a: Node) -> Node:
    """Read-only transposed view of ``a``."""
    view = a.value.T
    view.flags.writeable = False
    return Node(view, (a,), lambda g: (g.T,))


def sum_rows(a: Node) -> Node:
    """Per-row sum: (m, n) -> (m, 1)."""
    return Node(a.value.sum(axis=1, keepdims=True), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def sum_cols(a: Node) -> Node:
    """Per-column sum: (m, n) -> (1, n)."""
    return Node(a.value.sum(axis=0, keepdims=True), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def broadcast_row(a: Node, m: int) -> Node:
    """Tile a (1, n) row down to (m, n) as a read-only view."""
    if a.value.shape[0] != 1:
        raise ShapeError(f"broadcast_row: expected a single row, got {a.value.shape}")
    return Node(np.broadcast_to(a.value, (m, a.value.shape[1])), (a,), lambda g: (g.sum(axis=0, keepdims=True),))


def broadcast_col(a: Node, n: int) -> Node:
    """Tile an (m, 1) column out to (m, n) as a read-only view."""
    if a.value.shape[1] != 1:
        raise ShapeError(f"broadcast_col: expected a single column, got {a.value.shape}")
    return Node(np.broadcast_to(a.value, (a.value.shape[0], n)), (a,), lambda g: (g.sum(axis=1, keepdims=True),))


def reshape(a: Node, rows: int, cols: int) -> Node:
    if rows * cols != a.value.size:
        raise ShapeError(f"reshape: cannot view {a.value.shape} as ({rows}, {cols})")
    shape = a.value.shape
    return Node(a.value.reshape(rows, cols).copy(), (a,), lambda g: (g.reshape(shape),))


def pad_rows(a: Node, count: int) -> Node:
    """Append ``count`` zero rows."""
    if count < 0:
        raise ParameterError("pad_rows: count must be >= 0")
    if count == 0:
        return a
    m, n = a.value.shape
    out = np.zeros((m + count, n), dtype=a.value.dtype)
    out[:m] = a.value
    return Node(out, (a,), lambda g: (g[:m].copy(),))


def crop_rows(a: Node, rows: int) -> Node:
    """Keep the first ``rows`` rows, dropping the rest."""
    m, n = a.value.shape
    if not 0 < rows <= m:
        raise ShapeError(f"crop_rows: cannot keep {rows} of {m} rows")
    if rows == m:
        return a

    def backward(g):
        full = np.zeros((m, n), dtype=g.dtype)
        full[:rows] = g
        return (full,)

    return Node(a.value[:rows].copy(), (a,), backward)


def row_softmax(x: Node, temperature: float) -> Node:
    """Row-wise softmax of x / temperature, max-subtracted for stability.

    Backward uses the softmax Jacobian: dx = y * (g - sum(g*y)) / tau, so
    only the output y is saved.
    """
    if temperature <= 0:
        raise ParameterError(f"row_softmax: temperature must be > 0, got {temperature}")
    v = x.value
    tau = v.dtype.type(temperature)
    y = v - v.max(axis=1, keepdims=True)
    y /= tau
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)

    def backward(g):
        dx = g - (g * y).sum(axis=1, keepdims=True)
        dx *= y
        dx /= tau
        return (dx,)

    return Node(y, (x,), backward)


def rows_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(k, m) dot products of the rows of a (k, d) with the rows of b (m, d): ``a @ b.T``.

    At d = 1 a broadcast product gives the same bits as the K=1 matrix
    product at a fraction of its cost; otherwise it is the matrix product.
    """
    if a.shape[1] == 1:
        return np.multiply(a, b.T, out=out)
    return np.matmul(a, b.T, out=out)


def neg_distance_cluster_major(
    w: np.ndarray,
    c: np.ndarray,
    euclidean: bool = False,
    w_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
    cross: np.ndarray | None = None,
) -> np.ndarray:
    """Negated distances between the rows of w (m, d) and c (k, d), laid out (k, m).

    Entry (j, i) is -max(|w_i|^2 + |c_j|^2 - 2 w_i.c_j, 0), the clamp
    absorbing tiny negatives from cancellation, or the negated square root
    of that when ``euclidean``. Plain arrays, no tape. The cluster-major
    layout turns reductions over the k clusters of each row into
    contiguous elementwise passes. ``w_sq``, when given, is w's row sums of
    squares, ``(w * w).sum(axis=1)``; ``out`` receives the result and
    ``cross`` is a work array, both (k, m).
    """
    if w_sq is None:
        w_sq = (w * w).sum(axis=1)
    out = np.add((c * c).sum(axis=1)[:, None], w_sq, out=out)
    cross = rows_dot(c, w, out=cross)
    cross *= -2.0
    out += cross
    np.maximum(out, 0.0, out=out)
    if euclidean:
        np.sqrt(out, out=out)
    np.negative(out, out=out)
    return out


def neg_sq_distance(w: Node, c: Node, euclidean: bool = False) -> Node:
    """Negated pairwise distances between the rows of w (m, d) and c (k, d).

    The value is a read-only (m, k) transposed view of
    ``neg_distance_cluster_major``. One node saves only its output:
    backward rebuilds the clamp mask as ``out < 0``. A clamped entry (a row
    that coincides with a centroid) passes no gradient.
    """
    wv, cv = w.value, c.value
    if wv.shape[1] != cv.shape[1]:
        raise ShapeError(f"neg_sq_distance: sub-vector dim {wv.shape[1]} != centroid dim {cv.shape[1]}")
    out = neg_distance_cluster_major(wv, cv, euclidean).T
    out.flags.writeable = False

    def backward(g):
        # gs = dL/d(|w|^2 + |c|^2 - 2 w.c), zero where the clamp was active
        if euclidean:
            # d(-sqrt(s))/ds = -0.5 / sqrt(s), with sqrt(s) = -out floored
            # so a clamped entry stays finite before its mask zeroes it
            gs = -0.5 * g
            gs /= np.maximum(-out, np.finfo(out.dtype).tiny ** 0.5)
            gs *= out < 0
        else:
            gs = -g * (out < 0)
        gw = gc = None
        if w.requires_grad:
            gw = gs @ cv
            gw *= -2.0
            gw += 2.0 * wv * gs.sum(axis=1, keepdims=True)
        if c.requires_grad:
            gc = gs.T @ wv
            gc *= -2.0
            gc += 2.0 * cv * gs.sum(axis=0)[:, None]
        return gw, gc

    return Node(out, (w, c), backward)


def sum_all(a: Node) -> Node:
    """Sum every entry to a 1x1 node (composition of the axis sums)."""
    return sum_cols(sum_rows(a))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _spent(g):
    raise RuntimeError("backward already ran through this node: the tape is one-shot")


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Propagate d(loss)/d(leaf) to every reachable differentiable leaf.

    Returns a map from leaf to accumulated gradient and mirrors each one
    onto ``leaf.grad``. Interior gradients are dropped once passed on, and
    each interior node releases its parents and closure after it runs, so
    the tape is one-shot: running backward through it again raises.
    """
    if loss.value.shape != (1, 1):
        raise ShapeError(f"backward: loss must be 1x1, got {loss.value.shape}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1), dtype=loss.value.dtype)}
    result: dict[Node, np.ndarray] = {}

    order = _toposort(loss)
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g
            result[node] = g
            continue
        parent_grads = node._backward(g)
        parents = node.parents
        node.parents, node._backward = (), _spent
        for parent, pg in zip(parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return result
