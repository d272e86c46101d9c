"""Minimal reverse-mode autodiff over dense 2-D float matrices.

Just enough machinery to differentiate an unrolled soft-clustering loop and
a small MLP: every value is a 2-D numpy array (float32 or float64), every
operation on a differentiable input records a backward closure, and
``backward`` runs one reverse topological sweep from a scalar loss.

The tape holds only what backward reads:

- a node computed from constants alone keeps no parents and no closure, so
  a forward pass on constants builds no tape at all;
- ``dense`` is one node per MLP layer, saving its inputs and relu mask;
- ``neg_sq_distance``, ``row_softmax`` and ``centroid_update`` keep for
  backward at most their inputs' values, their output and (the update)
  the (k,) column sums. They are plain-array kernels with a tape entry:
  the cluster-major (k, m) ``neg_distance_cluster_major`` with
  ``neg_distance_vjp``, ``softmax_cluster_major``, and the update
  ``masked_mean`` with its VJP ``masked_mean_vjp``. ``dkm.core``'s loop
  runs the softmax and the update kernels too, but clusters on
  ``Logits``, whose tile is the negated distance over tau plus a term
  equal across each row's clusters (for the squared metric, without the
  row norms, the clamp or a division by tau, and with its own VJP; the
  euclidean VJP is ``neg_distance_vjp``'s); so the loop agrees with the
  composed nodes to rounding, not bit for bit;
- ``softmax_cross_entropy`` is the whole classification loss in one node,
  saving the row exponentials and their sums, and ``regroup`` lays a
  matrix's row-major entries out in a new shape, zero-padded or cut short,
  in one node;
- ``dkm.core.dkm_forward`` adds one node for its whole clustering loop,
  which saves the input, each iteration's (k, dim) codebook and (k,)
  column sums, and either each pass's (k, m) attention, when those fit
  in ``core.KEPT_BYTES`` together, or nothing more, recomputing its
  (m, k) arrays tile by tile in backward;
- ``backward`` releases each node's parents and closure once it has run, so
  the tape shrinks as gradients flow, and only leaves keep a gradient.

Because values are shared by reference, no primitive may write into an
input's value, and callers must not write into a node's value while its
graph is alive.

Graphs are per-forward-pass and thread-confined. Distinct graphs may be
built concurrently; there is no shared mutable state.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

F64 = np.float64

_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Attention column sums below this keep the previous centroid for that row
# instead of dividing by dust.
EMPTY_CLUSTER_THRESHOLD = 1e-30


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


def square(a: Node) -> Node:
    return Node(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,))


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ {a.value.shape} vs {b.value.shape}")
    return Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def dense(h: Node, w: Node, b: Node, relu: bool = False) -> Node:
    """One MLP layer: ``h @ w + b`` for a (1, n) bias row ``b``, through a relu if ``relu`` is set."""
    hv, wv, bv = h.value, w.value, b.value
    if hv.shape[1] != wv.shape[0] or bv.shape != (1, wv.shape[1]):
        raise ShapeError(f"dense: no layer from h {hv.shape}, w {wv.shape} and bias {bv.shape}")
    out = hv @ wv + bv
    if relu:
        mask = out > 0
        np.maximum(out, 0.0, out=out)  # not np.where: NaN propagates instead of masking to zero

    def backward(g):
        g = g * mask if relu else g
        return (g @ wv.T if h.requires_grad else None), hv.T @ g, g.sum(axis=0, keepdims=True)

    return Node(out, (h, w, b), backward)


def regroup(a: Node, rows: int, cols: int) -> Node:
    """The row-major entries of ``a`` laid out as (rows, cols).

    Entries beyond rows * cols are cut off; missing ones are zeros. Backward
    hands each kept entry its gradient and every cut entry zero.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"regroup: cannot lay out ({rows}, {cols})")
    shape, size = a.value.shape, a.value.size
    keep = min(size, rows * cols)
    out = np.zeros(rows * cols, dtype=a.value.dtype)
    out[:keep] = a.value.reshape(-1)[:keep]

    def backward(g):
        full = np.zeros(size, dtype=g.dtype)
        full[:keep] = g.reshape(-1)[:keep]
        return (full.reshape(shape),)

    return Node(out.reshape(rows, cols), (a,), backward)


def row_softmax(x: Node, temperature: float) -> Node:
    """Row-wise softmax of x / temperature: ``softmax_cluster_major`` of x's transpose.

    So an entry whose shifted logit is below log(finfo.tiny) is exactly 0,
    as in the clustering loop. Backward uses the softmax Jacobian:
    dx = y * (g - sum(g*y)) / tau, so only the output y is saved.
    """
    if temperature <= 0:
        raise ParameterError(f"row_softmax: temperature must be > 0, got {temperature}")
    tau = x.value.dtype.type(temperature)
    y = softmax_cluster_major(x.value.T, tau).T

    def backward(g):
        dx = g - (g * y).sum(axis=1, keepdims=True)
        dx *= y
        dx /= tau
        return (dx,)

    return Node(y, (x,), backward)


def softmax_cross_entropy(logits: Node, labels) -> Node:
    """Mean negative log-likelihood of integer ``labels`` under the row softmax of (b, c) ``logits``.

    One node for the whole loss. The logits are max-shifted per row, so a
    wide spread stays finite. Backward is (softmax - one-hot) / b, read
    from the saved exponentials and their row sums.
    """
    v = logits.value
    b, c = v.shape
    labels = np.asarray(labels)
    if labels.shape != (b,) or labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"softmax_cross_entropy: need {b} labels in [0, {c}), got shape {labels.shape}")
    rows = np.arange(b)
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    picked = shifted[rows, labels][:, None] - np.log(s)
    scale = v.dtype.type(1.0 / b)

    def backward(g):
        gb = g * scale
        dx = e * (gb / s)
        dx[rows, labels] -= gb[0, 0]
        return (dx,)

    return Node(picked.sum(axis=0, keepdims=True) * -scale, (logits,), backward)


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
    # built negated throughout: each rounding is the negation of the one the
    # unnegated sum makes, and doubling c is exact, so only a clamped zero's
    # sign can differ from negating at the end
    out = np.subtract(-(c * c).sum(axis=1)[:, None], w_sq, out=out)
    out += rows_dot(c + c, w, out=cross)
    # a positive entry (a row on a centroid) or a NaN; most tiles have
    # neither, and one reduction costs a fraction of the clamp
    if not out.max() <= 0:
        np.minimum(out, 0.0, out=out)
    if euclidean:
        np.negative(out, out=out)
        np.sqrt(out, out=out)
        np.negative(out, out=out)
    return out


def _flush_floor(dtype) -> np.generic:
    """The least ``dtype`` value >= log(finfo.tiny): y < it exactly where y < log(tiny).

    A scalar of the tile's own dtype keeps float32 comparisons in float32.
    The rounding up is Python float arithmetic on the dtype's spacing there,
    which pages in no numpy loop that the softmax does not run anyway.
    """
    info = np.finfo(dtype)
    exact = float(np.log(info.tiny, dtype=np.float64))
    spacing = 2.0 ** (math.frexp(exact)[1] - info.nmant - 1)
    return dtype.type(math.ceil(exact / spacing) * spacing)


_FLUSH_FLOOR = {dtype: _flush_floor(dtype) for dtype in _DTYPES}


def softmax_cluster_major(logits: np.ndarray, tau, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the clusters of a cluster-major (k, rows) tile, max-subtracted.

    Entries whose shifted logit ``(logit - column max) / tau`` is below
    log(finfo.tiny) are exactly 0: exp is not evaluated there, because its
    subnormal and underflowing results take libm's slow path. Every other
    entry has the bits of the plain softmax. ``out`` may be ``logits``;
    given, it must be contiguous.
    """
    y = np.subtract(logits, logits.max(axis=0), out=out)
    if tau != 1:  # dividing by 1 changes no bit
        y /= tau
    floor = _FLUSH_FLOOR[y.dtype]
    # one reduction decides; tiles with nothing to flush pay nothing more
    if y.min() < floor:
        low = y < floor
        if np.count_nonzero(low) * 32 <= low.size:
            # a few entries (a large layer at a moderate tau): zero them by
            # index in memory order (low is laid out as y), where masked
            # copies would read the whole mask twice
            flat = y.ravel(order="K")
            idx = np.flatnonzero(low.ravel(order="K"))
            flat[idx] = 0.0
            np.exp(y, out=y)
            flat[idx] = 0.0
        else:
            # many (Gumbel noise at a small tau), where masked copies cost
            # over ten times a multiply: multiply by the complement
            keep = np.logical_not(low, out=low)
            np.maximum(y, floor, out=y)  # so the product meets no -inf
            y *= keep
            np.exp(y, out=y)
            y *= keep
    else:
        np.exp(y, out=y)
    y /= y.sum(axis=0)
    return y


def neg_distance_vjp(
    g: np.ndarray, dist: np.ndarray, w: np.ndarray, c: np.ndarray, euclidean: bool = False,
    need_c: bool = True, tmp: np.ndarray | None = None, clamp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients reaching w (m, d) and c (k, d) from ``g`` = d(loss)/d(dist).

    ``dist`` is the (k, m) output of ``neg_distance_cluster_major`` and ``g``
    has its layout; ``g`` is overwritten. A clamped entry (a row that
    coincides with a centroid) passes no gradient. The c gradient is None
    unless ``need_c``. ``tmp`` (float, like ``g``) and ``clamp`` (bool)
    are optional (k, m) work arrays.
    """
    # g becomes gs = d(loss)/d(|w|^2 + |c|^2 - 2 w.c), zero where clamped
    if euclidean:
        # d(-sqrt(s))/ds = -0.5 / sqrt(s), with sqrt(s) = -dist floored so
        # a clamped entry stays finite before its mask zeroes it
        g *= -0.5
        root = np.negative(dist, out=tmp)
        g /= np.maximum(root, np.finfo(dist.dtype).tiny ** 0.5, out=root)
    else:
        np.negative(g, out=g)
    if not dist.max() < 0:  # a clamped entry is 0; most tiles have none
        g *= np.less(dist, 0, out=clamp)
    gw = 2.0 * w * g.sum(axis=0)[:, None] - 2.0 * (g.T @ c)
    gc = 2.0 * c * g.sum(axis=1)[:, None] - 2.0 * (g @ w) if need_c else None
    return gw, gc


class Logits:
    """The clustering loop's logits against one (k, d) codebook ``c`` at temperature ``tau``.

    Plain arrays, no tape; a (k, m) tile is cluster-major, like the
    distances. The softmax of a tile's columns is the temperature softmax
    of the negated distances, so every assignment rule reads these logits
    at temperature 1.

    - Squared: entry (j, i) is (2 c_j.w_i - |c_j|^2) / tau, the negated
      squared distance over tau plus |w_i|^2 / tau. That term is equal
      across the clusters of row i, so no softmax over them sees it, and
      the tile never forms it. A tile is one ``rows_dot`` against the
      scaled codebook 2c / tau and one add of the (k,) bias -|c|^2 / tau,
      both computed here, once per codebook. Nothing cancels toward a
      negative distance, so nothing is clamped.
    - Euclidean: the negated distance of ``neg_distance_cluster_major``,
      whose root needs |w_i|^2, divided by tau.

    ``core.DkmConfig`` states the temperatures at which 2c / tau stays finite.
    """

    def __init__(self, c: np.ndarray, tau, euclidean: bool = False):
        self.c, self.tau, self.euclidean = c, tau, euclidean
        if not euclidean:
            self.scaled = (c + c) / tau
            self.bias = (c * c).sum(axis=1) / -tau

    def tile(
        self, w: np.ndarray, out: np.ndarray | None = None, w_sq: np.ndarray | None = None,
        cross: np.ndarray | None = None,
    ) -> np.ndarray:
        """The (k, m) logits of the rows of w (m, d), into ``out``.

        ``w_sq`` (w's row sums of squares) and the work array ``cross`` serve
        only the euclidean kernel, as in ``neg_distance_cluster_major``.
        """
        if self.euclidean:
            out = neg_distance_cluster_major(w, self.c, True, w_sq, out, cross)
            out /= self.tau
            return out
        out = rows_dot(self.scaled, w, out=out)
        out += self.bias[:, None]
        return out

    def vjp(
        self, g: np.ndarray, logits: np.ndarray | None, w: np.ndarray, need_c: bool = True,
        tmp: np.ndarray | None = None, clamp: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradients reaching w (m, d) and c (k, d) from ``g`` = d(loss)/d(logits), (k, m).

        Squared: gw = g^T (2c / tau) and gc = (2 / tau)(g w - c * sum_i g),
        read from neither the tile nor ``logits`` (which may be None). A
        softmax's gradient sums to zero over each column, so the |w|^2
        term the tile leaves out would have added nothing but rounding.
        Euclidean: ``neg_distance_vjp`` of g / tau on the distances,
        recovered as tau * ``logits`` (the tile of these ``w``) in place,
        so ``logits`` is overwritten. ``g`` is overwritten; the c gradient
        is None unless ``need_c``; ``tmp`` (float) and ``clamp`` (bool) are
        optional (k, m) work arrays of the euclidean VJP.
        """
        if self.euclidean:
            g /= self.tau
            dist = np.multiply(logits, self.tau, out=logits)
            return neg_distance_vjp(g, dist, w, self.c, True, need_c, tmp, clamp)
        gw = g.T @ self.scaled
        if not need_c:
            return gw, None
        gc = g @ w
        gc -= self.c * g.sum(axis=1)[:, None]
        gc += gc
        gc /= self.tau
        return gw, gc


def neg_sq_distance(w: Node, c: Node, euclidean: bool = False) -> Node:
    """Negated pairwise distances between the rows of w (m, d) and c (k, d).

    The value is a read-only (m, k) transposed view of
    ``neg_distance_cluster_major``, and backward is ``neg_distance_vjp`` on
    the saved output, so one node saves only that.
    """
    wv, cv = w.value, c.value
    if wv.shape[1] != cv.shape[1]:
        raise ShapeError(f"neg_sq_distance: sub-vector dim {wv.shape[1]} != centroid dim {cv.shape[1]}")
    out = neg_distance_cluster_major(wv, cv, euclidean).T
    out.flags.writeable = False

    def backward(g):
        # g may be shared with another node's gradient: hand the VJP a copy
        gw, gc = neg_distance_vjp(g.T.copy(), out.T, wv, cv, euclidean, c.requires_grad)
        return (gw if w.requires_grad else None), gc

    return Node(out, (w, c), backward)


def masked_mean(weighted: np.ndarray, sums: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """The centroid update: row j of ``weighted`` (k, d) over ``sums[j]``, or ``prev``'s row.

    ``weighted`` is A^T w and ``sums`` the (k,) attention column sums. A
    cluster whose sum is below EMPTY_CLUSTER_THRESHOLD keeps its row of
    ``prev`` (zero without it). Masked arithmetic, not np.where, so a NaN
    column sum poisons its row instead of silently keeping the old one.
    """
    mask = (sums >= EMPTY_CLUSTER_THRESHOLD).astype(sums.dtype)[:, None]
    out = weighted / (sums[:, None] + (1.0 - mask)) * mask
    return out if prev is None else out + prev * (1.0 - mask)


def masked_mean_vjp(
    g: np.ndarray, sums: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients reaching ``weighted``, ``sums`` and ``prev`` from ``g`` = d(loss)/d(out).

    ``out`` is ``masked_mean``'s result for these ``sums``: an occupied
    row is weighted / s, so its s receives -(g / s) . out.
    """
    mask = (sums >= EMPTY_CLUSTER_THRESHOLD).astype(sums.dtype)[:, None]
    g_weighted = g * mask / (sums[:, None] + (1.0 - mask))
    g_sums = -(g_weighted * out).sum(axis=1)
    return g_weighted, g_sums, g * (1.0 - mask)


def centroid_update(a: Node, w: Node, prev: Node | None = None) -> Node:
    """Attention-weighted means of the rows of w (m, d) under a (m, k) as one node.

    The value is ``masked_mean(a^T w, column sums of a, prev)``, (k, d), and
    backward is ``masked_mean_vjp`` on the saved output, carried on through
    the product and the column sums.
    """
    av, wv = a.value, w.value
    if av.shape[0] != wv.shape[0]:
        raise ShapeError(f"attention rows {av.shape[0]} != sub-vector count {wv.shape[0]}")
    shape = (av.shape[1], wv.shape[1])
    if prev is not None and prev.value.shape != shape:
        raise ShapeError(f"previous centroids shape {prev.value.shape} != {shape}")
    sums = av.sum(axis=0)
    out = masked_mean(av.T @ wv, sums, None if prev is None else prev.value)

    def backward(g):
        g_weighted, g_sums, g_prev = masked_mean_vjp(g, sums, out)
        ga = wv @ g_weighted.T + g_sums if a.requires_grad else None
        gw = av @ g_weighted if w.requires_grad else None
        return ga, gw, g_prev

    return Node(out, (a, w) if prev is None else (a, w, prev), backward)


def sum_all(a: Node) -> Node:
    """Sum every entry to a 1x1 node: the row sums, then their sum."""
    shape = a.value.shape
    total = a.value.sum(axis=1, keepdims=True).sum(axis=0, keepdims=True)
    return Node(total, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


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
