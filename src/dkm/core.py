"""Iterative attention-based soft clustering with a differentiable unrolled loop.

A weight vector is viewed as (count, dim) sub-vectors. Each forward pass
alternates distance -> temperature softmax -> attention-weighted centroid
means until the codebook moves less than epsilon in Frobenius norm or an
iteration cap is hit, then emits soft-reconstructed weights A @ C. The
converged codebook is returned detached so the caller can warm-start the
next batch.

The whole loop is one tape node. It runs over row tiles of about
TILE_BYTES, each laid out cluster-major (k, rows), and saves for backward
only the input, each iteration's (k, dim) codebook and (k,) attention
column sums. Backward recomputes every tile's distances and attention
from those, so the tape does not grow with count * 2^bits. The final pass
also writes each row's nearest centroid from its distance tile, so a
caller that only snaps can skip the (count, 2^bits) attention array
altogether (``keep_attention=False`` in ``dkm_forward``; the Gumbel and
hard loops of ``baselines`` never build it). The same loop serves every
assignment mode: only the rule turning a distance tile into
attention changes (the softmax here; Gumbel-softmax draws and a one-hot
argmax in ``baselines``), and ``_cluster_loop`` is its only entry. The
public ``distance_matrix``, ``attention`` and ``centroid_update`` build
the soft steps as separate tape nodes from the same ``autodiff`` kernels.

Each call allocates its tile work arrays (distances, softmax samples,
noise) once and reuses them for every tile and pass; they are freed when
the call returns. The softmax, the loop's and ``attention``'s alike,
flushes subnormal tails: an entry whose shifted logit ``(d - max_k d) / tau``
is below log(finfo.tiny), so that its unnormalised weight would fall below
the smallest normal float, is exactly 0 instead of a subnormal. Every other
entry keeps the bits of the plain max-subtracted softmax.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import DataError, NumericError, ParameterError, ResourceError, ShapeError
from .errors import check_fields, choice, integer, real

SQUARED_EUCLIDEAN = "squared_euclidean"
EUCLIDEAN = "euclidean"
METRICS = (SQUARED_EUCLIDEAN, EUCLIDEAN)

RANDOM_SAMPLE = "random_sample"
KMEANS_PP = "kmeans_pp"
INITS = (RANDOM_SAMPLE, KMEANS_PP)

# Attention column sums below this keep the previous centroid for that row
# instead of dividing by dust.
EMPTY_CLUSTER_THRESHOLD = 1e-30

# The soft loop works on row tiles whose (k, rows) arrays hold about this
# many bytes (at least one row).
TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class DkmConfig:
    """Clustering hyper-parameters: 2^bits centroids of ``dim`` components.

    epsilon = 0 disables the early exit and always runs max_iterations.
    """

    bits: int
    dim: int = 1
    temperature: float = 0.5
    epsilon: float = 1e-4
    max_iterations: int = 5
    metric: str = SQUARED_EUCLIDEAN
    init: str = RANDOM_SAMPLE

    def __post_init__(self):
        check_fields(
            bits=integer(self.bits, 1, 16),
            dim=integer(self.dim, 1),
            temperature=real(self.temperature, 0, above=True),
            epsilon=real(self.epsilon, 0),
            max_iterations=integer(self.max_iterations, 1),
            metric=choice(self.metric, METRICS),
            init=choice(self.init, INITS),
        )

    @property
    def clusters(self) -> int:
        return 1 << self.bits


@dataclass
class SubvectorMatrix:
    """Flat weights reshaped to (count, dim) contiguous sub-vectors.

    The final row may be zero-padded; pad_count records how many trailing
    entries are synthetic so the original vector can be restored exactly.
    """

    values: np.ndarray
    original_length: int
    pad_count: int = 0

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values)
        if self.values.ndim != 2:
            raise ShapeError(f"subvectors must be 2-D, got shape {self.values.shape}")
        if self.count * self.dim != self.original_length + self.pad_count:
            raise ShapeError("count * dim must equal original_length + pad_count")
        if not 0 <= self.pad_count < self.dim:
            raise ShapeError(f"pad_count must be in [0, dim), got {self.pad_count}")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def flatten(self) -> np.ndarray:
        """Original flat weight vector, padding dropped: a view of ``values``."""
        return self.values.reshape(-1)[: self.original_length]


@dataclass
class Codebook:
    """The shared centroids: one row per cluster."""

    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids)
        if self.centroids.ndim != 2:
            raise ShapeError(f"codebook must be 2-D, got shape {self.centroids.shape}")
        if not np.all(np.isfinite(self.centroids)):
            raise NumericError("codebook contains NaN or Inf")

    @property
    def clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class DkmTelemetry:
    """Per-invocation loop diagnostics."""

    iterations_used: int
    final_delta: float
    converged: bool


@dataclass
class DkmResult:
    """Everything one clustering pass produces.

    w_tilde stays attached to the tape; attention, indices and codebook are
    detached values the caller owns (the codebook is the next batch's warm
    start). indices is the (m,) intp array of each row's nearest centroid
    of the final codebook, taken from the distances (ties go to the lowest
    index), whatever the assignment rule. In soft and Gumbel attention, an
    entry whose weight before normalisation, exp((d - max_k d) / tau), would
    fall below the smallest normal float is exactly 0, not a subnormal.
    Dividing by the column sum (at most k) can still leave entries between
    tiny / k and tiny. When the attention is not kept, ``attention`` is a
    read-only (m, k) broadcast of one NaN (zero strides, see
    ``attention_kept``): it keeps the shape, for callers that read only
    that, holds none of the m * k entries, and ``compression.snap``
    refuses it. trajectory, when recorded, holds the initial centroids
    followed by each iterate.
    """

    w_tilde: Node
    attention: np.ndarray
    codebook: Codebook
    telemetry: DkmTelemetry
    indices: np.ndarray
    trajectory: list[np.ndarray] = field(default_factory=list)


def attention_kept(attention: np.ndarray) -> bool:
    """False for the NaN broadcast a loop returns when it built no attention."""
    return not (attention.size and attention.strides == (0, 0) and np.isnan(attention.flat[0]))


def _values(x) -> np.ndarray:
    """The array behind a Node, SubvectorMatrix or Codebook; anything else as float64."""
    if isinstance(x, Node):
        return x.value
    if isinstance(x, SubvectorMatrix):
        return x.values
    if isinstance(x, Codebook):
        return x.centroids
    return np.asarray(x, dtype=np.float64)


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return ad.constant(x if isinstance(x, np.ndarray) else _values(x))


def init_centroids(w: SubvectorMatrix, config: DkmConfig, seed: int) -> Codebook:
    """Seed 2^bits centroids from the sub-vectors, deterministically.

    With ``rng = np.random.default_rng(seed)``, random_sample draws k
    distinct rows (``rng.choice(count, k, replace=False)``) and kmeans_pp
    returns ``kmeans_pp(values, k, rng)``. The seed must be >= 0.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    k = config.clusters
    if w.count < k:
        raise DataError(f"need at least {k} sub-vectors to seed {k} clusters, got {w.count}")
    rng = np.random.default_rng(seed)
    if config.init == RANDOM_SAMPLE:
        idx = rng.choice(w.count, size=k, replace=False)
        return Codebook(w.values[idx].copy())
    return Codebook(kmeans_pp(w.values, k, rng))


def kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k rows of ``points`` (count >= k) chosen by D^2 weighting.

    The first row is drawn uniformly (``rng.integers(count)``) and each next
    one with probability proportional to its squared distance from the
    nearest already-chosen row (``rng.choice(count, p=d2 / d2.sum())``, or
    uniformly again once every distance is zero).
    """
    count = points.shape[0]
    chosen = np.empty((k, points.shape[1]), dtype=points.dtype)
    chosen[0] = points[rng.integers(count)]
    d2 = np.sum((points - chosen[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(count)
        else:
            idx = rng.choice(count, p=d2 / total)
        chosen[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - chosen[j]) ** 2, axis=1))
    return chosen


def distance_matrix(w, c, metric: str = SQUARED_EUCLIDEAN) -> Node:
    """Negated pairwise distances, differentiable w.r.t. both operands.

    Entry (i, j) is -||w_i - c_j||^2 (or the plain norm), so larger means
    closer. One fused tape node (``autodiff.neg_sq_distance``) using the
    |w|^2 + |c|^2 - 2 w.c expansion; tiny negative squared distances from
    cancellation are clamped to zero.
    """
    if metric not in METRICS:
        raise ParameterError(f"metric must be one of {METRICS}, got {metric!r}")
    return ad.neg_sq_distance(_as_node(w), _as_node(c), euclidean=metric == EUCLIDEAN)


def attention(dist: Node, temperature: float) -> Node:
    """Row-stochastic soft assignments from negated distances, flushed as in the loop."""
    return ad.row_softmax(_as_node(dist), temperature)


def centroid_update(a, w, prev: Node | None = None) -> Node:
    """Attention-weighted means: candidate row j = sum_i a_ij w_i / sum_i a_ij.

    Rows whose attention column-sum underflows keep the corresponding row of
    ``prev`` (required whenever that can happen; without ``prev`` such rows
    come out zero).
    """
    an, wn = _as_node(a), _as_node(w)
    if an.shape[0] != wn.shape[0]:
        raise ShapeError(f"attention rows {an.shape[0]} != sub-vector count {wn.shape[0]}")
    k, d = an.shape[1], wn.shape[1]

    weighted = ad.matmul(ad.transpose(an), wn)
    col_sums = ad.transpose(ad.sum_cols(an))
    occupied = col_sums.value >= EMPTY_CLUSTER_THRESHOLD
    if occupied.all():
        return ad.div(weighted, ad.broadcast_col(col_sums, d))

    mask = occupied.astype(an.value.dtype)
    safe = ad.add(col_sums, ad.constant(1.0 - mask))
    update = ad.div(weighted, ad.broadcast_col(safe, d))
    keep = ad.broadcast_col(ad.constant(mask), d)
    if prev is None:
        return ad.mul(update, keep)
    inv = ad.broadcast_col(ad.constant(1.0 - mask), d)
    return ad.add(ad.mul(update, keep), ad.mul(_as_node(prev), inv))


def physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _row_tiles(m: int, k: int, itemsize: int) -> list[slice]:
    rows = max(1, TILE_BYTES // (k * itemsize))
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _occupied(col_sums: np.ndarray, dtype) -> np.ndarray:
    """(k, 1) mask: 1 where a cluster's attention mass counts, else 0."""
    return (col_sums >= EMPTY_CLUSTER_THRESHOLD).astype(dtype)[:, None]


class _TileWork:
    """Work arrays of one forward or backward call, reused by every tile and pass.

    Each name owns one flat buffer of ``size`` entries, allocated at its
    first use and freed with this object; ``get`` returns a C-contiguous
    view of its leading entries. Reuse keeps the loop from allocating (and
    page-faulting in) fresh tile-sized temporaries on every pass.
    """

    def __init__(self, size: int):
        self.size = size
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, int], dtype) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = np.empty(self.size, dtype)
        return buf[: shape[0] * shape[1]].reshape(shape)


def _nearest_one_hot(dist: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One-hot of each column's largest entry of a (k, rows) tile, into ``out``.

    Where each column has one entry equal to its max, that entry is the
    argmax; a column with a tie (or a NaN) falls back to argmax, whose first
    maximum sends ties to the lowest index. The comparison costs about a
    quarter of numpy's argmax over axis 0.
    """
    np.equal(dist, dist.max(axis=0), out=out)
    if not np.all(out.sum(axis=0) == 1):
        np.equal(np.argmax(dist, axis=0), np.arange(dist.shape[0])[:, None], out=out)
    return out


def _soft_rule(dist: np.ndarray, tau, work: _TileWork) -> tuple[np.ndarray]:
    """The DKM assignment rule: one temperature softmax over the clusters."""
    return (ad.softmax_cluster_major(dist, tau, work.get("sample0", dist.shape, dist.dtype)),)


def _attend(samples, tau, work: _TileWork, ga: np.ndarray | None = None):
    """The attention tile, the mean of a rule's samples, and its backward.

    Given ``ga`` = d(loss)/d(attention), also returns the gradient reaching
    the distances: each sample s is a softmax over the clusters of
    (distances + its noise) / tau, so it passes ``s * (ga - sum_k ga s) / tau``
    and the gradient is the mean of those. ``ga`` and the first sample are
    overwritten.
    """
    n = len(samples)
    g = None
    if ga is not None:
        prod = work.get("tmp", ga.shape, ga.dtype)
        for i, s in enumerate(samples):
            if i == n - 1:
                gs = ga
            else:
                gs = work.get("gs" if g is None else "gs_next", ga.shape, ga.dtype)
                np.copyto(gs, ga)
            gs -= np.multiply(gs, s, out=prod).sum(axis=0)
            gs *= s
            g = gs if g is None else np.add(g, gs, out=g)
        g /= tau * n
    a = samples[0]
    for s in samples[1:]:
        a += s
    if n > 1:
        a *= 1.0 / n
    return a, g


def _tile_distances(w, w_sq, rows, c, euclidean, work: _TileWork) -> np.ndarray:
    """The (k, rows) negated-distance tile of ``w[rows]``, in the work arrays.

    ``tmp`` holds only the kernel's cross term, so later steps of the tile
    may reuse it.
    """
    shape = (c.shape[0], rows.stop - rows.start)
    return ad.neg_distance_cluster_major(
        w[rows], c, euclidean, w_sq[rows],
        work.get("dist", shape, w.dtype), work.get("tmp", shape, w.dtype),
    )


def _loop_backward(w, codebooks, col_sums, tau, euclidean, tiles, rule, rng, marks):
    """Backward of the fused loop: recompute each tile, then run the chain rule.

    Pass p recomputes the attention to ``codebooks[p]``, replaying the
    rule's draws from ``marks[p]``. The last pass is the output
    ``w_tilde = A C``; every earlier one is the update
    ``C' = (A^T w) / s * mask + C * (1 - mask)`` with ``s = col_sums[p]``.
    Only ``w`` receives a gradient: the starting codebook is a constant.
    """

    def backward(g):
        gw = np.zeros_like(w)
        w_sq = (w * w).sum(axis=1)
        work = _TileWork(codebooks[0].shape[0] * tiles[0].stop)
        steps = len(col_sums)
        g_next = None  # gradient reaching codebooks[p + 1]
        for p in range(steps, -1, -1):
            c = codebooks[p]
            if rng is not None:
                rng.bit_generator.state = marks[p]
            g_c = np.zeros_like(c) if p > 0 else None
            if p < steps:
                sums = col_sums[p]
                mask = _occupied(sums, w.dtype)
                g_weighted = g_next * mask / (sums[:, None] + (1.0 - mask))
                g_sums = -(g_weighted * codebooks[p + 1]).sum(axis=1)
                if g_c is not None:
                    g_c += g_next * (1.0 - mask)
            for rows in tiles:
                wr = w[rows]
                dist = _tile_distances(w, w_sq, rows, c, euclidean, work)
                samples = rule(dist, tau, work)
                ga = work.get("ga", dist.shape, dist.dtype)
                if p == steps:
                    gr = g[rows]
                    ad.rows_dot(c, gr, out=ga)
                else:
                    ad.rows_dot(g_weighted, wr, out=ga)
                    ga += g_sums[:, None]
                # through the softmax over clusters ...
                a, ga = _attend(samples, tau, work, ga)
                if p == steps:
                    g_c += a @ gr
                else:
                    gw[rows] += a.T @ g_weighted
                # ... to the rows and the centroids
                gw_rows, gc = ad.neg_distance_vjp(
                    ga, dist, wr, c, euclidean, g_c is not None,
                    work.get("tmp", dist.shape, dist.dtype), work.get("clamp", dist.shape, bool),
                )
                gw[rows] += gw_rows
                if g_c is not None:
                    g_c += gc
            g_next = g_c
        return (gw,)

    return backward


def _cluster_loop(
    w,
    warm_start: Codebook | None,
    config: DkmConfig,
    seed: int,
    rule=_soft_rule,
    rng: np.random.Generator | None = None,
    record_trajectory: bool = False,
    keep_attention: bool = True,
) -> DkmResult:
    """The clustering loop of every assignment mode, and its only entry.

    ``w`` is a SubvectorMatrix (clustered as a differentiable leaf) or a
    graph Node of shape (count, dim). Before seeding, raises ResourceError
    when what the loop returns plus one tile exceeds physical memory:
    ``m * k * itemsize + TILE_BYTES`` with the (m, k) attention kept, else
    ``m * (dim * itemsize + intp itemsize) + TILE_BYTES`` for the soft
    weights and the indices. Nothing else the loop holds grows with m * k,
    whatever the assignment rule, the iteration count or ``requires_grad``.
    The loop starts from ``warm_start``, which must be (2^bits, dim) and is
    copied, never aliased, or else from ``init_centroids(..., seed)``.

    ``rule(dist, tau, work)`` maps a cluster-major (k, rows) tile of negated
    distances to the list of samples whose mean is its attention tile: one
    softmax for the soft rule, one per draw for Gumbel, one one-hot for
    hard. Samples live in the call's work arrays (``work.get``) and are
    only valid until the next tile. Only softmax samples have a backward. A
    rule that draws from ``rng`` is replayed in backward from the generator
    state saved at the start of each pass. Otherwise as ``dkm_forward``
    describes.
    """
    if config is None:
        raise ParameterError("config is required")
    w_node = w if isinstance(w, Node) else ad.leaf(w.values)
    w = w_node.value
    m, d = w.shape
    k = config.clusters
    if d != config.dim:
        raise ShapeError(f"sub-vector dim {d} != config dim {config.dim}")

    per_row = k * w.itemsize if keep_attention else d * w.itemsize + np.dtype(np.intp).itemsize
    need = m * per_row + TILE_BYTES
    available = physical_memory_bytes()
    if available is not None and need > available:
        raise ResourceError(
            f"clustering {m} sub-vectors into {k} clusters needs about {need} bytes, "
            f"more than the {available} bytes of physical memory"
        )

    if warm_start is None:
        c = init_centroids(SubvectorMatrix(w, w.size), config, seed).centroids
    elif warm_start.centroids.shape != (k, d):
        raise ShapeError(f"warm start shape {warm_start.centroids.shape} != ({k}, {d})")
    else:
        c = warm_start.centroids
    c = c.astype(w.dtype, copy=True)

    tau = w.dtype.type(config.temperature)
    euclidean = config.metric == EUCLIDEAN
    tiles = _row_tiles(m, k, w.itemsize)
    marks = []  # generator state at the start of each pass
    w_sq = (w * w).sum(axis=1)
    work = _TileWork(k * tiles[0].stop)  # the first tile is the largest

    codebooks = [c]
    col_sums = []
    delta = np.inf
    converged = False
    for it in range(1, config.max_iterations + 1):
        marks.append(None if rng is None else rng.bit_generator.state)
        sums = np.zeros(k, dtype=w.dtype)
        weighted = np.zeros((k, d), dtype=w.dtype)
        for rows in tiles:
            dist = _tile_distances(w, w_sq, rows, c, euclidean, work)
            a = _attend(rule(dist, tau, work), tau, work)[0]
            sums += a.sum(axis=1)
            weighted += a @ w[rows]
        # masked arithmetic, not np.where, so a NaN column sum poisons the
        # iterate and is reported instead of silently keeping the old row
        mask = _occupied(sums, w.dtype)
        candidate = weighted / (sums[:, None] + (1.0 - mask)) * mask + c * (1.0 - mask)
        if not np.all(np.isfinite(candidate)):
            raise NumericError(f"non-finite centroids at iteration {it}")
        delta = float(np.linalg.norm(candidate - c))
        c = candidate
        codebooks.append(c)
        col_sums.append(sums)
        if config.epsilon > 0 and delta <= config.epsilon:
            converged = True
            break

    # the final pass: soft weights, the attention if kept, and the nearest
    # centroid of each row from the distances (the rule may be noisy)
    attn = np.empty((m, k), dtype=w.dtype) if keep_attention else None
    w_tilde = np.empty((m, d), dtype=w.dtype)
    indices = np.empty(m, dtype=np.intp)
    cluster_ids = np.arange(k, dtype=w.dtype)
    marks.append(None if rng is None else rng.bit_generator.state)
    for rows in tiles:
        dist = _tile_distances(w, w_sq, rows, c, euclidean, work)
        a = _attend(rule(dist, tau, work), tau, work)[0]
        indices[rows] = cluster_ids @ _nearest_one_hot(dist, work.get("tmp", dist.shape, w.dtype))
        # row-major either way, so w_tilde has the same bits with or without;
        # the distances are spent, so their buffer takes the attention
        tile = attn[rows] if keep_attention else work.get("dist", a.shape[::-1], w.dtype)
        tile[...] = a.T
        w_tilde[rows] = tile @ c
    if attn is None:
        attn = np.broadcast_to(np.array(np.nan, w.dtype), (m, k))
    backward = None
    if w_node.requires_grad:
        backward = _loop_backward(w, codebooks, col_sums, tau, euclidean, tiles, rule, rng, marks)

    return DkmResult(
        w_tilde=Node(w_tilde, (w_node,), backward),
        attention=attn,
        codebook=Codebook(c.copy()),
        telemetry=DkmTelemetry(iterations_used=len(col_sums), final_delta=delta, converged=converged),
        indices=indices,
        trajectory=[b.copy() for b in codebooks] if record_trajectory else [],
    )


def dkm_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
    record_trajectory: bool = False,
    keep_attention: bool = True,
) -> DkmResult:
    """Run the soft clustering loop and return soft weights on the tape.

    ``w`` may be a SubvectorMatrix or an existing graph Node of shape
    (count, dim); a constant Node clusters without building a tape. Initial
    centroids come from ``warm_start`` (detached copy) or from
    ``init_centroids``; gradients flow through every executed iteration
    back to ``w`` but never across batches.

    The loop is one tape node, ``w_tilde``, which holds only ``w``, each
    iteration's codebook and attention column sums; the attention is
    recomputed tile by tile in backward. ``attention`` is a fresh (m, k)
    array filled tile by tile, which the tape does not hold; with
    ``keep_attention=False`` it is never built (see DkmResult), and a
    caller that only snaps uses ``indices``. Raises ResourceError before
    seeding when what the call returns and one tile cannot fit in physical
    memory, and NumericError naming the iteration whose centroids come out
    non-finite.
    """
    return _cluster_loop(
        w, warm_start, config, seed, record_trajectory=record_trajectory, keep_attention=keep_attention
    )


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max abs difference scaled by the largest magnitude in either array."""
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def dkm_gradient_check(
    w: SubvectorMatrix,
    config: DkmConfig,
    seed: int,
    saturation_tol: float | None = None,
    step: float = 1e-6,
) -> float:
    """Compare loop gradients against central finite differences.

    Builds loss = ||w_tilde - T||^2 for a fixed random target T and returns
    the max relative error of d(loss)/dw. The early exit is disabled so
    every probe runs the same number of iterations. ``saturation_tol``
    excludes rows whose attention is within that tolerance of one-hot
    (their gradients are numerically degenerate at near-hard temperatures).
    """
    cfg = replace(config, epsilon=0.0)
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(w.values.shape)
    # pin the initial codebook: gradients flow through the loop, not through
    # the seeding, so both probes must start from the same centroids
    start = init_centroids(w, cfg, seed)

    def loss_value(values: np.ndarray) -> float:
        res = dkm_forward(ad.constant(values, checked=False), start, cfg, seed)
        return float(np.sum((res.w_tilde.value - target) ** 2))

    w_node = ad.leaf(w.values)
    res = dkm_forward(w_node, start, cfg, seed)
    diff = ad.sub(res.w_tilde, ad.constant(target))
    ad.backward(ad.sum_all(ad.square(diff)))
    grad_ad = w_node.grad

    grad_fd = np.zeros_like(w.values)
    for i in range(w.count):
        for j in range(w.dim):
            plus = w.values.copy()
            minus = w.values.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad_fd[i, j] = (loss_value(plus) - loss_value(minus)) / (2.0 * step)

    if saturation_tol is not None:
        rows = res.attention.max(axis=1) < 1.0 - saturation_tol
        if not rows.any():
            return 0.0
        return relative_error(grad_ad[rows], grad_fd[rows])
    return relative_error(grad_ad, grad_fd)
