"""Iterative attention-based soft clustering with a differentiable unrolled loop.

A weight vector is viewed as (count, dim) sub-vectors. Each forward pass
alternates logits -> softmax -> attention-weighted centroid means until
the codebook moves less than epsilon in Frobenius norm or an iteration
cap is hit, then emits soft-reconstructed weights A @ C. The converged
codebook is returned detached so the caller can warm-start the next
batch.

The loop never forms distances for the squared metric. Its softmax is
over the clusters of each row, which cannot see a term equal across
them, such as the |w_i|^2 of a squared distance; so it takes the logits
(2 c_j.w_i - |c_j|^2) / tau (``autodiff.Logits``), the negated squared
distances over tau plus |w_i|^2 / tau, and softmaxes them at temperature
1. Its attention, codebooks and gradients agree with the composed public
nodes to rounding, not bit for bit. The euclidean metric needs the true
root, so its logits are the negated distances over tau.

The whole loop is one tape node. It runs over row tiles of about
TILE_BYTES, each laid out cluster-major (k, rows), and saves for
backward the input, each iteration's (k, dim) codebook and (k,)
attention column sums. A call of one tile whose passes' attention tiles
fit in KEPT_BYTES together keeps those too; any other call's backward
recomputes every tile's logits and attention. So the tape holds at
most KEPT_BYTES that grow with count * 2^bits, and the workloads reach
three cases: one tile, kept (each layer of a training battery); one
tile, replayed (one full tile at k = 16); several tiles, replayed (large
layers, ``dkm compress``). Backward is the output pass's
vector-Jacobian product, then each earlier update pass's, last to first.
The final pass also writes each row's nearest centroid, its largest
logit, so a caller that only snaps can skip the (count, 2^bits)
attention array altogether (``keep_attention=False`` in
``dkm_forward``; the Gumbel and hard loops of ``baselines`` never build
it). A caller that stores only the codebook and the indices, as ``dkm
compress`` does, also passes ``soft_weights=False``: the final pass
then stops at the indices, with no softmax and no soft weights. The
same loop serves every assignment mode: only the rule turning a
logits tile into its attention tile changes (the softmax here; a
Gumbel-softmax sample and a one-hot argmax in ``baselines``), and
``_cluster_loop`` is its only entry. The public ``distance_matrix``,
``attention`` and ``centroid_update`` build the three soft steps as one
tape node each, from the ``autodiff`` distance, softmax and update
kernels (``masked_mean`` and its VJP for the update, which the loop
runs too).

Tiles hold about TILE_BYTES (512 KiB). A pass runs its tiles on
min(usable CPUs, tiles) threads of one process-wide pool, built at the
first pass that uses it (the CPUs are ``os.sched_getaffinity``, or
``os.cpu_count`` where that is missing); each thread takes the next tile
not yet started. Each thread writes its own rows of the outputs, and the
tiles' partial sums (attention column sums, weighted rows, codebook
gradient terms) are added in tile order, so every result is
bit-identical whatever the number of CPUs. Each call takes one set of
tile work arrays per thread, exactly those declared up front (the
rule's included), in the calling thread, and reuses it for every tile
and pass. A call of one tile (such as each layer of a training battery,
called thousands of times) takes them, and any kept blocks, from a
process-wide free list and gives them back when it ends, so later calls
do not fault in fresh pages; the list keeps at most what one such call
holds, and a buffer is on it only while no call or tape holds it. A
call of several tiles, whose tiles' work dwarfs an allocation,
allocates its arrays afresh and drops them when its forward or backward
ends, so nothing of it stays parked after the call. A forked child
drops the parent's pool and builds its own.

The softmax, the loop's and ``attention``'s alike, flushes subnormal
tails: an entry whose shifted logit (``l - max_k l`` in the loop,
``(d - max_k d) / tau`` in ``attention``) is below log(finfo.tiny), so
that its unnormalised weight would fall below the smallest normal float,
is exactly 0 instead of a subnormal. Every other entry keeps the bits of
the plain max-subtracted softmax.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial

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

EMPTY_CLUSTER_THRESHOLD = ad.EMPTY_CLUSTER_THRESHOLD

# The soft loop works on row tiles whose (k, rows) arrays hold about this
# many bytes (at least one row); each tile worker holds one tile's arrays.
TILE_BYTES = 1 << 19
# A differentiable call whose passes' attention tiles fit in this many
# bytes keeps them for backward instead of recomputing them.
KEPT_BYTES = 2 * TILE_BYTES


@dataclass(frozen=True)
class DkmConfig:
    """Clustering hyper-parameters: 2^bits centroids of ``dim`` components.

    epsilon = 0 disables the early exit and always runs max_iterations.
    temperature is any float > 0, but the squared metric's logits scale the
    codebook by 2 / temperature: with weights of about 1, a float64
    temperature of 1e-306 still clusters, while at 1e-308 the logits
    overflow and the call raises NumericError naming iteration 1.
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

    w_tilde stays attached to the tape, or is None for a loop asked for no
    soft weights (``soft_weights=False``, as ``dkm compress`` runs it);
    attention, indices and codebook are detached values the caller owns
    (the codebook is the next batch's warm start). indices is the (m,)
    intp array of each row's nearest centroid of the final codebook: its
    largest logit (ties go to the lowest index), whatever the assignment
    rule. In soft and Gumbel attention, an entry whose weight before
    normalisation, exp(l - max_k l) for the loop's logits l, would fall
    below the smallest normal float is exactly 0, not a subnormal.
    Dividing by the column sum (at most k) can still leave entries between
    tiny / k and tiny. When the attention is not kept, ``attention`` is a
    read-only (m, k) broadcast of one NaN (zero strides, see
    ``attention_kept``): it keeps the shape, for callers that read only
    that, holds none of the m * k entries, and ``compression.snap``
    refuses it. trajectory, when recorded, holds the initial centroids
    followed by each iterate.
    """

    w_tilde: Node | None
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

    With ``generator = np.random.default_rng(seed)``, random_sample draws
    k distinct rows (``generator.choice(count, k, replace=False)``) and
    kmeans_pp returns ``kmeans_pp(values, k, generator)``. Seeds are >= 0.
    """
    check_fields(seed=integer(seed, 0))
    k = config.clusters
    if w.count < k:
        raise DataError(f"need at least {k} sub-vectors to seed {k} clusters, got {w.count}")
    generator = np.random.default_rng(seed)
    if config.init == RANDOM_SAMPLE:
        idx = generator.choice(w.count, size=k, replace=False)
        return Codebook(w.values[idx].copy())
    return Codebook(kmeans_pp(w.values, k, generator))


def kmeans_pp(points: np.ndarray, k: int, generator: np.random.Generator) -> np.ndarray:
    """k rows of ``points`` (count >= k) chosen by D^2 weighting.

    The first row is drawn uniformly (``generator.integers(count)``) and
    each next one with probability proportional to its squared distance
    from the nearest already-chosen row (``generator.choice(count, p=d2 /
    d2.sum())``, or uniformly again once every distance is zero).
    """
    count = points.shape[0]
    chosen = np.empty((k, points.shape[1]), dtype=points.dtype)
    chosen[0] = points[generator.integers(count)]
    d2 = np.sum((points - chosen[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = generator.integers(count)
        else:
            idx = generator.choice(count, p=d2 / total)
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
    come out zero). ``prev``, when given, must be (clusters, dim). One fused
    tape node (``autodiff.centroid_update``), the loop's update step.
    """
    return ad.centroid_update(_as_node(a), _as_node(w), None if prev is None else _as_node(prev))


def physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _row_tiles(m: int, k: int, itemsize: int) -> list[slice]:
    rows = max(1, TILE_BYTES // (k * itemsize))
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


class _TileWork:
    """Work arrays of one tile worker in a forward or backward call.

    Each name in ``reserve`` (name -> dtype) owns one flat buffer of
    ``size`` entries, taken here, on the calling thread; ``get`` returns a
    C-contiguous view of its leading entries, the same view object for the
    same name and shape, and raises KeyError for a name not reserved. With
    ``recycle`` the buffers come from the process-wide free list (``_take``)
    and ``release`` hands them back; otherwise they are fresh and
    ``release`` drops them. Reuse keeps the loop from allocating (and
    page-faulting in) fresh tile-sized temporaries on every pass; taking
    every buffer on the calling thread keeps them out of the worker
    threads' own malloc arenas, which would hold on to their pages.
    """

    def __init__(self, size: int, reserve: dict, recycle: bool = False):
        self.recycle = recycle
        self.buffers = {name: (_take if recycle else np.empty)(size, dtype) for name, dtype in reserve.items()}
        self.views = {}

    def get(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        view = self.views.get((name, shape))
        if view is None:
            view = self.views[name, shape] = self.buffers[name][: shape[0] * shape[1]].reshape(shape)
        return view

    def release(self) -> None:
        """Hand every buffer back (or drop it); no view of them may be used after."""
        if self.recycle:
            _give_back(self.buffers.values())
        self.buffers, self.views = {}, {}


# Flat buffers no call holds, by (size, dtype), the key returned to least
# recently first. Together they hold at most _FREE_BOUND bytes: what one
# one-tile call holds, as only those recycle. The most work such a call
# takes is a replayed Gumbel backward's: logits, tmp, ga, the sample and
# (euclidean) the clamp mask, each at most TILE_BYTES, and the float64
# noise, two tiles' worth in a float32 call. Its kept blocks take at most
# KEPT_BYTES.
_free = OrderedDict()
_free_bytes = 0
_free_lock = threading.Lock()
_FREE_BOUND = 7 * TILE_BYTES + KEPT_BYTES


def _take(size: int, dtype) -> np.ndarray:
    """A flat buffer of ``size`` entries: a free one of that size and dtype, or a new one."""
    global _free_bytes
    key = (size, np.dtype(dtype))
    with _free_lock:
        bufs = _free.get(key)
        if bufs:
            buf = bufs.pop()
            _free_bytes -= buf.nbytes
            if not bufs:
                del _free[key]
            return buf
    return np.empty(size, dtype)


def _give_back(bufs) -> None:
    """Put buffers that no array in use still views on the free list.

    Past the bound, the buffers of the key returned to least recently go
    first, so sizes no call uses any more leave before those in use.
    """
    global _free_bytes
    with _free_lock:
        for buf in bufs:
            key = (buf.size, buf.dtype)
            _free.setdefault(key, []).append(buf)
            _free.move_to_end(key)
            _free_bytes += buf.nbytes
        while _free_bytes > _FREE_BOUND:
            key, oldest = next(iter(_free.items()))
            _free_bytes -= oldest.pop().nbytes
            if not oldest:
                del _free[key]


def _max_workers() -> int:
    """The CPUs this process may run on: the most tile workers a pass uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None  # the tile workers' ThreadPoolExecutor, built at its first use
_pool_size = 0
_pool_lock = threading.Lock()


def _tile_pool(workers: int):
    """The process-wide tile pool, rebuilt larger when it has fewer threads than ``workers``."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < workers:
            # imported here: most processes never run a multi-tile pass
            from concurrent.futures import ThreadPoolExecutor

            # a replaced pool's idle threads exit once nothing refers to it
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="dkm-tiles")
            _pool_size = workers
        return _pool


def _drop_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there, nor do its lock holders."""
    global _pool, _pool_size, _pool_lock, _free_lock
    _pool, _pool_size, _pool_lock, _free_lock = None, 0, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _tile_works(k: int, tiles: list[slice], reserve: dict) -> list[_TileWork]:
    """min(usable CPUs, tiles) sets of work arrays, one per tile worker, ``reserve`` taken.

    A one-tile call's set is recycled through the free list; the sets of a
    call of several tiles are fresh.
    """
    size = k * (tiles[0].stop - tiles[0].start)  # the first tile is the largest
    if len(tiles) == 1:
        return [_TileWork(size, reserve, recycle=True)]
    return [_TileWork(size, reserve) for _ in range(min(_max_workers(), len(tiles)))]


def _run_tiles(task, tiles: list[slice], works: list[_TileWork], totals: tuple = ()) -> None:
    """Run ``task(rows, work)`` on every tile, adding its results into ``totals`` in tile order.

    ``task`` returns one array per total, and ``totals[j] += result[j]``
    runs for tile 0, then tile 1, and so on, whichever thread ran each, so
    the sums have the same bits at any thread count. With n sets of work
    arrays, n pool threads each take the next tile not yet started, in
    tile order, and run it with their own set, in a copy of the caller's
    context (numpy's error state included). A thread that finishes a tile
    adds its results and those of any later tiles already done, or, while
    an earlier tile still runs, leaves them for the thread that finishes
    it. No thread waits for another, so callers on several threads can
    share the pool, and results wait only while one tile outlasts the
    tiles started after it (at k = 4096 one tile's partial sums are as
    large as the tile). The caller waits for every thread, and re-raises
    a thread's exception after all have stopped. One set runs inline.
    """
    n = len(works)
    if n == 1:
        for rows in tiles:
            parts = task(rows, works[0])
            if totals:
                for total, part in zip(totals, parts):
                    total += part
        return
    from concurrent.futures import wait  # on first use, as in _tile_pool

    lock = threading.Lock()
    started = [0]  # tiles handed to a thread
    added = [0]  # tiles whose results are in totals
    finished = {}  # tile -> results that wait for an earlier tile's

    def share(work):
        while True:
            with lock:
                t = started[0]
                if t == len(tiles):
                    return
                started[0] += 1
            parts = task(tiles[t], work)
            if totals:
                with lock:
                    finished[t] = parts
                    while added[0] in finished:
                        for total, part in zip(totals, finished.pop(added[0])):
                            total += part
                        added[0] += 1

    pool = _tile_pool(n)
    futures = [pool.submit(contextvars.copy_context().run, share, work) for work in works]
    wait(futures)
    for f in futures:
        f.result()  # re-raises a thread's exception


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


def _soft_rule(logits: np.ndarray, work: _TileWork, first: int) -> np.ndarray:
    """The DKM assignment rule: the softmax over the clusters of logits already over tau."""
    return ad.softmax_cluster_major(logits, 1, work.get("sample", logits.shape))


_soft_rule.takes = {}


def _tile_logits(kernel: ad.Logits, w, w_sq, rows, work: _TileWork) -> np.ndarray:
    """The (k, rows) logits tile of ``w[rows]``, in the work array ``logits``.

    ``w_sq`` (w's row norms) is None but for the euclidean metric, and
    ``tmp`` holds only that kernel's cross term, so later steps of the
    tile may reuse it.
    """
    shape = (kernel.c.shape[0], rows.stop - rows.start)
    return kernel.tile(
        w[rows], work.get("logits", shape), None if w_sq is None else w_sq[rows], work.get("tmp", shape)
    )


def _keeps(m: int, config: DkmConfig, itemsize: int) -> bool:
    """Whether a differentiable call keeps its passes' attention tiles: it is one tile and they fit.

    They fit when all passes' tiles take at most KEPT_BYTES. A call runs
    at least two passes, so at KEPT_BYTES = 2 * TILE_BYTES that alone
    makes the call one tile, which the loop and its backward rely on.
    """
    k = config.clusters
    fits = (config.max_iterations + 1) * m * k * itemsize <= KEPT_BYTES
    return fits and len(_row_tiles(m, k, itemsize)) == 1


class _Backward:
    """The VJP of each pass of a differentiable call, adding into ``gw``, the gradient of ``w``.

    One set of tile work arrays per tile worker, taken on the calling
    thread, serves every pass. ``blocks`` is ``_loop_backward``'s; a kept
    pass's block goes back to the free list once its VJP has run.
    """

    def __init__(self, w, k, tau, euclidean, tiles, rule, blocks):
        self.w, self.tau, self.euclidean, self.tiles = w, tau, euclidean, tiles
        self.rule, self.blocks = rule, blocks
        self.w_sq = (w * w).sum(axis=1) if euclidean else None
        self.gw = np.zeros_like(w)
        # the kernel's cross term and the attention gradient; the logits
        # wherever the tile is recomputed; the euclidean VJP's clamp mask;
        # and, on a replayed call, the rule's tile and arrays
        reserve = dict.fromkeys(("tmp", "ga"), w.dtype)
        if euclidean or blocks is None:
            reserve["logits"] = w.dtype
        if euclidean:
            reserve["clamp"] = bool
        if blocks is None:
            reserve.update({"sample": w.dtype, **rule.takes})
        self.works = _tile_works(k, tiles, reserve)

    def output_vjp(self, p, c, g):
        """Pass p, the output ``w_tilde = A c``: the gradient of ``c``, given g = d(loss)/d(w_tilde)."""
        g_c = np.zeros_like(c)
        # g_c takes, tile by tile, a @ g[rows] and then the logits term
        self._run(p, c, (g_c, g_c), g, None, None)
        return g_c

    def update_vjp(self, p, c, sums, c_next, g_next):
        """Pass p, the update ``c_next = autodiff.masked_mean(A^T w, sums, c)``.

        The gradient of ``c``, given ``g_next``, that of ``c_next``; None at
        p = 0, whose codebook is a constant.
        """
        g_weighted, g_sums, g_prev = ad.masked_mean_vjp(g_next, sums, c_next)
        g_c = None if p == 0 else np.zeros_like(c) + g_prev
        self._run(p, c, () if g_c is None else (g_c,), None, g_weighted, g_sums)
        return g_c

    def _run(self, p, c, totals, *grads):
        kernel = ad.Logits(c, self.tau, self.euclidean)
        _run_tiles(partial(self._tile, p, kernel, bool(totals), *grads), self.tiles, self.works, totals)
        if self.blocks is not None:  # a kept pass's attention is read once
            _give_back((self.blocks[p],))
            self.blocks[p] = None

    def _tile(self, p, kernel, need_c, g, g_weighted, g_sums, rows, work):
        # writes the tile's rows of gw; returns its terms of the gradient of c
        w, wr, c = self.w, self.w[rows], kernel.c
        logits = None
        if self.blocks is None:
            logits = _tile_logits(kernel, w, self.w_sq, rows, work)
            a = self.rule(logits, work, p * w.shape[0] + rows.start)
        else:  # the call's one tile; only the euclidean VJP reads its logits
            a = self.blocks[p].reshape(c.shape[0], w.shape[0])
            if self.euclidean:
                logits = _tile_logits(kernel, w, self.w_sq, rows, work)
        ga = work.get("ga", a.shape)
        if g is not None:
            gr = g[rows]
            ad.rows_dot(c, gr, out=ga)
        else:
            ad.rows_dot(g_weighted, wr, out=ga)
            ga += g_sums[:, None]
        # through the softmax over clusters of the logits (plus any noise),
        # a * (ga - sum_k ga a), ...
        ga -= np.multiply(ga, a, out=work.get("tmp", a.shape)).sum(axis=0)
        ga *= a
        terms = ()
        if g is not None:
            terms = (a @ gr,)
        else:
            self.gw[rows] += a.T @ g_weighted
        # ... to the rows and the centroids
        clamp = work.get("clamp", a.shape) if self.euclidean else None
        gw_rows, gc = kernel.vjp(ga, logits, wr, need_c, work.get("tmp", a.shape), clamp)
        self.gw[rows] += gw_rows
        return (*terms, gc)


def _loop_backward(w, codebooks, col_sums, tau, euclidean, tiles, rule, blocks):
    """Backward of the fused loop: the output pass's VJP, then each update's, last to first.

    The last pass is the output ``w_tilde = A C``; every earlier one, p,
    the update ``C' = autodiff.masked_mean(A^T w, col_sums[p], C)`` from
    ``codebooks[p]`` to ``codebooks[p + 1]``. Only ``w`` receives a
    gradient: the starting codebook is a constant.

    On a replayed call (``blocks`` None), every case but one tile kept,
    pass p recomputes each tile's logits and the rule's attention tile,
    with the ``first`` the forward pass gave the rule. A kept call is one
    tile: pass p reads its (k, m) attention from the flat ``blocks[p]``,
    and recomputes the logits only for the euclidean metric, whose VJP
    reads the root; the squared VJP reads no tile.
    """

    def backward(g):
        vjp = _Backward(w, codebooks[0].shape[0], tau, euclidean, tiles, rule, blocks)
        steps = len(col_sums)
        g_c = vjp.output_vjp(steps, codebooks[steps], g)
        for p in range(steps - 1, -1, -1):
            g_c = vjp.update_vjp(p, codebooks[p], col_sums[p], codebooks[p + 1], g_c)
        for work in vjp.works:
            work.release()
        return (vjp.gw,)

    return backward


def _cluster_loop(
    w,
    warm_start: Codebook | None,
    config: DkmConfig,
    seed: int,
    rule=_soft_rule,
    record_trajectory: bool = False,
    keep_attention: bool = True,
    soft_weights: bool = True,
) -> DkmResult:
    """The clustering loop of every assignment mode, and its only entry.

    ``w`` is a SubvectorMatrix (clustered as a differentiable leaf) or a
    graph Node of shape (count, dim). Before seeding, raises ResourceError
    when what the loop returns plus one tile exceeds physical memory:
    ``m * k * itemsize + TILE_BYTES`` with the (m, k) attention kept,
    ``m * (dim * itemsize + intp itemsize) + TILE_BYTES`` for the soft
    weights and the indices, and ``m * intp itemsize + TILE_BYTES`` for
    the indices alone (``soft_weights=False``). Besides the attention, the
    loop holds at most KEPT_BYTES that grow with m * k, whatever the
    assignment rule or the iteration count.
    The loop starts from ``warm_start``, which must be (2^bits, dim) and is
    copied, never aliased, or else from ``init_centroids(..., seed)``.

    ``rule(logits, work, first)`` maps a cluster-major (k, rows) tile of
    logits (``autodiff.Logits``: already over tau, so the rule runs at
    temperature 1) to its (k, rows) attention tile: the softmax for the
    soft rule, a Gumbel-softmax sample, a one-hot of the largest logit
    for hard. ``first = p *
    m + rows.start``, the tile's first row among the rows of passes 0, 1,
    ..., places a random rule's noise (the soft and hard rules ignore it).
    The rule writes the tile into the work array ``sample`` (``work.get``),
    valid until the next tile; only a softmax tile has a backward.
    ``rule.takes`` (name -> dtype) names any further work array the rule
    gets, so that each call reserves them all on the calling thread; the
    ``tmp`` array is free while the rule runs. Tiles run on any tile
    worker, each with its own work.

    Backward needs each pass's attention. A call that builds a tape node
    keeps it, one (k, m) block per pass, when it is one tile and all
    passes' blocks fit in KEPT_BYTES: (max_iterations + 1) * m * k *
    itemsize (``_keeps``). Otherwise backward recomputes them with the
    same ``first``. So the workloads reach three cases: one tile, kept (a
    training battery's layers); one tile, replayed (one full tile at
    k = 16); several tiles, replayed (large layers). The results are the
    same either way. Otherwise as ``dkm_forward`` describes.
    """
    if config is None:
        raise ParameterError("config is required")
    w_node = w if isinstance(w, Node) else ad.leaf(w.values)
    w = w_node.value
    m, d = w.shape
    k = config.clusters
    if d != config.dim:
        raise ShapeError(f"sub-vector dim {d} != config dim {config.dim}")
    if keep_attention and not soft_weights:
        raise ParameterError("keep_attention needs soft_weights: the attention is built with them")

    if keep_attention:
        per_row = k * w.itemsize
    else:
        per_row = np.dtype(np.intp).itemsize + (d * w.itemsize if soft_weights else 0)
    need = m * per_row + TILE_BYTES
    available = physical_memory_bytes()
    if available is not None and need > available:
        raise ResourceError(
            f"clustering {m} sub-vectors into {k} clusters needs about {need} bytes, "
            f"more than the {available} bytes of physical memory"
        )
    keep = soft_weights and w_node.requires_grad and _keeps(m, config, w.itemsize)

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
    blocks = [] if keep else None  # each pass's attention, on a kept call
    w_sq = None
    if euclidean:
        # w's row norms, for the root, a tile's rows at a time: no (m, dim)
        # temporary; the tape does not hold them, as an (m,) array it holds
        # can split the heap so that a later (m, k) array no longer fits
        # where the last one was
        w_sq = np.empty(m, w.dtype)
        for rows in tiles:
            np.sum(w[rows] * w[rows], axis=1, out=w_sq[rows])
    # the logits, the euclidean kernel's cross term, and the rule's tile and arrays
    works = _tile_works(k, tiles, {"logits": w.dtype, "tmp": w.dtype, "sample": w.dtype, **rule.takes})

    def attention_of(logits, rows, work):
        a = rule(logits, work, len(col_sums) * m + rows.start)
        if keep:  # a kept call's one tile runs on the calling thread
            blocks.append(_take(m * k, w.dtype))
            blocks[-1].reshape(k, m)[...] = a
        return a

    def tile_mass(rows, work):
        # kernel is rebound only after every tile of the pass has run
        a = attention_of(_tile_logits(kernel, w, w_sq, rows, work), rows, work)
        return a.sum(axis=1), a @ w[rows]

    codebooks = [c]
    col_sums = []
    delta = np.inf
    converged = False
    for it in range(1, config.max_iterations + 1):
        kernel = ad.Logits(c, tau, euclidean)
        sums = np.zeros(k, dtype=w.dtype)
        weighted = np.zeros((k, d), dtype=w.dtype)
        _run_tiles(tile_mass, tiles, works, (sums, weighted))
        # a NaN column sum poisons the iterate, which is reported here
        candidate = ad.masked_mean(weighted, sums, c)
        if not np.all(np.isfinite(candidate)):
            raise NumericError(f"non-finite centroids at iteration {it}")
        # np.linalg.norm's formula: a float32 root is the double root rounded
        step = (candidate - c).ravel()
        delta = float(w.dtype.type(math.sqrt(step.dot(step))))
        c = candidate
        codebooks.append(c)
        col_sums.append(sums)
        if config.epsilon > 0 and delta <= config.epsilon:
            converged = True
            break

    # the final pass: the nearest centroid of each row, its largest logit
    # (the rule may be noisy), then, unless only those are asked for, the
    # soft weights and the attention if kept
    attn = np.empty((m, k), dtype=w.dtype) if keep_attention else None
    w_tilde = np.empty((m, d), dtype=w.dtype) if soft_weights else None
    indices = np.empty(m, dtype=np.intp)
    cluster_ids = np.arange(k, dtype=w.dtype)
    kernel = ad.Logits(c, tau, euclidean)

    def final_tile(rows, work):
        logits = _tile_logits(kernel, w, w_sq, rows, work)
        indices[rows] = cluster_ids @ _nearest_one_hot(logits, work.get("tmp", logits.shape))
        if not soft_weights:
            return
        a = attention_of(logits, rows, work)
        # row-major either way, so w_tilde has the same bits with or without;
        # the logits are spent, so their buffer takes the attention
        tile = attn[rows] if keep_attention else work.get("logits", a.shape[::-1])
        tile[...] = a.T
        # straight into the output: a (rows, dim) temporary made on a pool
        # thread would stay in that thread's malloc arena
        np.matmul(tile, c, out=w_tilde[rows])

    _run_tiles(final_tile, tiles, works)
    for work in works:
        work.release()
    if attn is None:
        attn = np.broadcast_to(np.array(np.nan, w.dtype), (m, k))
    if soft_weights:
        backward = None
        if w_node.requires_grad:
            backward = _loop_backward(w, codebooks, col_sums, tau, euclidean, tiles, rule, blocks)
        w_tilde = Node(w_tilde, (w_node,), backward)

    return DkmResult(
        w_tilde=w_tilde,
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
    soft_weights: bool = True,
) -> DkmResult:
    """Run the soft clustering loop and return soft weights on the tape.

    ``w`` may be a SubvectorMatrix or an existing graph Node of shape
    (count, dim); a constant Node clusters without building a tape. Initial
    centroids come from ``warm_start`` (detached copy) or from
    ``init_centroids``; gradients flow through every executed iteration
    back to ``w`` but never across batches.

    The loop is one tape node, ``w_tilde``, which holds ``w``, each
    iteration's codebook and attention column sums, and, when they fit in
    KEPT_BYTES together, each pass's attention; otherwise the attention is
    recomputed tile by tile in backward. ``attention`` is a fresh (m, k)
    array filled tile by tile, which the tape does not hold; with
    ``keep_attention=False`` it is never built (see DkmResult), and a
    caller that only snaps uses ``indices``. With ``soft_weights=False``
    (which needs ``keep_attention=False``) the final pass stops at the
    indices: it runs no softmax, ``w_tilde`` is None and no tape node is
    built; the codebook, indices and telemetry are those of the default.
    Raises ResourceError before seeding when what the call returns and one
    tile cannot fit in physical memory, and NumericError naming the
    iteration whose centroids come out non-finite.
    """
    return _cluster_loop(
        w, warm_start, config, seed, record_trajectory=record_trajectory,
        keep_attention=keep_attention, soft_weights=soft_weights,
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
    generator = np.random.default_rng(seed)
    target = generator.standard_normal(w.values.shape)
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
