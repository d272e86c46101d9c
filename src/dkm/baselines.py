"""Reference and ablation assignment schemes.

Three alternatives to temperature-softmax attention (hard argmin with
straight-through gradients, Gumbel-softmax sampling, classic Lloyd
k-means) plus a fixed-variance Gaussian-mixture EM step. With squared
distances, variance tau/2 and uniform mixing, the EM responsibilities and
M-step reproduce the soft-clustering loop exactly, which makes the EM
implementation here the numerical oracle for it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .core import (
    EMPTY_CLUSTER_THRESHOLD,
    Codebook,
    DkmConfig,
    DkmResult,
    _TileWork,
    _cluster_loop,
    _nearest_one_hot,
    _values,
    kmeans_pp,
)
from .errors import DataError, ParameterError, check_fields, integer


# ---------------------------------------------------------------------------
# hard assignment
# ---------------------------------------------------------------------------


def _hard_rule(logits: np.ndarray, work: _TileWork, first: int) -> np.ndarray:
    # the one-hot attention tile of the largest logits, the nearest
    # centroids, so centroids become cluster means
    return _nearest_one_hot(logits, work.get("sample", logits.shape))


_hard_rule.takes = {}


def straight_through_reconstruct(w: Node, indices: np.ndarray, codebook: np.ndarray) -> Node:
    """Snap each sub-vector to its centroid, re-using centroid gradients.

    Forward value is codebook[indices]. Backward gives every sub-vector the
    gradient its centroid accumulated: the cluster-summed upstream gradient,
    which is how conventional shared-weight training updates members.
    """
    indices = np.asarray(indices)
    value = codebook[indices].astype(w.value.dtype)

    def backward(g):
        sums = np.zeros((codebook.shape[0], g.shape[1]), dtype=g.dtype)
        np.add.at(sums, indices, g)
        return (sums[indices],)

    return Node(value, (w,), backward)


def hard_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
) -> DkmResult:
    """Conventional iterative hard clustering, packaged like the soft loop.

    The shared clustering loop with one-hot attention: argmax assignment
    and per-cluster means (empty clusters keep their previous centroid)
    until the codebook moves at most epsilon or the iteration cap is hit.
    Emits straight-through snapped weights at the result's ``indices``; the
    loop itself builds no tape, no (m, k) attention and no soft weights (it
    runs with ``soft_weights=False``, so the pre-flight counts the indices
    and one tile): ``attention`` is the placeholder of
    ``dkm_forward(..., keep_attention=False)``.
    """
    w_node = w if isinstance(w, Node) else ad.leaf(w.values)
    res = _cluster_loop(
        ad.constant(w_node.value, checked=False), warm_start, config, seed, _hard_rule,
        keep_attention=False, soft_weights=False,
    )
    res.w_tilde = straight_through_reconstruct(w_node, res.indices, res.codebook.centroids)
    return res


# ---------------------------------------------------------------------------
# Gumbel-softmax assignment
# ---------------------------------------------------------------------------


def gumbel_sample(
    dist: np.ndarray, temperature, rng: np.random.Generator, work: _TileWork | None = None
) -> np.ndarray:
    """A Gumbel-softmax sample of a cluster-major (k, rows) distance tile.

    softmax((dist + g) / tau) over the clusters, with fresh standard Gumbel
    noise g: seeded uniforms from ``rng``, drawn as (rows, k) row major,
    through the inverse CDF. Its columns are the Gumbel attention. With
    ``work``, which must reserve ``noise`` (float64) and ``sample``, the
    noise and the sample are written into its arrays (the clustering
    loop's reuse); without, into fresh ones.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if work is None:  # the arrays gumbel_forward's rule declares
        work = _TileWork(dist.size, {"noise": np.float64, "sample": dist.dtype})
    # log(-log(u)) in place, then dist minus it: the operations of
    # dist - np.log(-np.log(np.clip(u, ...))) in their order, so the
    # random stream and the bits are those of fresh arrays
    u = rng.random(out=work.get("noise", dist.shape[::-1]))
    # np.clip(u, 1e-300, 1 - 1e-16) without its Python wrapper
    np.minimum(u, 1.0 - 1e-16, out=u)
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    y = np.subtract(dist, u.T, out=work.get("sample", dist.shape), dtype=dist.dtype)
    return ad.softmax_cluster_major(y, temperature, out=y)


def gumbel_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
    init_seed: int | None = None,
) -> DkmResult:
    """The clustering loop with Gumbel-softmax attention.

    The attention is softmax((dist + tau * g) / tau) over the clusters, with
    standard Gumbel noise g added to the logits dist / tau (Jang et al.,
    arXiv 1611.01144): its hard draw takes cluster j with the soft loop's
    attention softmax(dist / tau)_j, and tau sets both. ``seed`` (an
    integer >= 0) drives the noise: each tile draws where a
    run of every tile in order would in ``default_rng(seed)``'s stream, one
    64-bit PCG64 output per uniform, so tiles run on every tile worker
    with the same results. ``init_seed`` (defaulting to ``seed``) drives
    centroid seeding when no warm start is given. The loop is one tape
    node, like the soft one: backward reads the passes' attention tiles
    where they fit in ``core.KEPT_BYTES`` together, and otherwise redraws
    them.
    ``indices`` are the nearest centroids, not the argmax of a noisy
    sample. No (m, k) attention is built: the result is that of
    ``dkm_forward(..., keep_attention=False)``, as are the ResourceError
    raised before seeding and the NumericError naming the iteration whose
    centroids come out non-finite.
    """
    check_fields(seed=integer(seed, 0))
    places = {}  # thread id -> its generator and the uniforms drawn from it

    def rule(logits, work, first):
        # a tile draws after the first * k uniforms of the tiles before
        at, thread = first * logits.shape[0], threading.get_ident()
        generator, drawn = places.pop(thread, None) or (np.random.default_rng(seed), 0)
        if drawn != at:  # the period is 2**128: going back is going round
            generator.bit_generator.advance((at - drawn) % (1 << 128))
        # the noise goes on the logits, already over tau: softmax((dist + tau * g) / tau)
        sample = gumbel_sample(logits, 1, generator, work)
        places[thread] = generator, at + logits.size
        return sample

    rule.takes = {"noise": np.float64}
    init = seed if init_seed is None else init_seed
    return _cluster_loop(w, warm_start, config, init, rule, keep_attention=False)


# ---------------------------------------------------------------------------
# Lloyd k-means
# ---------------------------------------------------------------------------


@dataclass
class LloydResult:
    codebook: Codebook
    assignments: np.ndarray
    objective: float
    objective_trace: list[float]


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances by direct differences, one coordinate at a time.

    Deliberately not the |w|^2 + |c|^2 - 2 w.c expansion of the soft loop,
    so the baselines stay an independent check on it.
    """
    out = np.subtract(points[:, 0, None], centers[:, 0])
    out *= out
    diff = np.empty_like(out) if points.shape[1] > 1 else None
    for j in range(1, points.shape[1]):
        np.subtract(points[:, j, None], centers[:, j], out=diff)
        diff *= diff
        out += diff
    return out


def lloyd_kmeans(w, k: int, seed: int = 0, max_iter: int = 100) -> LloydResult:
    """Classic Lloyd iterations from D^2-weighted seeding.

    The sum-of-squared-distances objective is recorded after every
    assignment step; it never increases.
    """
    points = _values(w)
    n = points.shape[0]
    if n < k:
        raise DataError(f"need at least {k} points for {k} clusters, got {n}")
    centers = kmeans_pp(points, k, np.random.default_rng(seed))

    assign = None
    trace: list[float] = []
    for _ in range(max_iter):
        dist2 = _pairwise_sq(points, centers)
        new_assign = np.argmin(dist2, axis=1)
        trace.append(float(dist2[np.arange(n), new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        occupied = counts > 0
        for j in range(points.shape[1]):
            sums = np.bincount(assign, weights=points[:, j], minlength=k)
            centers[occupied, j] = sums[occupied] / counts[occupied]
    else:
        # cap reached after a center update: re-derive consistent assignments
        dist2 = _pairwise_sq(points, centers)
        assign = np.argmin(dist2, axis=1)
        trace.append(float(dist2[np.arange(n), assign].sum()))

    return LloydResult(Codebook(centers), assign, trace[-1], trace)


# ---------------------------------------------------------------------------
# EM for a fixed-variance spherical Gaussian mixture
# ---------------------------------------------------------------------------


@dataclass
class GmmState:
    """Uniformly-mixed spherical GMM with frozen variance.

    Only the centers move during EM; mixing weights stay 1/k and the
    variance stays fixed, so the M step is a responsibility-weighted mean.
    """

    centers: np.ndarray
    variance: float

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.variance <= 0:
            raise ParameterError(f"variance must be > 0, got {self.variance}")


def em_gmm_step(w, state: GmmState) -> tuple[np.ndarray, np.ndarray, float]:
    """One E+M step; returns (responsibilities, new centers, log-likelihood).

    Densities are evaluated in log space so variances as small as 1e-6
    survive: log N(w_i | c_j) = -d/2 log(2 pi s^2) - ||w_i - c_j||^2 / (2 s^2).
    """
    points = _values(w)
    centers = state.centers
    n, d = points.shape
    k = centers.shape[0]
    s2 = state.variance

    # one (n, k) buffer walks from squared distance to responsibilities
    resp = _pairwise_sq(points, centers)
    resp /= 2.0 * s2
    np.subtract(-0.5 * d * np.log(2.0 * np.pi * s2), resp, out=resp)  # log density
    row_max = resp.max(axis=1, keepdims=True)
    resp -= row_max
    np.exp(resp, out=resp)
    row_sums = resp.sum(axis=1, keepdims=True)
    resp /= row_sums

    new_centers = centers.copy()
    for j in range(k):
        mass = resp[:, j].sum()
        if mass >= EMPTY_CLUSTER_THRESHOLD:
            new_centers[j] = (resp[:, j, None] * points).sum(axis=0) / mass

    # log P(W | C) under uniform mixing: the row-wise logsumexp of the log
    # densities is row_max + log(row_sums)
    log_lik = float(np.sum(row_max[:, 0] + np.log(row_sums[:, 0])) - n * np.log(k))
    return resp, new_centers, log_lik


def gmm_log_likelihood(w, centers: np.ndarray, variance: float) -> float:
    """log P(W | C) for the fixed-variance uniform mixture."""
    _, _, ll = em_gmm_step(w, GmmState(centers, variance))
    return ll
