"""Reference and ablation assignment schemes.

Three alternatives to temperature-softmax attention (hard argmin with
straight-through gradients, Gumbel-softmax sampling, classic Lloyd
k-means) plus a fixed-variance Gaussian-mixture EM step. With squared
distances, variance tau/2 and uniform mixing, the EM responsibilities and
M-step reproduce the soft-clustering loop exactly, which makes the EM
implementation here the numerical oracle for it.
"""

from __future__ import annotations

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
from .errors import DataError, ParameterError


# ---------------------------------------------------------------------------
# hard assignment
# ---------------------------------------------------------------------------


def hard_attention(dist) -> np.ndarray:
    """One-hot rows at the nearest centroid (largest negated distance).

    Ties go to the lowest index. Not differentiable; training uses the
    straight-through rule below.
    """
    d = _values(dist)
    out = np.zeros_like(d)
    out[np.arange(d.shape[0]), np.argmax(d, axis=1)] = 1.0
    return out


def _hard_rule(dist: np.ndarray, tau, work: _TileWork) -> tuple[np.ndarray]:
    # one one-hot sample per (k, rows) tile, so centroids become cluster means
    return (_nearest_one_hot(dist, work.get("sample0", dist.shape, dist.dtype)),)


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
    loop itself builds no tape, and no (m, k) attention: ``attention`` is
    the placeholder of ``dkm_forward(..., keep_attention=False)``.
    """
    w_node = w if isinstance(w, Node) else ad.leaf(w.values)
    res = _cluster_loop(
        ad.constant(w_node.value, checked=False), warm_start, config, seed, _hard_rule, keep_attention=False
    )
    res.w_tilde = straight_through_reconstruct(w_node, res.indices, res.codebook.centroids)
    return res


# ---------------------------------------------------------------------------
# Gumbel-softmax assignment
# ---------------------------------------------------------------------------


def gumbel_samples(
    dist: np.ndarray, temperature, rng: np.random.Generator, draws: int = 1, work: _TileWork | None = None
):
    """Gumbel-softmax samples of a cluster-major (k, rows) distance tile.

    A list of ``draws`` tiles softmax((dist + g) / tau) over the clusters,
    each with fresh standard Gumbel noise g: seeded uniforms from ``rng``,
    drawn as (rows, k) row major, through the inverse CDF. Their mean is
    the Gumbel attention: stochastic columns whose sampling variance falls
    as draws are averaged. With ``work``, the noise and the samples are
    written into its arrays (the clustering loop's reuse); without, into
    fresh ones.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if work is None:
        work = _TileWork(dist.size)

    def sample(i):
        # log(-log(u)) in place, then dist minus it: the operations of
        # dist - np.log(-np.log(np.clip(u, ...))) in their order, so the
        # random stream and the bits are those of fresh arrays
        u = rng.random(out=work.get("noise", dist.shape[::-1], np.float64))
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        y = np.subtract(dist, u.T, out=work.get(f"sample{i}", dist.shape, dist.dtype), dtype=dist.dtype)
        return ad.softmax_cluster_major(y, temperature, out=y)

    return [sample(i) for i in range(draws)]


def gumbel_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
    draws: int = 1,
    init_seed: int | None = None,
) -> DkmResult:
    """The clustering loop with Gumbel-softmax attention.

    ``seed`` (>= 0) drives the noise draws; ``init_seed`` (defaulting to
    it) drives centroid seeding when no warm start is given. The loop is one
    tape node, like the soft one: backward replays each pass's noise from
    the generator state saved at its start. ``indices`` are the nearest
    centroids, not the argmax of a noisy sample. No (m, k) attention is
    built: the result is that of ``dkm_forward(..., keep_attention=False)``,
    as are the ResourceError raised before seeding and the NumericError
    naming the iteration whose centroids come out non-finite.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def rule(dist, tau, work):
        return gumbel_samples(dist, tau, rng, draws, work)

    init = seed if init_seed is None else init_seed
    return _cluster_loop(w, warm_start, config, init, rule, rng, keep_attention=False)


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
