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
    DkmTelemetry,
    SubvectorMatrix,
    centroid_update,
    distance_matrix,
    loop_start,
)
from .errors import DataError, NumericError, ParameterError


def _values(x) -> np.ndarray:
    if isinstance(x, Node):
        return x.value
    if isinstance(x, SubvectorMatrix):
        return x.values
    if isinstance(x, Codebook):
        return x.centroids
    return np.asarray(x, dtype=np.float64)


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


def straight_through_reconstruct(w: Node, indices: np.ndarray, codebook: np.ndarray) -> Node:
    """Snap each sub-vector to its centroid, re-using centroid gradients.

    Forward value is codebook[indices]. Backward gives every sub-vector the
    gradient its centroid accumulated: the cluster-summed upstream gradient,
    which is how conventional shared-weight training updates members.
    """
    indices = np.asarray(indices)
    value = codebook[indices].astype(w.value.dtype)

    def backward(g):
        k = codebook.shape[0]
        onehot = np.zeros((indices.shape[0], k), dtype=g.dtype)
        onehot[np.arange(indices.shape[0]), indices] = 1.0
        return (onehot @ (onehot.T @ g),)

    return Node(value, (w,), backward)


def hard_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
) -> DkmResult:
    """Conventional iterative hard clustering, packaged like the soft loop.

    Alternates argmin assignment and per-cluster means (empty clusters keep
    their previous centroid) until the codebook moves at most epsilon or the
    iteration cap is hit, then emits straight-through snapped weights.
    """
    if config is None:
        raise ParameterError("config is required")
    # the tape holds only the snapped values: no (m, k) arrays
    w_node, centers = loop_start(w, warm_start, config, seed, lambda mk_bytes, grad: 0)
    values = w_node.value
    k = config.clusters

    delta = np.inf
    converged = False
    iterations = 0
    assign = None
    for it in range(1, config.max_iterations + 1):
        d2 = _pairwise_sq(values, centers)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centers[j] = values[members].mean(axis=0)
        delta = float(np.linalg.norm(new_centers - centers))
        centers = new_centers
        iterations = it
        if config.epsilon > 0 and delta <= config.epsilon:
            converged = True
            break

    d2 = _pairwise_sq(values, centers)
    assign = np.argmin(d2, axis=1)
    onehot = np.zeros((values.shape[0], k), dtype=values.dtype)
    onehot[np.arange(values.shape[0]), assign] = 1.0
    w_tilde = straight_through_reconstruct(w_node, assign, centers)

    return DkmResult(
        w_tilde=w_tilde,
        attention=onehot,
        codebook=Codebook(centers.copy()),
        telemetry=DkmTelemetry(iterations_used=iterations, final_delta=delta, converged=converged),
    )


# ---------------------------------------------------------------------------
# Gumbel-softmax assignment
# ---------------------------------------------------------------------------


def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    # inverse-CDF of the standard Gumbel from seeded uniforms
    u = rng.random(shape)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return -np.log(-np.log(u))


def gumbel_attention(dist, temperature: float, seed: int, draws: int = 1) -> np.ndarray:
    """Stochastic soft assignments: softmax((d + gumbel) / tau) per draw.

    Averaging several independent draws keeps rows stochastic while cutting
    the sampling variance.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    d = _values(dist)
    rng = np.random.default_rng(seed)
    acc = np.zeros_like(d)
    for _ in range(draws):
        z = (d + _gumbel(rng, d.shape)) / temperature
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        acc += e / e.sum(axis=1, keepdims=True)
    return acc / draws


def gumbel_attention_node(dist: Node, temperature: float, rng: np.random.Generator, draws: int = 1) -> Node:
    """Tape version of gumbel_attention; gradients flow through the softmax."""
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    total = None
    for _ in range(draws):
        noise = ad.constant(_gumbel(rng, dist.shape).astype(dist.value.dtype), checked=False)
        sample = ad.row_softmax(ad.add(dist, noise), temperature)
        total = sample if total is None else ad.add(total, sample)
    return ad.scalar_mul(total, 1.0 / draws) if draws > 1 else total


def gumbel_forward(
    w,
    warm_start: Codebook | None = None,
    config: DkmConfig | None = None,
    seed: int = 0,
    draws: int = 1,
    init_seed: int | None = None,
) -> DkmResult:
    """The iterative clustering loop with Gumbel-softmax attention.

    ``seed`` drives the noise draws; ``init_seed`` (defaulting to it) drives
    centroid seeding when no warm start is given. Raises ResourceError
    before seeding when the loop's (m, k) arrays cannot fit in memory, and
    NumericError naming the iteration whose centroids come out non-finite.
    """
    if config is None:
        raise ParameterError("config is required")
    # (m, k) tape arrays per step: the distances; per draw the noise, the
    # noisy logits and their softmax; and, over several draws, their running
    # sums and mean. Every step stays on the tape of a differentiable input;
    # a constant one holds a single step at a time.
    arrays = 1 + 3 * draws + (draws if draws > 1 else 0)

    def need_bytes(mk_bytes: int, differentiable: bool) -> int:
        steps = config.max_iterations + 1 if differentiable else 1
        return steps * arrays * mk_bytes

    w_node, start = loop_start(w, warm_start, config, seed if init_seed is None else init_seed, need_bytes)
    rng = np.random.default_rng(seed)

    c_node = ad.constant(start, checked=False)
    delta = np.inf
    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        dist = distance_matrix(w_node, c_node, config.metric)
        attn = gumbel_attention_node(dist, config.temperature, rng, draws)
        candidate = centroid_update(attn, w_node, prev=c_node)
        if not np.all(np.isfinite(candidate.value)):
            raise NumericError(f"non-finite centroids at iteration {it}")
        delta = float(np.linalg.norm(candidate.value - c_node.value))
        c_node = candidate
        iterations = it
        if config.epsilon > 0 and delta <= config.epsilon:
            converged = True
            break

    final_attn = gumbel_attention_node(
        distance_matrix(w_node, c_node, config.metric), config.temperature, rng, draws
    )
    w_tilde = ad.matmul(final_attn, c_node)
    return DkmResult(
        w_tilde=w_tilde,
        attention=final_attn.value.copy(),
        codebook=Codebook(c_node.value.copy()),
        telemetry=DkmTelemetry(iterations_used=iterations, final_delta=delta, converged=converged),
    )


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
    if points.shape[0] < k:
        raise DataError(f"need at least {k} points for {k} clusters, got {points.shape[0]}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    centers[0] = points[rng.integers(points.shape[0])]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = rng.integers(points.shape[0]) if total <= 0 else rng.choice(points.shape[0], p=d2 / total)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))

    n = points.shape[0]
    assign = None
    trace: list[float] = []
    for _ in range(max_iter):
        dist2 = _pairwise_sq(points, centers)
        new_assign = np.argmin(dist2, axis=1)
        trace.append(float(dist2[np.arange(n), new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
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
