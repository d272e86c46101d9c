import functools
import itertools
import multiprocessing
import sys
import threading
from collections import OrderedDict

from dataclasses import replace

import numpy as np
import pytest

from dkm import autodiff as ad
from dkm import baselines, core
from dkm.core import Codebook, DkmConfig, SubvectorMatrix
from dkm.errors import DataError, NumericError, ParameterError, ResourceError, ShapeError

from helpers import central_diff, pairwise_sq_dists, rel_err


def subvectors(values) -> SubvectorMatrix:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    return SubvectorMatrix(values, values.size)


# ---------------------------------------------------------------------------
# config and containers
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = DkmConfig(bits=4)
    assert cfg.epsilon == 1e-4
    assert cfg.max_iterations == 5
    assert cfg.clusters == 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bits": 0},
        {"bits": 17},
        {"bits": 2, "dim": 0},
        {"bits": 2, "temperature": 0.0},
        {"bits": 2, "epsilon": -1e-9},
        {"bits": 2, "max_iterations": 0},
        {"bits": 2, "metric": "manhattan"},
        {"bits": 2, "init": "zeros"},
        {"bits": 2.5},
        {"bits": True},
        {"bits": 2, "dim": 1.5},
        {"bits": 2, "max_iterations": 2.5},
        {"bits": 2, "temperature": True},
        {"bits": 2, "temperature": float("nan")},
        {"bits": 2, "epsilon": "0"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ParameterError):
        DkmConfig(**kwargs)


def test_config_reports_every_bad_field_at_once():
    with pytest.raises(ParameterError) as info:
        DkmConfig(bits=2.5, dim=0, temperature=-1.0, metric="manhattan")
    assert set(info.value.fields) == {"bits", "dim", "temperature", "metric"}
    assert "bits must be an integer, got 2.5" in str(info.value)
    assert "dim must be >= 1, got 0" in str(info.value)


def test_subvector_matrix_bookkeeping():
    sub = SubvectorMatrix(np.array([[1.0, 2.0], [3.0, 0.0]]), original_length=3, pad_count=1)
    assert sub.count == 2 and sub.dim == 2
    np.testing.assert_array_equal(sub.flatten(), [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        SubvectorMatrix(np.zeros((2, 2)), original_length=5, pad_count=1)
    with pytest.raises(ShapeError):
        SubvectorMatrix(np.zeros((2, 2)), original_length=2, pad_count=2)


def test_containers_refuse_other_ranks_and_non_finite_centroids():
    with pytest.raises(ShapeError, match=r"subvectors must be 2-D, got shape \(4,\)"):
        SubvectorMatrix(np.zeros(4), original_length=4)
    with pytest.raises(ShapeError, match=r"codebook must be 2-D, got shape \(4,\)"):
        Codebook(np.zeros(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="codebook contains NaN or Inf"):
            Codebook(np.array([[0.0], [bad]]))


def test_loop_refuses_a_missing_config_and_another_dim():
    w = subvectors(np.arange(8.0))
    with pytest.raises(ParameterError, match="config is required"):
        core.dkm_forward(w)
    with pytest.raises(ShapeError, match="sub-vector dim 1 != config dim 2"):
        core.dkm_forward(w, config=DkmConfig(bits=2, dim=2))


# ---------------------------------------------------------------------------
# init_centroids
# ---------------------------------------------------------------------------


def test_random_sample_with_k_equal_count_uses_all_points():
    w = subvectors([3.0, 1.0, 4.0, 1.5])
    cfg = DkmConfig(bits=2, init=core.RANDOM_SAMPLE)
    book = core.init_centroids(w, cfg, seed=9)
    # mirror the documented draw protocol
    idx = np.random.default_rng(9).choice(4, size=4, replace=False)
    np.testing.assert_array_equal(book.centroids, w.values[idx])
    assert sorted(book.centroids.ravel().tolist()) == [1.0, 1.5, 3.0, 4.0]


def test_kmeans_pp_forced_second_seed():
    w = subvectors([0.0, 10.0])
    cfg = DkmConfig(bits=1, init=core.KMEANS_PP)
    for seed in range(5):
        book = core.init_centroids(w, cfg, seed=seed)
        assert sorted(book.centroids.ravel().tolist()) == [0.0, 10.0]


def test_kmeans_pp_on_identical_points_draws_uniformly():
    points = np.full((8, 2), 2.5)
    generator = np.random.default_rng(5)
    np.testing.assert_array_equal(core.kmeans_pp(points, 4, generator), points[:4])
    # every distance is zero: each seed after the first is integers(count), not choice(p=...)
    ref = np.random.default_rng(5)
    for _ in range(4):
        ref.integers(8)
    assert generator.integers(2**62) == ref.integers(2**62)


def test_kmeans_pp_matches_scripted_reference():
    rng = np.random.default_rng(123)
    points = rng.uniform(-3, 3, 64)
    w = subvectors(points)
    cfg = DkmConfig(bits=2, init=core.KMEANS_PP)
    seed = 321
    book = core.init_centroids(w, cfg, seed=seed)

    # independent re-implementation: naive loops, same documented rng protocol
    ref_rng = np.random.default_rng(seed)
    chosen = [float(points[ref_rng.integers(64)])]
    for _ in range(3):
        d2 = np.array([min((p - c) ** 2 for c in chosen) for p in points])
        if d2.sum() <= 0:
            idx = ref_rng.integers(64)
        else:
            idx = ref_rng.choice(64, p=d2 / d2.sum())
        chosen.append(float(points[idx]))

    np.testing.assert_allclose(book.centroids.ravel(), chosen, atol=0)


def test_init_requires_enough_subvectors():
    w = subvectors([1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        core.init_centroids(w, DkmConfig(bits=2), seed=0)


def test_init_is_deterministic():
    rng = np.random.default_rng(5)
    w = subvectors(rng.normal(size=32))
    for init in core.INITS:
        cfg = DkmConfig(bits=3, init=init)
        a = core.init_centroids(w, cfg, seed=77).centroids
        b = core.init_centroids(w, cfg, seed=77).centroids
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# distance_matrix
# ---------------------------------------------------------------------------


def test_distance_matrix_scalar_case():
    d = core.distance_matrix(subvectors([1.0]), Codebook(np.array([[3.0]])))
    np.testing.assert_allclose(d.value, [[-4.0]], atol=1e-12)


def test_distance_matrix_zero_at_coincident_points():
    w = subvectors(np.array([[1.0, 2.0], [0.5, -0.5]]))
    c = Codebook(np.array([[1.0, 2.0], [3.0, 3.0]]))
    d = core.distance_matrix(w, c)
    assert d.value[0, 0] == 0.0
    assert np.all(d.value <= 0.0)


def test_distance_matrix_against_bruteforce():
    rng = np.random.default_rng(21)
    w = rng.uniform(-2, 2, (8, 2))
    c = rng.uniform(-2, 2, (4, 2))
    d = core.distance_matrix(SubvectorMatrix(w, w.size), Codebook(c))
    np.testing.assert_allclose(d.value, -pairwise_sq_dists(w, c), atol=1e-12)


def test_distance_matrix_euclidean_is_sqrt_of_squared():
    rng = np.random.default_rng(22)
    w = SubvectorMatrix(rng.uniform(-2, 2, (6, 3)), 18)
    c = Codebook(rng.uniform(-2, 2, (4, 3)))
    sq = core.distance_matrix(w, c, core.SQUARED_EUCLIDEAN).value
    eu = core.distance_matrix(w, c, core.EUCLIDEAN).value
    np.testing.assert_allclose(eu, -np.sqrt(-sq), atol=1e-12)


def test_distance_matrix_dim_mismatch():
    with pytest.raises(ShapeError):
        core.distance_matrix(
            SubvectorMatrix(np.ones((4, 2)), 8), Codebook(np.ones((2, 3)))
        )


def test_distance_matrix_rejects_unknown_metric():
    with pytest.raises(ParameterError):
        core.distance_matrix(subvectors([1.0]), Codebook(np.array([[1.0]])), "cosine")


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_equidistant_centroids():
    w = subvectors([1.0])
    c = Codebook(np.array([[0.0], [2.0]]))
    a = core.attention(core.distance_matrix(w, c), temperature=0.7)
    np.testing.assert_allclose(a.value, [[0.5, 0.5]], atol=1e-15)


def test_attention_closed_form():
    dist = ad.constant([[-1.0, -9.0]])
    a = core.attention(dist, temperature=4.0)
    expected = np.array([[1.0, np.exp(-2.0)]]) / (1.0 + np.exp(-2.0))
    np.testing.assert_allclose(a.value, expected, atol=1e-12)
    np.testing.assert_allclose(a.value, [[0.8808, 0.1192]], atol=1e-4)


def test_attention_matches_em_responsibilities():
    rng = np.random.default_rng(31)
    tau = 0.5
    w = SubvectorMatrix(rng.normal(size=(20, 2)), 40)
    c = Codebook(rng.normal(size=(4, 2)))
    a = core.attention(core.distance_matrix(w, c), temperature=tau)
    resp, _, _ = baselines.em_gmm_step(w, baselines.GmmState(c.centroids, tau / 2.0))
    np.testing.assert_allclose(a.value, resp, atol=1e-10)


def test_attention_argmax_is_nearest_centroid():
    rng = np.random.default_rng(32)
    w = rng.uniform(-1, 1, (40, 3))
    c = rng.uniform(-1, 1, (8, 3))
    dist = core.distance_matrix(SubvectorMatrix(w, w.size), Codebook(c))
    a = core.attention(dist, temperature=0.3)
    d2 = pairwise_sq_dists(w, c)
    gaps = np.partition(d2, 1, axis=1)
    clear = (gaps[:, 1] - gaps[:, 0]) > 1e-9
    assert clear.any()
    np.testing.assert_array_equal(
        np.argmax(a.value[clear], axis=1), np.argmin(d2[clear], axis=1)
    )


# ---------------------------------------------------------------------------
# centroid_update
# ---------------------------------------------------------------------------


def test_centroid_update_onehot_gives_cluster_means():
    rng = np.random.default_rng(41)
    w = rng.normal(size=(12, 2))
    labels = rng.integers(0, 3, 12)
    labels[:3] = [0, 1, 2]  # every cluster occupied
    a = np.zeros((12, 3))
    a[np.arange(12), labels] = 1.0

    got = core.centroid_update(ad.constant(a), ad.constant(w)).value
    for j in range(3):
        np.testing.assert_allclose(got[j], w[labels == j].mean(axis=0), atol=1e-12)


def test_centroid_update_uniform_gives_global_mean():
    rng = np.random.default_rng(42)
    w = rng.normal(size=(10, 2))
    a = np.full((10, 4), 0.25)
    got = core.centroid_update(ad.constant(a), ad.constant(w)).value
    np.testing.assert_allclose(got, np.tile(w.mean(axis=0), (4, 1)), atol=1e-12)


def test_centroid_update_matches_naive_weighted_means():
    rng = np.random.default_rng(43)
    w = rng.normal(size=(15, 3))
    raw = rng.uniform(0.05, 1.0, (15, 4))
    a = raw / raw.sum(axis=1, keepdims=True)

    got = core.centroid_update(ad.constant(a), ad.constant(w)).value
    expected = np.zeros((4, 3))
    for j in range(4):
        num = np.zeros(3)
        den = 0.0
        for i in range(15):
            num += a[i, j] * w[i]
            den += a[i, j]
        expected[j] = num / den
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_centroid_update_empty_cluster_keeps_previous():
    w = ad.constant(np.array([[1.0], [3.0]]))
    a = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))  # cluster 1 empty
    prev = ad.constant(np.array([[0.0], [42.0]]))
    got = core.centroid_update(a, w, prev=prev).value
    np.testing.assert_allclose(got, [[2.0], [42.0]], atol=1e-12)


def test_centroid_update_empty_cluster_without_prev_is_zero():
    w = ad.constant(np.array([[1.0], [3.0]]))
    a = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))  # cluster 1 empty
    got = core.centroid_update(a, w).value
    np.testing.assert_array_equal(got, [[2.0], [0.0]])


@pytest.mark.parametrize("shape", [(1, 2), (4, 2), (3, 1)])
def test_centroid_update_rejects_wrong_prev_shape_with_every_cluster_occupied(shape):
    a = np.full((6, 3), 1.0 / 3.0)
    w = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ShapeError):
        core.centroid_update(ad.constant(a), ad.constant(w), prev=ad.constant(np.zeros(shape)))


def test_centroid_update_gradient_matches_finite_differences_with_an_empty_cluster():
    rng = np.random.default_rng(44)
    w0 = rng.normal(size=(7, 2))
    a0 = rng.uniform(0.05, 1.0, (7, 4))
    a0[:, 2] = 0.0  # cluster 2 is empty and keeps its row of prev
    p0 = rng.normal(size=(4, 2))
    t = rng.normal(size=(4, 2))
    live = [0, 1, 3]

    def f(av, wv, pv):
        out = core.centroid_update(ad.constant(av), ad.constant(wv), prev=ad.constant(pv)).value
        return float(np.sum(out * t))

    def f_live(v):
        # any step off zero would fill the empty cluster: vary the others only
        full = a0.copy()
        full[:, live] = v
        return f(full, w0, p0)

    a, w, prev = ad.leaf(a0), ad.leaf(w0), ad.leaf(p0)
    ad.backward(ad.sum_all(ad.mul(core.centroid_update(a, w, prev=prev), ad.constant(t))))
    assert rel_err(a.grad[:, live], central_diff(f_live, a0[:, live])) <= 1e-7
    assert rel_err(w.grad, central_diff(lambda v: f(a0, v, p0), w0)) <= 1e-7
    assert rel_err(prev.grad, central_diff(lambda v: f(a0, w0, v), p0)) <= 1e-7
    # the empty cluster's output is prev's row: its attention mass gets nothing
    np.testing.assert_array_equal(a.grad[:, 2], 0.0)
    np.testing.assert_array_equal(prev.grad[live], 0.0)


# ---------------------------------------------------------------------------
# dkm_forward
# ---------------------------------------------------------------------------


def test_forward_fixed_point_converges_in_one_iteration():
    w = subvectors([0.0, 1.0, 4.0, 9.0])
    cfg = DkmConfig(bits=2, temperature=0.01)
    warm = Codebook(w.values.copy())
    res = core.dkm_forward(w, warm_start=warm, config=cfg, seed=0)
    assert res.telemetry.iterations_used == 1
    assert res.telemetry.converged
    assert res.telemetry.final_delta <= cfg.epsilon
    np.testing.assert_allclose(res.w_tilde.value, w.values, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_final_delta_is_the_norm_of_the_last_step(dtype):
    values = np.random.default_rng(124).normal(size=(3000, 2)).astype(dtype)
    cfg = DkmConfig(bits=3, dim=2, temperature=0.1, epsilon=0.0)
    res = core.dkm_forward(
        ad.constant(values), config=cfg, seed=1, record_trajectory=True, keep_attention=False
    )
    assert res.trajectory[-1].dtype == dtype
    assert res.telemetry.final_delta == float(np.linalg.norm(res.trajectory[-1] - res.trajectory[-2]))


def test_forward_high_temperature_collapses_to_mean():
    rng = np.random.default_rng(51)
    w = subvectors(rng.uniform(-1, 1, 24))
    cfg = DkmConfig(bits=2, temperature=1e6, epsilon=0.0, max_iterations=3)
    res = core.dkm_forward(w, config=cfg, seed=1)
    np.testing.assert_allclose(res.w_tilde.value, np.full_like(w.values, w.values.mean()), atol=1e-4)


def test_forward_trajectory_matches_em_oracle():
    rng = np.random.default_rng(52)
    tau = 0.5
    w = subvectors(rng.normal(size=32))
    cfg = DkmConfig(bits=2, temperature=tau, epsilon=0.0, max_iterations=5, init=core.KMEANS_PP)
    res = core.dkm_forward(w, config=cfg, seed=7, record_trajectory=True)
    assert len(res.trajectory) == 6  # init + 5 iterations

    centers = res.trajectory[0]
    for step in range(1, 6):
        _, centers, _ = baselines.em_gmm_step(w, baselines.GmmState(centers, tau / 2.0))
        np.testing.assert_allclose(res.trajectory[step], centers, atol=1e-8)
        centers = res.trajectory[step]  # stay on the dkm trajectory


def test_forward_gmm_log_likelihood_is_nondecreasing():
    rng = np.random.default_rng(53)
    tau = 0.3
    w = subvectors(rng.normal(size=40))
    cfg = DkmConfig(bits=3, temperature=tau, epsilon=0.0, max_iterations=5)
    res = core.dkm_forward(w, config=cfg, seed=3, record_trajectory=True)
    lls = [baselines.gmm_log_likelihood(w, c, tau / 2.0) for c in res.trajectory]
    for prev, nxt in zip(lls, lls[1:]):
        assert nxt >= prev - 1e-9


def test_forward_is_deterministic():
    rng = np.random.default_rng(54)
    w = subvectors(rng.normal(size=(16, 2)))
    cfg = DkmConfig(bits=2, dim=2, temperature=0.4)
    a = core.dkm_forward(w, config=cfg, seed=11)
    b = core.dkm_forward(w, config=cfg, seed=11)
    assert np.array_equal(a.w_tilde.value, b.w_tilde.value)
    assert np.array_equal(a.attention, b.attention)
    assert np.array_equal(a.codebook.centroids, b.codebook.centroids)
    assert a.telemetry == b.telemetry


def test_forward_zero_epsilon_runs_all_iterations():
    w = subvectors([0.0, 1.0, 4.0, 9.0])
    cfg = DkmConfig(bits=2, temperature=0.01, epsilon=0.0, max_iterations=4)
    warm = Codebook(w.values.copy())
    res = core.dkm_forward(w, warm_start=warm, config=cfg, seed=0)
    assert res.telemetry.iterations_used == 4
    assert not res.telemetry.converged


def test_forward_attention_invariants():
    rng = np.random.default_rng(55)
    w = subvectors(rng.normal(size=30))
    cfg = DkmConfig(bits=3, temperature=0.2)
    res = core.dkm_forward(w, config=cfg, seed=2)
    np.testing.assert_allclose(res.attention.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(res.attention >= 0.0) and np.all(res.attention <= 1.0)
    assert 1 <= res.telemetry.iterations_used <= cfg.max_iterations


def test_forward_warm_start_shape_checked():
    w = subvectors(np.arange(8.0))
    cfg = DkmConfig(bits=2)
    with pytest.raises(ShapeError):
        core.dkm_forward(w, warm_start=Codebook(np.zeros((3, 1))), config=cfg, seed=0)


def test_forward_nonfinite_iterate_names_iteration():
    w = subvectors(np.full(8, 1e200))  # distance expansion overflows
    cfg = DkmConfig(bits=2, temperature=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="iteration 1"):
            core.dkm_forward(w, config=cfg, seed=0)


def test_forward_warm_start_values_are_detached():
    w = subvectors(np.arange(8.0))
    cfg = DkmConfig(bits=2, epsilon=0.0, max_iterations=2)
    warm = Codebook(np.array([[0.0], [2.0], [4.0], [6.0]]))
    snapshot = warm.centroids.copy()
    core.dkm_forward(w, warm_start=warm, config=cfg, seed=0)
    np.testing.assert_array_equal(warm.centroids, snapshot)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def test_gradient_check_single_iteration():
    rng = np.random.default_rng(61)
    w = subvectors(rng.uniform(-1, 1, 16))
    cfg = DkmConfig(bits=2, temperature=1.0, max_iterations=1)
    assert core.dkm_gradient_check(w, cfg, seed=5) <= 1e-5


def test_gradient_check_five_iterations():
    rng = np.random.default_rng(62)
    w = subvectors(rng.uniform(-1, 1, (16, 2)))
    cfg = DkmConfig(bits=2, dim=2, temperature=0.5, max_iterations=5)
    assert core.dkm_gradient_check(w, cfg, seed=6) <= 1e-4


def test_gradient_check_near_hard_with_saturation_mask():
    rng = np.random.default_rng(63)
    w = subvectors(rng.uniform(0, 1, 24))
    cfg = DkmConfig(bits=2, temperature=1e-3, max_iterations=1, init=core.KMEANS_PP)
    err = core.dkm_gradient_check(w, cfg, seed=8, saturation_tol=1e-9)
    assert err <= 1e-4


def test_gradient_check_with_every_row_saturated_is_zero():
    # four far-apart points seed four centroids: every row is one-hot
    w = subvectors([0.0, 5.0, 10.0, 15.0])
    cfg = DkmConfig(bits=2, temperature=1e-2, max_iterations=1)
    assert core.dkm_gradient_check(w, cfg, seed=8, saturation_tol=1e-9) == 0.0


def test_gradient_flows_back_to_weight_node():
    rng = np.random.default_rng(64)
    values = rng.normal(size=(12, 1))
    w_node = ad.leaf(values)
    cfg = DkmConfig(bits=2, temperature=0.5, epsilon=0.0, max_iterations=3)
    res = core.dkm_forward(w_node, config=cfg, seed=4)
    ad.backward(ad.sum_all(ad.square(res.w_tilde)))
    assert w_node.grad is not None
    assert w_node.grad.shape == values.shape
    assert np.any(w_node.grad != 0)


# ---------------------------------------------------------------------------
# tape size and the memory pre-flight
# ---------------------------------------------------------------------------


def tape_arrays(root, min_size: int) -> list[np.ndarray]:
    """Distinct buffers of at least ``min_size`` entries reachable from ``root``.

    Walks parents and collects each node's value and grad and every array
    its backward closure captured, directly or inside a list or tuple,
    counting a view as its base buffer.
    """
    buffers: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        held = [node.value, node.grad]
        cells = getattr(node._backward, "__closure__", None) or ()
        for cell in cells:
            contents = cell.cell_contents
            held += list(contents) if isinstance(contents, (list, tuple)) else [contents]
        for arr in held:
            if not isinstance(arr, np.ndarray):
                continue
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            if arr.size >= min_size:
                buffers[id(arr)] = arr
        stack.extend(node.parents)
    return list(buffers.values())


def test_forward_tape_holds_no_attention_sized_buffer():
    cfg = DkmConfig(bits=4, temperature=0.05, epsilon=0.0)
    mk = 4096 * cfg.clusters
    for forward in (core.dkm_forward, baselines.gumbel_forward):
        w_node = ad.leaf(np.random.default_rng(65).normal(size=(4096, 1)))
        res = forward(w_node, config=cfg, seed=0)
        assert tape_arrays(res.w_tilde, mk) == []
        assert res.attention.shape == (4096, cfg.clusters)
        if forward is core.dkm_forward:
            assert res.attention.flags.c_contiguous and res.attention.flags.writeable
        else:  # the Gumbel loop builds no attention at all
            assert not core.attention_kept(res.attention)

        loss = ad.sum_all(ad.square(res.w_tilde))
        ad.backward(loss)
        assert tape_arrays(loss, mk) == [] and tape_arrays(res.w_tilde, mk) == []
        assert w_node.grad.shape == (4096, 1) and np.all(np.isfinite(w_node.grad))


def test_forward_on_constant_builds_no_tape_and_matches_leaf():
    rng = np.random.default_rng(66)
    w = subvectors(rng.normal(size=64))
    cfg = DkmConfig(bits=2, temperature=0.3)
    on_leaf = core.dkm_forward(w, config=cfg, seed=3)
    on_const = core.dkm_forward(ad.constant(w.values), config=cfg, seed=3)
    assert on_leaf.w_tilde.requires_grad
    assert not on_const.w_tilde.requires_grad and on_const.w_tilde.parents == ()
    assert on_const.w_tilde._backward is None
    np.testing.assert_array_equal(on_const.codebook.centroids, on_leaf.codebook.centroids)
    np.testing.assert_array_equal(on_const.attention, on_leaf.attention)


def test_forward_refuses_layer_larger_than_memory():
    # 131,072 weights at bits=16: one (m, k) float64 array is 64 GiB
    w, cfg = subvectors(np.zeros(131072)), DkmConfig(bits=16)
    # the returned attention plus one tile, whatever the iteration count
    need = 131072 * 65536 * 8 + core.TILE_BYTES
    available = core.physical_memory_bytes()
    if available is None or available >= need:
        pytest.skip("this machine has room for the layer the test expects to be refused")
    with pytest.raises(ResourceError, match=f"needs about {need} bytes, more than the {available} bytes"):
        core.dkm_forward(w, config=cfg, seed=0)
    # a constant input needs the same: the tape never holds (m, k) arrays
    with pytest.raises(ResourceError, match=f"needs about {need} bytes"):
        core.dkm_forward(ad.constant(w.values), config=cfg, seed=0)


# ---------------------------------------------------------------------------
# indices and the attention-free path
# ---------------------------------------------------------------------------

# rows of one float64 tile at bits=8
BITS8_TILE_ROWS = core.TILE_BYTES // (256 * 8)

# (values, config): a battery-sized hidden layer, and a bits=8 layer whose
# rows take four tiles, the last one ragged
ATTENTION_FREE_LAYERS = {
    "battery": (
        np.random.default_rng(81).normal(0.0, (2.0 / 64) ** 0.5, (4096, 1)),
        DkmConfig(bits=2, temperature=0.002),
    ),
    "bits8_tiles": (
        np.random.default_rng(82).normal(size=(4 * BITS8_TILE_ROWS - 48, 1)),
        DkmConfig(bits=8, temperature=0.05, epsilon=0.0),
    ),
}


@pytest.mark.parametrize("layer", sorted(ATTENTION_FREE_LAYERS))
@pytest.mark.parametrize("forward", [core.dkm_forward, baselines.hard_forward])
def test_attention_free_path_matches_default(forward, layer):
    # dkm_forward with and without the attention; hard_forward, which never
    # keeps it, against its loop run directly with the attention kept
    values, cfg = ATTENTION_FREE_LAYERS[layer]
    target = np.random.default_rng(83).normal(size=values.shape)

    def run(keep):
        leaf = ad.leaf(values)
        if forward is baselines.hard_forward:
            if keep:
                return core._cluster_loop(ad.constant(values), None, cfg, 4, baselines._hard_rule), None
            res = forward(leaf, config=cfg, seed=4)
        else:
            res = forward(leaf, config=cfg, seed=4, keep_attention=keep)
        ad.backward(ad.sum_all(ad.mul(res.w_tilde, ad.constant(target))))
        return res, leaf.grad

    (full, full_grad), (free, free_grad) = run(True), run(False)
    if layer == "bits8_tiles":
        assert len(core._row_tiles(values.shape[0], cfg.clusters, 8)) == 4
    np.testing.assert_array_equal(free.codebook.centroids, full.codebook.centroids)
    np.testing.assert_array_equal(free.w_tilde.value, full.w_tilde.value)
    assert free.telemetry == full.telemetry
    if full_grad is not None:
        np.testing.assert_array_equal(free_grad, full_grad)
    assert core.attention_kept(full.attention)
    for res in (full, free):
        assert res.indices.dtype == np.intp and res.indices.shape == (values.shape[0],)
        np.testing.assert_array_equal(res.indices, np.argmax(full.attention, axis=1))
    # the attention is never built: a read-only NaN broadcast that keeps the shape
    assert free.attention.shape == full.attention.shape
    assert free.attention.strides == (0, 0) and not free.attention.flags.writeable
    assert np.isnan(free.attention[0, 0]) and not core.attention_kept(free.attention)


def test_nearest_one_hot_sends_ties_to_the_lowest_index():
    # a cluster-major (3, 3) tile: a tie of clusters 0 and 1, one of 1 and
    # 2, and a column with one largest entry
    dist = np.array([[1.0, 2.0, -1.0], [1.0, 3.0, -2.0], [0.0, 3.0, -3.0]])
    one_hot = core._nearest_one_hot(dist, np.empty((3, 3)))
    np.testing.assert_array_equal(one_hot, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "forward", [core.dkm_forward, baselines.hard_forward, baselines.gumbel_forward]
)
def test_attention_free_preflight_byte_count(forward, dtype, monkeypatch):
    # 4,096 sub-vectors of dim 2 at bits=8: the float64 attention is 8 MiB,
    # the soft weights and the intp indices 96 KiB (64 KiB at float32); the
    # hard loop stops at the indices, snapping outside the loop
    values = np.random.default_rng(84).normal(size=(4096, 2)).astype(dtype)
    w, cfg = SubvectorMatrix(values, 8192), DkmConfig(bits=8, dim=2)
    size, index_size = np.dtype(dtype).itemsize, np.dtype(np.intp).itemsize
    full_need = 4096 * 256 * size + core.TILE_BYTES
    soft_weights = 0 if forward is baselines.hard_forward else 2 * size
    free_need = 4096 * (soft_weights + index_size) + core.TILE_BYTES
    # only dkm_forward can keep the attention; the baselines never do
    kwargs = {"keep_attention": False} if forward is core.dkm_forward else {}
    monkeypatch.setattr(core, "physical_memory_bytes", lambda: free_need)
    if forward is core.dkm_forward:
        with pytest.raises(ResourceError, match=f"needs about {full_need} bytes, more than the {free_need} bytes"):
            forward(w, config=cfg, seed=0)
    res = forward(w, config=cfg, seed=0, **kwargs)
    assert res.indices.shape == (4096,)
    monkeypatch.setattr(core, "physical_memory_bytes", lambda: free_need - 1)
    with pytest.raises(ResourceError, match=f"needs about {free_need} bytes"):
        forward(w, config=cfg, seed=0, **kwargs)


def codec_values(seed: int, weights: int, dim: int) -> np.ndarray:
    """Seeded float32 weights as sub-vectors, as ``dkm compress`` reads a raw file."""
    return np.random.default_rng(seed).standard_normal(weights).astype(np.float32).reshape(-1, dim)


# (values, config, warm start) of the indices-only final pass: float32
# layers of the two codec shapes, a float64 layer over four tiles, the
# euclidean metric, and a layer whose far centroid stays empty
INDICES_ONLY_LAYERS = {
    "codec_w262k": lambda: (codec_values(85, 262144, 4), DkmConfig(bits=4, dim=4, temperature=0.2), None),
    "codec_w1m": lambda: (codec_values(86, 1048576, 8), DkmConfig(bits=3, dim=8, temperature=0.5), None),
    "bits8_tiles": lambda: (*ATTENTION_FREE_LAYERS["bits8_tiles"], None),
    "euclidean": lambda: (
        np.random.default_rng(87).normal(size=(3000, 2)),
        DkmConfig(bits=4, dim=2, temperature=0.1, metric=core.EUCLIDEAN),
        None,
    ),
    "empty_cluster": lambda: (
        np.random.default_rng(88).uniform(-1, 1, (64, 1)),
        DkmConfig(bits=2, temperature=0.1, epsilon=0.0, max_iterations=3),
        Codebook(np.array([[-0.5], [0.0], [0.5], [1e3]])),
    ),
}


@pytest.mark.parametrize("layer", sorted(INDICES_ONLY_LAYERS))
def test_indices_only_final_pass_matches_default(layer):
    values, cfg, warm = INDICES_ONLY_LAYERS[layer]()
    if layer == "bits8_tiles":
        assert len(core._row_tiles(values.shape[0], cfg.clusters, 8)) == 4
    full = core.dkm_forward(ad.constant(values), warm, cfg, seed=5, keep_attention=False)
    lean = core.dkm_forward(ad.constant(values), warm, cfg, seed=5, keep_attention=False, soft_weights=False)
    assert np.array_equal(lean.codebook.centroids, full.codebook.centroids)
    assert np.array_equal(lean.indices, full.indices)
    assert lean.telemetry == full.telemetry
    assert lean.codebook.centroids.dtype == values.dtype
    if layer == "empty_cluster":
        assert lean.codebook.centroids[3, 0] == 1e3 and not np.any(lean.indices == 3)
    # no soft weights and no tape node; the attention placeholder keeps its shape
    assert lean.w_tilde is None
    assert lean.attention.shape == full.attention.shape and not core.attention_kept(lean.attention)


def test_indices_only_final_pass_builds_no_tape_node_on_a_leaf(monkeypatch):
    leaf = ad.leaf(np.random.default_rng(89).normal(size=(200, 1)))
    built = []
    real_init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__", lambda node, *args, **kw: built.append(1) or real_init(node, *args, **kw))
    res = core.dkm_forward(leaf, config=DkmConfig(bits=2), seed=0, keep_attention=False, soft_weights=False)
    assert res.w_tilde is None and built == []


def test_indices_only_preflight_counts_the_indices_and_a_tile(monkeypatch):
    values = np.random.default_rng(84).normal(size=(4096, 2))
    w, cfg = SubvectorMatrix(values, 8192), DkmConfig(bits=8, dim=2)
    need = 4096 * np.dtype(np.intp).itemsize + core.TILE_BYTES
    monkeypatch.setattr(core, "physical_memory_bytes", lambda: need)
    res = core.dkm_forward(w, config=cfg, seed=0, keep_attention=False, soft_weights=False)
    assert res.indices.shape == (4096,)
    monkeypatch.setattr(core, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ResourceError, match=f"needs about {need} bytes"):
        core.dkm_forward(w, config=cfg, seed=0, keep_attention=False, soft_weights=False)
    # the attention is built alongside the soft weights, so keeping it needs them
    with pytest.raises(ParameterError, match="keep_attention"):
        core.dkm_forward(w, config=cfg, seed=0, soft_weights=False)


def test_negative_seed_is_a_parameter_error():
    w = subvectors(np.arange(8.0))
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        core.init_centroids(w, DkmConfig(bits=2), -1)
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        core.dkm_forward(w, config=DkmConfig(bits=2), seed=-1)
    # the noise seed of Gumbel draws, with a valid seed for the centroids
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        baselines.gumbel_forward(w, config=DkmConfig(bits=2), seed=-1, init_seed=0)
    # a seed that is no integer is a parameter error too, in every entry
    for seed in (1.5, None, True):
        with pytest.raises(ParameterError, match=f"seed must be an integer, got {seed!r}"):
            core.init_centroids(w, DkmConfig(bits=2), seed)
        with pytest.raises(ParameterError, match=f"seed must be an integer, got {seed!r}"):
            core.dkm_forward(w, config=DkmConfig(bits=2), seed=seed)
        with pytest.raises(ParameterError, match=f"seed must be an integer, got {seed!r}"):
            baselines.gumbel_forward(w, config=DkmConfig(bits=2), seed=seed, init_seed=0)


# ---------------------------------------------------------------------------
# the fused loop against the loop composed from the public per-step nodes
# ---------------------------------------------------------------------------


def composed_loop(w_node, start: np.ndarray, cfg: DkmConfig, iterations: int):
    """w_tilde and final codebook of the loop built from one node per step."""
    c = ad.constant(start)
    for _ in range(iterations):
        dist = core.distance_matrix(w_node, c, cfg.metric)
        c = core.centroid_update(core.attention(dist, cfg.temperature), w_node, prev=c)
    final = core.attention(core.distance_matrix(w_node, c, cfg.metric), cfg.temperature)
    return ad.matmul(final, c), c.value


def fused_and_composed(values, cfg, warm=None, wrap=lambda node: node, seed=0):
    """(fused result, fused grad, composed grad, composed codebook, composed w_tilde).

    Both losses are sum((w_tilde - T)^2) for the same seeded target T; the
    composed loop runs as many iterations as the fused one used.
    """
    fused_leaf = ad.leaf(values)
    res = core.dkm_forward(wrap(fused_leaf), warm, cfg, seed=seed)
    target = np.random.default_rng(seed).standard_normal(res.w_tilde.shape).astype(values.dtype)

    def loss(w_tilde):
        return ad.sum_all(ad.square(ad.sub(w_tilde, ad.constant(target))))

    ad.backward(loss(res.w_tilde))

    ref_leaf = ad.leaf(values)
    ref_w = wrap(ref_leaf)
    start = warm if warm is not None else core.init_centroids(SubvectorMatrix(ref_w.value, ref_w.value.size), cfg, seed)
    ref_w_tilde, ref_codebook = composed_loop(
        ref_w, start.centroids.astype(values.dtype), cfg, res.telemetry.iterations_used
    )
    ref_value = ref_w_tilde.value
    ad.backward(loss(ref_w_tilde))
    return res, fused_leaf.grad, ref_leaf.grad, ref_codebook, ref_value


@pytest.mark.parametrize("metric", core.METRICS)
def test_fused_backward_matches_composed_loop(metric):
    rng = np.random.default_rng(71)
    values = rng.uniform(-1, 1, (200, 2))
    cfg = DkmConfig(bits=3, dim=2, temperature=0.1, epsilon=0.0, metric=metric)
    res, grad, ref_grad, ref_codebook, ref_w_tilde = fused_and_composed(values, cfg)
    assert res.telemetry.iterations_used == cfg.max_iterations
    assert rel_err(grad, ref_grad) <= 1e-10
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-12
    assert rel_err(res.w_tilde.value, ref_w_tilde) <= 1e-12


def test_fused_backward_with_empty_cluster_and_warm_start():
    rng = np.random.default_rng(72)
    values = rng.uniform(-1, 1, (64, 1))
    # the far centroid gets exactly zero attention: the masked branch keeps it
    warm = Codebook(np.array([[-0.5], [0.0], [0.5], [1e3]]))
    cfg = DkmConfig(bits=2, temperature=0.1, epsilon=0.0, max_iterations=3)
    res, grad, ref_grad, ref_codebook, _ = fused_and_composed(values, cfg, warm=warm)
    assert np.all(res.attention[:, 3] == 0.0)
    assert res.codebook.centroids[3, 0] == 1e3
    assert rel_err(grad, ref_grad) <= 1e-10
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-12


def test_fused_backward_after_epsilon_early_exit():
    rng = np.random.default_rng(73)
    values = np.concatenate([rng.normal(c, 0.05, 40) for c in (-2.0, 0.0, 1.0, 3.0)]).reshape(-1, 1)
    cfg = DkmConfig(bits=2, temperature=0.05, epsilon=1e-6, max_iterations=30, init=core.KMEANS_PP)
    res, grad, ref_grad, ref_codebook, _ = fused_and_composed(values, cfg, seed=4)
    assert res.telemetry.converged and res.telemetry.iterations_used < cfg.max_iterations
    assert rel_err(grad, ref_grad) <= 1e-10
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-12


def test_fused_backward_over_several_tiles_with_a_ragged_last_one():
    m = 2 * BITS8_TILE_ROWS + BITS8_TILE_ROWS // 2 + 20
    cfg = DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=3)
    rows = core.TILE_BYTES // (cfg.clusters * 8)
    assert 2 * rows < m < 3 * rows  # three tiles, the last one partial
    values = np.random.default_rng(74).normal(size=(m, 1))
    res, grad, ref_grad, ref_codebook, ref_w_tilde = fused_and_composed(values, cfg)
    assert rel_err(grad, ref_grad) <= 1e-10
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-12
    assert rel_err(res.w_tilde.value, ref_w_tilde) <= 1e-12


def test_fused_backward_through_a_non_leaf_input():
    # the harness clusters regrouped (zero-padded) views of its weight leaves
    values = np.random.default_rng(75).normal(size=(7, 9))
    cfg = DkmConfig(bits=2, dim=2, temperature=0.2, epsilon=0.0)
    res, grad, ref_grad, _, _ = fused_and_composed(values, cfg, wrap=lambda leaf: ad.regroup(leaf, 32, 2))
    assert grad.shape == values.shape
    assert rel_err(grad, ref_grad) <= 1e-10


def test_fused_loop_keeps_float32():
    values = np.random.default_rng(76).normal(size=(300, 1)).astype(np.float32)
    cfg = DkmConfig(bits=3, temperature=0.1, epsilon=0.0)
    res, grad, ref_grad, ref_codebook, _ = fused_and_composed(values, cfg)
    assert res.w_tilde.value.dtype == res.attention.dtype == grad.dtype == np.float32
    # the two float32 loops sum in different orders
    assert rel_err(grad, ref_grad) <= 1e-5
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-5


def test_float32_loop_at_a_flushing_tau_agrees_with_float64():
    values = np.random.default_rng(77).normal(size=(2000, 1))
    cfg = DkmConfig(bits=3, temperature=1e-3, epsilon=0.0)
    res64 = core.dkm_forward(ad.constant(values), config=cfg, seed=2, keep_attention=False)
    res32 = core.dkm_forward(ad.constant(values.astype(np.float32)), config=cfg, seed=2, keep_attention=False)
    # float32 logits of the final codebook fall below log(float32 tiny) and flush
    dist = core.distance_matrix(values.astype(np.float32), res32.codebook).value
    floor = np.log(np.finfo(np.float32).tiny)
    assert np.count_nonzero((dist - dist.max(axis=1, keepdims=True)) / np.float32(cfg.temperature) < floor) > 0
    assert res32.codebook.centroids.dtype == res32.w_tilde.value.dtype == np.float32
    np.testing.assert_array_equal(res32.indices, res64.indices)
    assert rel_err(res32.codebook.centroids, res64.codebook.centroids) <= 1e-6


def test_float32_empty_cluster_keeps_its_previous_row():
    values = np.random.default_rng(78).uniform(-1, 1, (64, 1)).astype(np.float32)
    # the far centroid gets exactly zero attention and keeps its row
    warm = Codebook(np.array([[-0.5], [0.0], [0.5], [1e3]], dtype=np.float32))
    cfg = DkmConfig(bits=2, temperature=0.1, epsilon=0.0, max_iterations=3)
    res = core.dkm_forward(ad.constant(values), warm, cfg, seed=0, keep_attention=False)
    assert res.codebook.centroids.dtype == np.float32
    assert res.codebook.centroids[3, 0] == np.float32(1e3)
    assert not np.any(res.indices == 3)


def test_float32_nonfinite_iterate_names_iteration():
    w = ad.leaf(np.full((8, 1), 1e20, dtype=np.float32))  # squared distances overflow float32
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="iteration 1"):
            core.dkm_forward(w, config=DkmConfig(bits=2, temperature=0.5), seed=0)


# ---------------------------------------------------------------------------
# the tile kernel: subnormal flush and work arrays reused within a call
# ---------------------------------------------------------------------------


def plain_softmax_clusters(dist: np.ndarray, tau) -> np.ndarray:
    """The max-subtracted softmax over axis 0, exp evaluated everywhere."""
    y = dist - dist.max(axis=0)
    y /= tau
    np.exp(y, out=y)
    y /= y.sum(axis=0)
    return y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# many flushed entries; few, at the branch boundary (8 of 7 * 37 entries,
# size // 32); and fewer
@pytest.mark.parametrize("plain_columns", [0, 35, 40])
def test_softmax_clusters_flushes_logits_below_log_tiny(dtype, plain_columns):
    floor = np.log(np.finfo(dtype).tiny, dtype=np.float64)
    # shifted logits: the kept max, the normal range, the subnormal band just
    # below log(tiny), far below it, and an overflow to -inf
    shifted = np.array([0.0, -3.0, floor + 0.5, floor - 0.5, 1.04 * floor, 3.0 * floor, -np.inf])
    plain = -np.random.default_rng(90).uniform(0, 3, (7, plain_columns))
    tau = dtype(0.5)
    dist = np.column_stack([shifted, shifted[::-1], plain]).astype(dtype) * tau - dtype(2.0)
    y = ad.softmax_cluster_major(dist, tau)
    assert y.dtype == dtype
    logits = (dist - dist.max(axis=0)) / tau
    below = logits < floor
    assert below.sum() == 8 and np.all(y[below] == 0.0)
    # the plain softmax leaves subnormals (or 0) there; everything else is bit-equal
    ref = plain_softmax_clusters(dist, tau)
    assert np.all(ref[below] < np.finfo(dtype).tiny)
    np.testing.assert_array_equal(y[~below], ref[~below])
    np.testing.assert_allclose(y.sum(axis=0), 1.0, rtol=4 * np.finfo(dtype).eps)
    assert np.all(np.isfinite(y))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_clusters_is_the_plain_softmax_when_nothing_flushes(dtype):
    rng = np.random.default_rng(91)
    dist = -rng.uniform(0, 3, (16, 300)).astype(dtype)
    tau = dtype(0.05)  # shifted logits reach -60, far above log(tiny)
    out = np.empty_like(dist)
    y = ad.softmax_cluster_major(dist, tau, out=out)
    assert y is out
    np.testing.assert_array_equal(y, plain_softmax_clusters(dist, tau))
    np.testing.assert_allclose(y.sum(axis=0), 1.0, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flush_floor_is_the_least_tile_value_not_below_log_tiny(dtype):
    # so y < floor in the tile's dtype flushes exactly the entries below log(tiny)
    exact = np.log(np.finfo(dtype).tiny, dtype=np.float64)
    floor = ad._FLUSH_FLOOR[np.dtype(dtype)]
    assert floor.dtype == dtype and floor >= exact
    assert np.nextafter(floor, dtype(-np.inf)) < exact


def test_softmax_clusters_columns_sum_to_one_at_a_near_hard_temperature():
    dist = -np.random.default_rng(92).uniform(0, 3, (4, 500))
    y = ad.softmax_cluster_major(dist, 1e-4)
    assert np.all((y == 0.0) | (y >= np.finfo(np.float64).tiny / 4))
    np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-15)


def test_public_attention_is_the_loops_attention_to_rounding():
    # both cluster_large layers (several tiles each), where tau 0.05 flushes
    # a few entries of the final attention to 0: the loop softmaxes its
    # logits, the public nodes the negated distances over tau, so the two
    # agree to rounding, flush the same entries and pick the same nearest
    # centroids
    values = np.random.default_rng(0).standard_normal(65_536)
    for bits, dim in ((4, 1), (5, 2)):
        sub = SubvectorMatrix(values.reshape(-1, dim), values.size)
        cfg = DkmConfig(bits=bits, dim=dim, temperature=0.05, epsilon=0.0)
        res = core.dkm_forward(sub, config=cfg, seed=3)
        public = core.attention(core.distance_matrix(sub, res.codebook), cfg.temperature).value
        assert np.count_nonzero(res.attention == 0.0) > 0
        assert np.abs(public - res.attention).max() <= 1e-12
        np.testing.assert_array_equal(public == 0.0, res.attention == 0.0)
        np.testing.assert_array_equal(res.indices, np.argmax(public, axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distance_kernel_cross_term_matches_the_matrix_product(dim, dtype):
    rng = np.random.default_rng(93)
    w = rng.normal(size=(1000, dim)).astype(dtype)
    c = rng.normal(size=(16, dim)).astype(dtype)
    # the dim-1 broadcast product has the bits of the K=1 matrix product
    np.testing.assert_array_equal(ad.rows_dot(c, w), c @ w.T)
    ref = (c * c).sum(axis=1)[:, None] + (w * w).sum(axis=1)
    ref += -2.0 * (c @ w.T)
    ref = -np.maximum(ref, 0.0)
    out, work = np.empty((16, 1000), dtype), np.empty((16, 1000), dtype)
    got = ad.neg_distance_cluster_major(w, c, w_sq=(w * w).sum(axis=1), out=out, cross=work)
    assert got is out
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(ad.neg_distance_cluster_major(w, c), ref)


def neg_distances_negated_last(w: np.ndarray, c: np.ndarray, euclidean: bool) -> np.ndarray:
    """The (m, k) distances summed unnegated, clamped, rooted, then negated: the kernel's earlier formula."""
    s = (c * c).sum(axis=1)[:, None] + (w * w).sum(axis=1)
    s += -2.0 * (c @ w.T)
    s = np.maximum(s, 0.0)
    if euclidean:
        s = np.sqrt(s)
    return -s.T


@pytest.mark.parametrize("nan_row", [False, True])
@pytest.mark.parametrize("metric", core.METRICS)
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distance_matrix_has_the_bits_of_negating_last(metric, dim, dtype, nan_row):
    rng = np.random.default_rng(94)
    w = rng.normal(size=(500, dim)).astype(dtype)
    c = rng.normal(size=(16, dim)).astype(dtype)
    w[:16] = c  # rows that coincide with a centroid
    # and rows next to one, where the expansion cancels and may come out negative
    rel = 1e-4 if dtype == np.float32 else 1e-9
    w[16:272] = np.tile(c, (16, 1)) * (1 + rel * rng.normal(size=(256, dim))).astype(dtype)
    # the expansion comes out negative somewhere, so the clamp has work to do
    assert np.any((c * c).sum(axis=1)[:, None] + (w * w).sum(axis=1) - 2.0 * (c @ w.T) < 0)
    if nan_row:
        w[40] = np.nan  # a NaN must not hide those entries from the clamp
    ref = neg_distances_negated_last(w, c, metric == core.EUCLIDEAN)
    got = core.distance_matrix(ad.constant(w, checked=False), ad.constant(c), metric).value
    assert got.dtype == dtype
    assert np.count_nonzero(ref == 0.0) > 0
    assert np.array_equal(got, ref, equal_nan=nan_row)


@pytest.mark.parametrize("metric", core.METRICS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logits_kernel_is_the_negated_distance_over_tau_plus_the_row_norm(metric, dim, dtype):
    rng = np.random.default_rng(95)
    k, m = 256, 1300
    w = rng.normal(size=(m, dim)).astype(dtype)
    c = rng.normal(size=(k, dim)).astype(dtype)
    tau, euclidean = dtype(0.05), metric == core.EUCLIDEAN
    kernel = ad.Logits(c, tau, euclidean)
    w_sq = (w * w).sum(axis=1)
    # tiles of the loop's size, the last one ragged, in reused work arrays,
    # have the bits of fresh ones
    tiles = core._row_tiles(m, k, np.dtype(dtype).itemsize)
    assert len(tiles) >= 3 and tiles[-1].stop - tiles[-1].start < tiles[0].stop - tiles[0].start
    work = core._TileWork(k * (tiles[0].stop - tiles[0].start), {"logits": dtype, "tmp": dtype})
    whole = np.empty((k, m), dtype)
    for rows in tiles:
        shape = (k, rows.stop - rows.start)
        got = kernel.tile(w[rows], work.get("logits", shape), w_sq[rows], work.get("tmp", shape))
        assert got is work.get("logits", shape) and got.dtype == dtype
        np.testing.assert_array_equal(got, kernel.tile(w[rows]))
        whole[:, rows] = got
    w64, c64 = w.astype(np.float64), c.astype(np.float64)
    sq = ((w64[None] - c64[:, None]) ** 2).sum(axis=2)  # by direct differences
    eps = np.finfo(dtype).eps
    if euclidean:
        # the negated root over tau: the distance kernel's bits, divided
        for rows in tiles:
            np.testing.assert_array_equal(whole[:, rows], ad.neg_distance_cluster_major(w[rows], c, True) / tau)
        # a root near zero amplifies the squared distance's rounding
        scale = ((w64 * w64).sum(axis=1) + (c64 * c64).sum(axis=1)[:, None]).max()
        assert np.abs(whole + np.sqrt(sq) / float(tau)).max() <= 4 * np.sqrt(eps * scale) / float(tau)
        return
    # (2 c.w - |c|^2) / tau, which is the negated squared distance over tau
    # plus |w|^2 / tau, to rounding
    scale = (2 * np.abs(c64 @ w64.T) + (c64 * c64).sum(axis=1)[:, None]).max() / float(tau)
    direct = (2 * (c64 @ w64.T) - (c64 * c64).sum(axis=1)[:, None]) / float(tau)
    shifted = (-sq + (w64 * w64).sum(axis=1)) / float(tau)
    for ref in (direct, shifted):
        assert np.abs(whole - ref).max() <= 8 * eps * scale


@pytest.mark.parametrize("need_c", [True, False])
@pytest.mark.parametrize("metric", core.METRICS)
def test_logits_vjp_matches_finite_differences(metric, need_c):
    # any gradient of the logits, not only a softmax's, whose columns sum to zero
    rng = np.random.default_rng(96)
    w, c, g = rng.normal(size=(30, 2)), rng.normal(size=(5, 2)), rng.normal(size=(5, 30))
    tau, euclidean = np.float64(0.3), metric == core.EUCLIDEAN

    def loss(w, c):
        return float(np.sum(ad.Logits(c, tau, euclidean).tile(w) * g))

    kernel = ad.Logits(c, tau, euclidean)
    logits = kernel.tile(w) if euclidean else None  # the squared VJP reads no tile
    tmp, clamp = np.empty_like(g), np.empty(g.shape, bool)
    gw, gc = kernel.vjp(g.copy(), logits, w, need_c, tmp, clamp)
    assert rel_err(gw, central_diff(lambda x: loss(x, c), w)) < 1e-7
    if need_c:
        assert rel_err(gc, central_diff(lambda x: loss(w, x), c)) < 1e-7
    else:
        assert gc is None


def test_float64_temperature_domain_of_the_squared_logits():
    values = np.random.default_rng(97).standard_normal((512, 1))
    cfg = DkmConfig(bits=2, temperature=1e-300, epsilon=0.0)
    # logits near 1e300 stay finite: the assignment is all but hard
    res = core.dkm_forward(ad.constant(values), config=cfg, seed=0, keep_attention=False)
    assert np.all(np.isfinite(res.w_tilde.value)) and np.all(np.isfinite(res.codebook.centroids))
    # at tau 1e-308 the scaled codebook 2c / tau overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite centroids at iteration 1"):
            core.dkm_forward(ad.constant(values), config=replace(cfg, temperature=1e-308), seed=0)


FORWARDS = {
    "dkm": core.dkm_forward,
    "gumbel": baselines.gumbel_forward,
}


@pytest.mark.parametrize("mode", sorted(FORWARDS))
def test_two_forwards_then_one_backward_match_separate_runs(mode):
    forward = FORWARDS[mode]
    rng = np.random.default_rng(94)
    # the second layer spans several tiles, the last one ragged
    layers = [
        (rng.normal(size=(200, 1)), DkmConfig(bits=2, temperature=0.05, epsilon=0.0)),
        (rng.normal(size=(1300, 1)), DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=2)),
    ]
    targets = [rng.normal(size=values.shape) for values, _ in layers]

    def loss(w_tilde, target):
        return ad.sum_all(ad.mul(w_tilde, ad.constant(target)))

    def outputs(res):
        # the Gumbel loop keeps no attention: its result is the NaN broadcast
        return res.w_tilde.value, res.indices, res.codebook.centroids, res.attention

    alone = []
    for (values, cfg), target in zip(layers, targets):
        leaf = ad.leaf(values)
        res = forward(leaf, config=cfg, seed=5)
        ad.backward(loss(res.w_tilde, target))
        alone.append((leaf.grad, outputs(res)))

    leaves = [ad.leaf(values) for values, _ in layers]
    results = [forward(leaf, config=cfg, seed=5) for leaf, (_, cfg) in zip(leaves, layers)]
    first_outputs = [a.copy() for a in outputs(results[0])]
    ad.backward(ad.add(*(loss(res.w_tilde, t) for res, t in zip(results, targets))))
    for leaf, res, (grad, arrays) in zip(leaves, results, alone):
        np.testing.assert_array_equal(leaf.grad, grad)
        for got, want in zip(outputs(res), arrays):
            np.testing.assert_array_equal(got, want)
    # a later call and a backward leave the first call's outputs alone
    for got, want in zip(outputs(results[0]), first_outputs):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# tile workers
# ---------------------------------------------------------------------------

# a bits=8 layer of six tiles, the last one ragged
WORKER_ROWS = 5 * BITS8_TILE_ROWS + 20


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
@pytest.mark.parametrize("mode", ["dkm_kept", "dkm_free", "hard", "gumbel"])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, mode, epsilon):
    cfg = DkmConfig(bits=8, temperature=0.05, epsilon=epsilon, max_iterations=6)
    assert len(core._row_tiles(WORKER_ROWS, cfg.clusters, 8)) == 6
    rng = np.random.default_rng(95)
    values, target = rng.normal(size=(WORKER_ROWS, 1)), rng.normal(size=(WORKER_ROWS, 1))
    forward = {
        "dkm_kept": core.dkm_forward,
        "dkm_free": functools.partial(core.dkm_forward, keep_attention=False),
        "hard": baselines.hard_forward,
        "gumbel": baselines.gumbel_forward,
    }[mode]

    def run(workers):
        monkeypatch.setattr(core, "_max_workers", lambda: workers)
        leaf = ad.leaf(values)
        res = forward(leaf, config=cfg, seed=3)
        ad.backward(ad.sum_all(ad.mul(res.w_tilde, ad.constant(target))))
        return res.telemetry, [res.w_tilde.value, res.codebook.centroids, res.indices, res.attention, leaf.grad]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        # four workers: more than most test machines have cores, and an
        # uneven share of the six tiles
        (telemetry, want), *others = [run(n) for n in (1, 2, 4)]
    finally:
        sys.setswitchinterval(switch)
    if epsilon and mode != "gumbel":  # the early exit ran (the noise keeps Gumbel's codebook moving)
        assert telemetry.iterations_used < cfg.max_iterations
    for got_telemetry, got in others:
        assert got_telemetry == telemetry
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
def test_forked_child_runs_multi_tile_passes_after_its_parent(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    values = np.random.default_rng(96).normal(size=(WORKER_ROWS, 1))
    cfg = DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=2)
    want = core.dkm_forward(ad.constant(values), config=cfg, seed=1).w_tilde.value
    assert core._pool is not None  # the parent's pool threads are running

    def child():
        dropped = core._pool is None  # the parent's pool threads are not in this process
        got = core.dkm_forward(ad.constant(values), config=cfg, seed=1).w_tilde.value
        sys.exit(0 if dropped and np.array_equal(got, want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child hung on its multi-tile pass")
    assert proc.exitcode == 0


def test_a_tile_workers_error_reaches_the_caller_under_its_error_state(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    values = np.random.default_rng(98).normal(size=(WORKER_ROWS, 1))
    cfg = DkmConfig(bits=8, temperature=1.0, epsilon=0.0, max_iterations=2)
    warm = values[:256].copy()
    # a row and a centroid whose squares sum past the largest float: only
    # tile 1 overflows, on a pool thread, under the caller's error state
    values[BITS8_TILE_ROWS + 5] = warm[0] = 1e154
    raised = []

    def call():
        with np.errstate(over="raise"):
            try:
                core.dkm_forward(ad.constant(values), Codebook(warm), cfg)
            except FloatingPointError:
                raised.append(True)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the pass hung after a tile thread failed"
    assert raised
    # the pool serves the next call
    values[BITS8_TILE_ROWS + 5] = 0.0
    got = core.dkm_forward(ad.constant(values), config=cfg, seed=1).w_tilde.value
    monkeypatch.setattr(core, "_max_workers", lambda: 1)
    np.testing.assert_array_equal(got, core.dkm_forward(ad.constant(values), config=cfg, seed=1).w_tilde.value)


def test_a_pass_completes_on_fewer_pool_threads_than_shares(monkeypatch):
    # as when other callers hold all but one pool thread: a pass's shares
    # then run one after another, so none may wait for another's tiles
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(99)
    values, target = rng.normal(size=(WORKER_ROWS, 1)), rng.normal(size=(WORKER_ROWS, 1))
    cfg = DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=3)

    def run():
        leaf = ad.leaf(values)
        res = core.dkm_forward(leaf, config=cfg, seed=2)
        ad.backward(ad.sum_all(ad.mul(res.w_tilde, ad.constant(target))))
        return res.w_tilde.value, leaf.grad

    monkeypatch.setattr(core, "_max_workers", lambda: 1)
    want = run()
    one_thread = ThreadPoolExecutor(1)
    monkeypatch.setattr(core, "_max_workers", lambda: 3)
    monkeypatch.setattr(core, "_tile_pool", lambda workers: one_thread)
    got = []
    caller = threading.Thread(target=lambda: got.append(run()), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "a share waited for one queued behind it"
    one_thread.shutdown()
    for a, b in zip(got[0], want):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# kept passes and the tile buffer free list
# ---------------------------------------------------------------------------


def battery_weights(m: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, (2.0 / 64) ** 0.5, (m, 1))


def off_weights(values: np.ndarray, k: int) -> Codebook:
    """A warm start of k centroids spread over the weights, none equal to one."""
    return Codebook(np.linspace(values.min(), values.max(), k + 2)[1:-1, None] + 1e-3)


def near_fixed_point(values: np.ndarray) -> Codebook:
    cfg = DkmConfig(bits=2, temperature=0.01, epsilon=0.0, max_iterations=40)
    return core.dkm_forward(ad.constant(values), config=cfg, seed=0, keep_attention=False).codebook


gumbel = baselines.gumbel_forward
BITS2 = DkmConfig(bits=2, temperature=0.05, epsilon=0.0)
# name -> (forward, values, warm start, config); every layer's passes fit in
# KEPT_BYTES
KEPT_LAYERS = {
    "squared": lambda: (
        core.dkm_forward, battery_weights(4096, 110), off_weights(battery_weights(4096, 110), 4), BITS2
    ),
    "euclidean": lambda: (
        core.dkm_forward,
        np.random.default_rng(111).normal(size=(2000, 2)),
        None,
        DkmConfig(bits=3, dim=2, temperature=0.1, epsilon=0.0, metric=core.EUCLIDEAN),
    ),
    # warm-started near its fixed point, as in training
    "early_exit": lambda: (
        core.dkm_forward, battery_weights(4096, 112), near_fixed_point(battery_weights(4096, 112)),
        DkmConfig(bits=2, temperature=0.01, epsilon=1e-4),
    ),
    "float32": lambda: (
        core.dkm_forward, battery_weights(4096, 113).astype(np.float32), None,
        DkmConfig(bits=3, temperature=0.05, epsilon=0.0),
    ),
    "empty_cluster": lambda: (
        core.dkm_forward,
        np.random.default_rng(114).uniform(-1, 1, (64, 1)),
        Codebook(np.array([[-0.5], [0.0], [0.5], [1e3]])),
        DkmConfig(bits=2, temperature=0.1, epsilon=0.0, max_iterations=3),
    ),
    # random_sample seeding puts pass 0's centroids on weights: a clamped zero
    "seeded_on_weights": lambda: (core.dkm_forward, battery_weights(1024, 115), None, BITS2),
    "gumbel_1": lambda: (gumbel, battery_weights(4096, 117), None, BITS2),
    # float32 samples of float64 noise
    "gumbel_float32": lambda: (gumbel, battery_weights(2048, 118).astype(np.float32), None, BITS2),
}


def loop_outputs(forward, values, warm, cfg, seed=3):
    """Telemetry, and w_tilde, codebook, indices and the gradient of a squared-error loss."""
    kwargs = {} if forward is gumbel else {"keep_attention": False}
    leaf = ad.leaf(values)
    res = forward(leaf, warm, cfg, seed=seed, **kwargs)
    target = np.random.default_rng(119).normal(size=values.shape).astype(values.dtype)
    ad.backward(ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target)))))
    return res.telemetry, [res.w_tilde.value, res.codebook.centroids, res.indices, leaf.grad]


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(core, name)
    monkeypatch.setattr(core, name, lambda *args: calls.append(1) or real(*args))
    return calls


def keep_decisions(monkeypatch) -> list:
    """Whether each differentiable loop call from now on keeps its passes' samples."""
    made = []
    real = core._keeps
    monkeypatch.setattr(core, "_keeps", lambda *args: made.append(real(*args)) or made[-1])
    return made


@pytest.mark.parametrize("layer", sorted(KEPT_LAYERS))
def test_kept_passes_match_replayed_passes(monkeypatch, layer):
    forward, values, warm, cfg = KEPT_LAYERS[layer]()
    m, k = values.shape[0], cfg.clusters
    assert (cfg.max_iterations + 1) * m * k * values.itemsize <= core.KEPT_BYTES
    kept_calls = keep_decisions(monkeypatch)
    telemetry, kept = loop_outputs(forward, values, warm, cfg)
    monkeypatch.setattr(core, "KEPT_BYTES", 0)
    want_telemetry, replayed = loop_outputs(forward, values, warm, cfg)
    assert kept_calls == [True, False]  # kept, then replayed
    if layer == "early_exit":
        assert telemetry.iterations_used < cfg.max_iterations
    if layer == "empty_cluster":
        assert kept[1][3, 0] == 1e3
    assert telemetry == want_telemetry
    for got, want in zip(kept, replayed):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert np.any(kept[3] != 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_call_whose_passes_fit_is_one_tile(dtype):
    # so kept attention needs no per-tile slicing: at the shipped constants
    # the largest layer whose passes fit in KEPT_BYTES is one tile
    itemsize = np.dtype(dtype).itemsize
    for bits, iterations in itertools.product(range(1, 17), (1, 2, 5, 20)):
        k = 1 << bits
        cfg = DkmConfig(bits=bits, max_iterations=iterations)
        m = core.KEPT_BYTES // ((iterations + 1) * k * itemsize)
        if m:
            assert len(core._row_tiles(m, k, itemsize)) == 1
            assert core._keeps(m, cfg, itemsize)
        assert not core._keeps(m + 1, cfg, itemsize)


@pytest.mark.parametrize("layer", ["squared", "euclidean", "gumbel_1"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_fitting_layer_of_several_tiles_replays(monkeypatch, layer, workers):
    forward, values, warm, cfg = KEPT_LAYERS[layer]()
    kept_calls = keep_decisions(monkeypatch)
    telemetry, kept = loop_outputs(forward, values, warm, cfg)
    # tiles of half the layer: its passes still fit in KEPT_BYTES
    monkeypatch.setattr(core, "TILE_BYTES", values.shape[0] * cfg.clusters * values.itemsize // 2)
    monkeypatch.setattr(core, "_max_workers", lambda: workers)
    assert len(core._row_tiles(values.shape[0], cfg.clusters, values.itemsize)) == 2
    want_telemetry, replayed = loop_outputs(forward, values, warm, cfg)
    assert kept_calls == [True, False]
    # the same results, but for the tiles' partial sums adding in another order
    assert telemetry.iterations_used == want_telemetry.iterations_used
    np.testing.assert_array_equal(kept[2], replayed[2])
    for got, want in zip(kept, replayed):
        assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("metric", core.METRICS)
def test_update_pass_vjp_matches_finite_differences(metric, kept):
    # one update c' = masked_mean(A^T w, A^T 1, c), A the softmax of the
    # negated distances over tau, and the loss <g', c'>; the last cluster
    # is empty, so it keeps its row of c
    rng = np.random.default_rng(130)
    w, c, g_next = rng.normal(size=(40, 2)), rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    c[3] = 50.0
    tau, euclidean = np.float64(0.7), metric == core.EUCLIDEAN

    def update(w, c):
        a = ad.softmax_cluster_major(ad.neg_distance_cluster_major(w, c, euclidean), tau)
        return a, ad.masked_mean(a @ w, a.sum(axis=1), c)

    a, c_next = update(w, c)
    assert a[3].sum() < ad.EMPTY_CLUSTER_THRESHOLD
    tiles = core._row_tiles(40, 4, 8)
    # pass 1 of a call, its (k, m) attention kept or replayed by the soft rule
    blocks = [None, a.ravel()] if kept else None
    vjp = core._Backward(w, 4, tau, euclidean, tiles, core._soft_rule, blocks)
    g_c = vjp.update_vjp(1, c, a.sum(axis=1), c_next, g_next)
    for work in vjp.works:
        work.release()

    def loss(w, c):
        return float(np.sum(update(w, c)[1] * g_next))

    assert rel_err(vjp.gw, central_diff(lambda x: loss(x, c), w)) < 1e-7
    assert rel_err(g_c, central_diff(lambda x: loss(w, x), c)) < 1e-7


def test_a_work_array_the_rule_did_not_declare_fails_naming_it():
    def rule(logits, work, first):
        return ad.softmax_cluster_major(logits, 1, work.get("undeclared", logits.shape))

    rule.takes = {}
    with pytest.raises(KeyError, match="undeclared"):
        core._cluster_loop(ad.leaf(battery_weights(64, 131)), None, BITS2, 0, rule)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("epsilon", [0.0, 0.02])
@pytest.mark.parametrize("fits", [True, False])
def test_multi_tile_gumbel_does_not_depend_on_the_worker_count(monkeypatch, fits, epsilon, seed):
    # 16 KiB tiles: a 2,048-weight layer in four tiles, its passes within
    # KEPT_BYTES or not; either way a call of four tiles replays
    monkeypatch.setattr(core, "TILE_BYTES", 1 << 14)
    if not fits:
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
    values = battery_weights(2048, 124)
    # at epsilon 0.02 the noise of seeds 1 and 2 converges at iterations 4
    # and 5, so the cap is 6
    cfg = DkmConfig(bits=2, temperature=0.05, epsilon=epsilon, max_iterations=6)
    warm = near_fixed_point(values)
    assert len(core._row_tiles(2048, cfg.clusters, 8)) == 4
    assert ((cfg.max_iterations + 1) * 2048 * cfg.clusters * 8 <= core.KEPT_BYTES) == fits
    kept_calls = keep_decisions(monkeypatch)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        for workers in (1, 2):
            monkeypatch.setattr(core, "_max_workers", lambda: workers)
            runs.append(loop_outputs(gumbel, values, warm, cfg, seed))
    finally:
        sys.setswitchinterval(switch)
    assert kept_calls == [False, False]
    (telemetry, want), (got_telemetry, got) = runs
    if epsilon:  # the early exit ran
        assert telemetry.iterations_used < cfg.max_iterations
    assert got_telemetry == telemetry
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert np.any(want[3] != 0)


@pytest.mark.parametrize("layer, recomputed", [("squared", 0), ("seeded_on_weights", 0), ("euclidean", 6)])
def test_kept_backward_recomputes_distances_only_where_the_vjp_reads_them(
    monkeypatch, layer, recomputed
):
    # squared logits: no pass, not even pass 0 after random_sample seeding
    # put a centroid on a weight, as the logits clamp nothing; euclidean:
    # every pass's root
    forward, values, warm, cfg = KEPT_LAYERS[layer]()
    leaf = ad.leaf(values)
    res = forward(leaf, warm, cfg, seed=3, keep_attention=False)
    distances = count_calls(monkeypatch, "_tile_logits")
    ad.backward(ad.sum_all(ad.square(res.w_tilde)))
    assert len(distances) == recomputed


def test_kept_call_tape_holds_at_most_kept_bytes_of_attention_sized_data():
    values, cfg = battery_weights(4096, 121), BITS2
    mk = values.shape[0] * cfg.clusters
    for forward in (core.dkm_forward, gumbel):
        leaf = ad.leaf(values)
        res = forward(leaf, config=cfg, seed=0)
        held = tape_arrays(res.w_tilde, mk)
        # one (k, m) block of attention per pass
        assert len(held) == cfg.max_iterations + 1
        assert 0 < sum(a.nbytes for a in held) <= core.KEPT_BYTES
        loss = ad.sum_all(ad.square(res.w_tilde))
        ad.backward(loss)
        assert tape_arrays(loss, mk) == [] and tape_arrays(res.w_tilde, mk) == []


def free_list_bytes() -> int:
    with core._free_lock:
        held = sum(buf.nbytes for bufs in core._free.values() for buf in bufs)
        assert held == core._free_bytes
    return held


def test_a_live_tapes_kept_samples_are_never_handed_out():
    forward, values, warm, cfg = KEPT_LAYERS["squared"]()
    want_telemetry, want = loop_outputs(forward, values, warm, cfg)
    leaf = ad.leaf(values)
    res = forward(leaf, warm, cfg, seed=3, keep_attention=False)
    # calls of the same size take and give back buffers while the tape lives
    for seed in range(3):
        loop_outputs(forward, battery_weights(4096, seed), warm, cfg)
        loop_outputs(gumbel, battery_weights(4096, seed), warm, cfg)
    target = np.random.default_rng(119).normal(size=values.shape)
    ad.backward(ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target)))))
    assert res.telemetry == want_telemetry
    for got, w in zip([res.w_tilde.value, res.codebook.centroids, res.indices, leaf.grad], want):
        np.testing.assert_array_equal(got, w)


def check_clustering_at_once(jobs) -> None:
    """Each job's ``loop_outputs`` three times on its own thread, all at once, equal the job run alone."""
    want = [loop_outputs(*job) for job in jobs]
    got = {}

    def run(name, job):
        got[name] = [loop_outputs(*job) for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=job, daemon=True) for job in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "a clustering thread hung"
    finally:
        sys.setswitchinterval(switch)
    for i, (want_telemetry, want_arrays) in enumerate(want):
        assert len(got[i]) == 3
        for telemetry, arrays in got[i]:
            assert telemetry == want_telemetry
            for a, b in zip(arrays, want_arrays):
                np.testing.assert_array_equal(a, b)
    assert free_list_bytes() <= core._FREE_BOUND


def test_two_threads_clustering_at_once_give_the_sequential_results(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    # a kept battery layer, a kept Gumbel layer and a replayed multi-tile layer
    check_clustering_at_once([
        KEPT_LAYERS["squared"](),
        KEPT_LAYERS["gumbel_float32"](),
        (core.dkm_forward, np.random.default_rng(122).normal(size=(WORKER_ROWS, 1)), None,
         DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=2)),
    ])


def test_two_threads_drawing_gumbel_noise_at_once_give_the_sequential_results(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    # 16 KiB tiles: a kept Gumbel layer of one tile and a replayed one of 47
    monkeypatch.setattr(core, "TILE_BYTES", 1 << 14)
    assert core._keeps(512, BITS2, 8) and len(core._row_tiles(512, BITS2.clusters, 8)) == 1
    check_clustering_at_once([
        (gumbel, battery_weights(512, 125), None, BITS2),
        (gumbel, np.random.default_rng(126).normal(size=(3000, 1)), None,
         DkmConfig(bits=5, temperature=0.05, epsilon=0.0, max_iterations=2)),
    ])


def test_free_list_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    jobs = [
        KEPT_LAYERS["squared"](),
        KEPT_LAYERS["float32"](),
        (core.dkm_forward, np.random.default_rng(123).normal(size=(WORKER_ROWS, 1)), None,
         DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=2)),
    ]
    want = [loop_outputs(*job) for job in jobs]
    assert free_list_bytes() <= core._FREE_BOUND
    # a bound below one battery call's buffers: every give-back evicts, the
    # key returned to least recently first, and the results stay the same
    monkeypatch.setattr(core, "_FREE_BOUND", 3 * 4096 * 4 * 8)
    for i, ((want_telemetry, want_arrays), job) in enumerate(zip(want, jobs)):
        telemetry, arrays = loop_outputs(*job)
        assert free_list_bytes() <= 3 * 4096 * 4 * 8
        if i == 1:  # the float32 call's buffers pushed out the float64 ones
            assert {dtype for _, dtype in core._free} == {np.dtype(np.float32)}
        assert telemetry == want_telemetry
        for a, b in zip(arrays, want_arrays):
            np.testing.assert_array_equal(a, b)


def free_list_contents() -> tuple[dict, int]:
    """The free list's buffers by key (their identities) and its byte count."""
    with core._free_lock:
        return {key: [id(buf) for buf in bufs] for key, bufs in core._free.items()}, core._free_bytes


def record_tile_allocations(monkeypatch, entries: int) -> list:
    """(thread, size) of every ``np.empty`` call of at least ``entries`` entries from now on."""
    made = []
    empty = np.empty

    def recording(shape, *args, **kwargs):
        size = int(np.prod(shape))
        if size >= entries:
            made.append((threading.get_ident(), size))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording)
    return made


def test_multi_tile_calls_leave_the_free_list_as_they_found_it(monkeypatch):
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    # one battery call first, so the list holds buffers the others could take
    loop_outputs(*KEPT_LAYERS["squared"]())
    before = free_list_contents()
    assert before[1] > 0
    values = np.random.default_rng(127).normal(size=(WORKER_ROWS, 1))
    cfg = DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=2)
    assert len(core._row_tiles(WORKER_ROWS, cfg.clusters, 8)) > 1
    loop_outputs(core.dkm_forward, values, None, cfg)
    loop_outputs(gumbel, values, None, cfg)
    assert free_list_contents() == before
    # as dkm compress clusters: float32 weights, indices only
    flat = np.random.default_rng(128).standard_normal(1 << 18).astype(np.float32)
    cfg = DkmConfig(bits=3, dim=8, temperature=0.5)
    assert len(core._row_tiles(flat.size // 8, cfg.clusters, 4)) > 1
    res = core.dkm_forward(
        ad.constant(flat.reshape(-1, 8)), config=cfg, seed=1, keep_attention=False, soft_weights=False
    )
    assert res.w_tilde is None
    assert free_list_contents() == before


# a replayed call of one full float32 tile at k = 16: its Gumbel backward
# holds the most a one-tile call takes, float64 noise included
FULL_FLOAT32_TILE = core.TILE_BYTES // (16 * 4)


@pytest.mark.parametrize("mode", ["dkm", "gumbel", "gumbel_float32"])
def test_one_tile_calls_take_no_fresh_buffer_after_the_first(monkeypatch, mode):
    # from an empty free list: the first call allocates, the next two reuse
    monkeypatch.setattr(core, "_free", OrderedDict())
    monkeypatch.setattr(core, "_free_bytes", 0)
    if mode == "gumbel_float32":
        values = battery_weights(FULL_FLOAT32_TILE, 132).astype(np.float32)
        forward, warm, cfg = gumbel, None, DkmConfig(bits=4, temperature=0.05, epsilon=0.0, max_iterations=2)
        assert not core._keeps(FULL_FLOAT32_TILE, cfg, 4)
    else:
        forward, values, warm, cfg = KEPT_LAYERS["squared" if mode == "dkm" else "gumbel_1"]()
    assert len(core._row_tiles(values.shape[0], cfg.clusters, values.itemsize)) == 1
    made = record_tile_allocations(monkeypatch, values.shape[0] * cfg.clusters)
    runs = []
    for fresh in (True, False, False):
        del made[:]
        runs.append(loop_outputs(forward, values, warm, cfg))
        assert bool(made) == fresh
    for telemetry, arrays in runs[1:]:
        assert telemetry == runs[0][0]
        for a, b in zip(arrays, runs[0][1]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kept", [True, False])
def test_every_tile_buffer_is_allocated_on_the_calling_thread(monkeypatch, kept):
    # on two workers: a kept call, one tile of a 2,048-weight layer, or with
    # 16 KiB tiles a replayed one of four; an empty free list, so nothing
    # is taken from earlier calls
    if not kept:
        monkeypatch.setattr(core, "TILE_BYTES", 1 << 14)
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    monkeypatch.setattr(core, "_free", OrderedDict())
    monkeypatch.setattr(core, "_free_bytes", 0)
    values, cfg = battery_weights(2048, 129), BITS2
    tiles = core._row_tiles(2048, cfg.clusters, 8)
    assert len(tiles) == (1 if kept else 4)
    made = record_tile_allocations(monkeypatch, cfg.clusters * (tiles[0].stop - tiles[0].start))
    kept_calls = keep_decisions(monkeypatch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        loop_outputs(gumbel, values, None, cfg)
    finally:
        sys.setswitchinterval(switch)
    assert kept_calls == [kept]
    # forward alone takes dist, tmp, the sample and its noise per worker
    assert len(made) >= 2 * 4
    assert {thread for thread, _ in made} == {threading.get_ident()}
