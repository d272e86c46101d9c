import functools

import numpy as np
import pytest

from dkm import autodiff as ad
from dkm import baselines, core
from dkm.core import Codebook, DkmConfig, SubvectorMatrix
from dkm.errors import DataError, NumericError, ParameterError, ResourceError, ShapeError

from helpers import pairwise_sq_dists, rel_err


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
    gumbel = functools.partial(baselines.gumbel_forward, draws=2)
    for forward in (core.dkm_forward, gumbel):
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

# (values, config): a battery-sized hidden layer, and a bits=8 layer whose
# 2,000 rows take four 512-row tiles
ATTENTION_FREE_LAYERS = {
    "battery": (
        np.random.default_rng(81).normal(0.0, (2.0 / 64) ** 0.5, (4096, 1)),
        DkmConfig(bits=2, temperature=0.002),
    ),
    "bits8_tiles": (
        np.random.default_rng(82).normal(size=(2000, 1)),
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
    # the soft weights and the intp indices 96 KiB (64 KiB at float32)
    values = np.random.default_rng(84).normal(size=(4096, 2)).astype(dtype)
    w, cfg = SubvectorMatrix(values, 8192), DkmConfig(bits=8, dim=2)
    size, index_size = np.dtype(dtype).itemsize, np.dtype(np.intp).itemsize
    full_need = 4096 * 256 * size + core.TILE_BYTES
    free_need = 4096 * (2 * size + index_size) + core.TILE_BYTES
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


def test_negative_seed_is_a_parameter_error():
    w = subvectors(np.arange(8.0))
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        core.init_centroids(w, DkmConfig(bits=2), -1)
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        core.dkm_forward(w, config=DkmConfig(bits=2), seed=-1)
    # the noise seed of Gumbel draws, with a valid seed for the centroids
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        baselines.gumbel_forward(w, config=DkmConfig(bits=2), seed=-1, init_seed=0)


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
    m, cfg = 1300, DkmConfig(bits=8, temperature=0.05, epsilon=0.0, max_iterations=3)
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
@pytest.mark.parametrize("plain_columns", [0, 40])  # many flushed entries, then few
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


def test_softmax_clusters_columns_sum_to_one_at_a_near_hard_temperature():
    dist = -np.random.default_rng(92).uniform(0, 3, (4, 500))
    y = ad.softmax_cluster_major(dist, 1e-4)
    assert np.all((y == 0.0) | (y >= np.finfo(np.float64).tiny / 4))
    np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-15)


def test_public_attention_is_the_loops_attention_bit_for_bit():
    # a cluster_large b5d2 layer (eight tiles), where tau 0.05 flushes a few
    # entries of the final attention to 0
    values = np.random.default_rng(0).standard_normal(65_536).reshape(-1, 2)
    sub = SubvectorMatrix(values, values.size)
    cfg = DkmConfig(bits=5, dim=2, temperature=0.05, epsilon=0.0)
    res = core.dkm_forward(sub, config=cfg, seed=3)
    public = core.attention(core.distance_matrix(sub, res.codebook), cfg.temperature).value
    assert np.count_nonzero(res.attention == 0.0) > 0
    np.testing.assert_array_equal(public, res.attention)


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


FORWARDS = {
    "dkm": core.dkm_forward,
    "gumbel": functools.partial(baselines.gumbel_forward, draws=2),
}


@pytest.mark.parametrize("mode", sorted(FORWARDS))
def test_two_forwards_then_one_backward_match_separate_runs(mode):
    forward = FORWARDS[mode]
    rng = np.random.default_rng(94)
    # the second layer spans three tiles, the last one ragged
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
