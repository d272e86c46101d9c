import numpy as np
import pytest

from dkm import autodiff as ad
from dkm import baselines, core
from dkm.core import Codebook, DkmConfig, SubvectorMatrix
from dkm.errors import DataError, NumericError, ParameterError, ResourceError, ShapeError

from helpers import pairwise_sq_dists, rel_err


# ---------------------------------------------------------------------------
# hard assignment
# ---------------------------------------------------------------------------


def test_hard_attention_picks_nearest():
    a = baselines.hard_attention(np.array([[-1.0, -4.0]]))
    np.testing.assert_array_equal(a, [[1.0, 0.0]])


def test_hard_attention_tie_goes_to_lowest_index():
    a = baselines.hard_attention(np.array([[-2.0, -2.0]]))
    np.testing.assert_array_equal(a, [[1.0, 0.0]])


def test_hard_attention_matches_lloyd_assignment_step():
    rng = np.random.default_rng(71)
    w = rng.uniform(-1, 1, (30, 2))
    c = rng.uniform(-1, 1, (5, 2))
    a = baselines.hard_attention(-pairwise_sq_dists(w, c))
    np.testing.assert_array_equal(np.argmax(a, axis=1), np.argmin(pairwise_sq_dists(w, c), axis=1))
    np.testing.assert_allclose(a.sum(axis=1), 1.0)


def test_hard_attention_is_limit_of_soft_attention():
    rng = np.random.default_rng(72)
    w = rng.uniform(-1, 1, (25, 2))
    c = rng.uniform(-1, 1, (4, 2))
    d2 = pairwise_sq_dists(w, c)
    gaps = np.partition(d2, 1, axis=1)
    clear = (gaps[:, 1] - gaps[:, 0]) > 1e-9

    scale = float(np.median(np.abs(d2)))
    soft = core.attention(ad.constant(-d2), temperature=1e-6 * scale).value
    hard = baselines.hard_attention(-d2)
    assert np.abs(soft[clear] - hard[clear]).max() <= 1e-6


def test_straight_through_routes_cluster_summed_gradients():
    rng = np.random.default_rng(73)
    w_vals = rng.normal(size=(6, 2))
    codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
    indices = np.array([0, 1, 0, 0, 1, 1])

    w = ad.leaf(w_vals)
    snapped = baselines.straight_through_reconstruct(w, indices, codebook)
    np.testing.assert_array_equal(snapped.value, codebook[indices])

    g_out = rng.normal(size=(6, 2))
    loss = ad.sum_all(ad.mul(snapped, ad.constant(g_out)))
    ad.backward(loss)

    expected = np.zeros_like(w_vals)
    for j in range(2):
        members = indices == j
        expected[members] = g_out[members].sum(axis=0)
    np.testing.assert_allclose(w.grad, expected, atol=1e-12)


def test_hard_forward_reconstruction_is_cluster_means():
    w = SubvectorMatrix(np.array([[0.0], [0.2], [10.0], [10.2]]), 4)
    cfg = DkmConfig(bits=1, temperature=0.5, max_iterations=5)
    res = baselines.hard_forward(w, config=cfg, seed=0)
    snapped = sorted(set(res.w_tilde.value.ravel().tolist()))
    np.testing.assert_allclose(snapped, [0.1, 10.1], atol=1e-12)
    assert res.telemetry.iterations_used <= 5
    assert res.indices[0] == res.indices[1] != res.indices[2] == res.indices[3]
    np.testing.assert_array_equal(res.w_tilde.value, res.codebook.centroids[res.indices])


# ---------------------------------------------------------------------------
# Gumbel-softmax assignment
# ---------------------------------------------------------------------------


def gumbel_mean(d: np.ndarray, temperature: float, seed: int, draws: int = 1) -> np.ndarray:
    """Row-major Gumbel attention of (m, k) distances: the mean of the kernel's samples."""
    samples = baselines.gumbel_samples(d.T, temperature, np.random.default_rng(seed), draws)
    return np.mean(samples, axis=0).T


def test_gumbel_hard_limit_yields_one_hot():
    rng = np.random.default_rng(81)
    d = -rng.uniform(0, 3, (10, 4))
    a = gumbel_mean(d, temperature=1e-9, seed=5, draws=1)
    np.testing.assert_allclose(a.max(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_gumbel_hard_draw_frequencies_match_softmax():
    # Gumbel-max identity: hard draws at tau -> 0 are categorical samples with
    # probabilities softmax(d); their mean estimates the soft attention at
    # temperature 1 to within Monte-Carlo error.
    d = np.array([[-0.2, -1.1, -0.6, -2.0]])
    p = core.attention(ad.constant(d), temperature=1.0).value[0]
    n = 10_000
    mean = gumbel_mean(d, temperature=1e-9, seed=17, draws=n)[0]
    sigma = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(mean - p) <= 3.0 * sigma)


def test_gumbel_rows_sum_to_one_for_any_draw_count():
    rng = np.random.default_rng(82)
    d = -rng.uniform(0, 2, (7, 5))
    for draws in (1, 2, 16):
        a = gumbel_mean(d, temperature=0.7, seed=3, draws=draws)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(a >= 0)


def test_gumbel_averaging_reduces_variance():
    rng = np.random.default_rng(83)
    d = -rng.uniform(0, 2, (6, 4))

    def samples(draws):
        return np.stack([gumbel_mean(d, 1.0, seed=s, draws=draws) for s in range(200)])

    var1 = samples(1).var(axis=0).mean()
    var16 = samples(16).var(axis=0).mean()
    assert var16 < var1


def test_gumbel_rejects_bad_parameters():
    d, rng = np.zeros((2, 1)), np.random.default_rng(0)
    with pytest.raises(ParameterError):
        baselines.gumbel_samples(d, temperature=0.0, rng=rng)
    with pytest.raises(ParameterError):
        baselines.gumbel_samples(d, temperature=1.0, rng=rng, draws=0)
    w = SubvectorMatrix(np.arange(8.0).reshape(-1, 1), 8)
    with pytest.raises(ParameterError, match="draws must be >= 1"):
        baselines.gumbel_forward(w, config=DkmConfig(bits=2), draws=0)


def fresh_gumbel_samples(dist: np.ndarray, tau, rng, draws: int) -> list[np.ndarray]:
    """Gumbel samples on fresh arrays: softmax(dist - log(-log(clip(u)))) per draw."""
    samples = []
    for _ in range(draws):
        u = np.clip(rng.random(dist.shape[::-1]), 1e-300, 1.0 - 1e-16).T
        y = dist - np.log(-np.log(u)).astype(dist.dtype, copy=False)
        y = y - y.max(axis=0)
        y /= tau
        np.exp(y, out=y)
        y /= y.sum(axis=0)
        samples.append(y)
    return samples


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("draws", [1, 3])
def test_gumbel_samples_in_reused_work_arrays_match_fresh_ones(dtype, draws):
    # bits=8, m=1300: tiles of the loop's size, the last one ragged, share
    # one set of work arrays as they do inside a forward or backward call
    k, m = 256, 1300
    tiles = core._row_tiles(m, k, np.dtype(dtype).itemsize)
    assert len(tiles) >= 2 and tiles[-1].stop - tiles[-1].start < tiles[0].stop - tiles[0].start
    dist = -np.random.default_rng(87).uniform(0, 3, (k, m)).astype(dtype)
    tau = dtype(0.3)  # nothing reaches the subnormal flush
    work = core._TileWork(k * (tiles[0].stop - tiles[0].start))
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    for rows in tiles:
        tile = np.ascontiguousarray(dist[:, rows])
        got = baselines.gumbel_samples(tile, tau, rng, draws, work)
        want = fresh_gumbel_samples(tile, tau, ref_rng, draws)
        assert len(got) == draws
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, w)
    assert rng.random() == ref_rng.random()


def test_hard_rule_matches_hard_attention_with_ties():
    rng = np.random.default_rng(88)
    dist = -rng.integers(0, 4, (8, 500)).astype(np.float64)  # many tied columns
    dist[:, :100] = -rng.uniform(0, 1, (8, 100))  # and some without ties
    dist[3] = dist[5]  # duplicate centroids tie in every column
    for tile in (dist[:, :100], dist):
        tile = np.ascontiguousarray(tile)
        (one_hot,) = baselines._hard_rule(tile, 1.0, core._TileWork(tile.size))
        np.testing.assert_array_equal(one_hot, baselines.hard_attention(tile.T).T)


def gumbel_noise(rng, m: int, k: int, draws: int, tile_rows: int) -> np.ndarray:
    """(draws, m, k) noise for one pass, drawn tile by tile as the fused loop does.

    Each tile of ``tile_rows`` rows draws its ``draws`` noise blocks in turn,
    each as (rows, k) uniforms mapped through the Gumbel inverse CDF.
    """
    noise = np.empty((draws, m, k))
    for lo in range(0, m, tile_rows):
        hi = min(lo + tile_rows, m)
        for j in range(draws):
            u = np.clip(rng.random((hi - lo, k)), 1e-300, 1.0 - 1e-16)
            noise[j, lo:hi] = -np.log(-np.log(u))
    return noise


def composed_gumbel_loop(w_node, start: np.ndarray, cfg: DkmConfig, seed: int, draws: int, iterations: int):
    """w_tilde, attention and codebook of the Gumbel loop built from one node per step."""
    rng = np.random.default_rng(seed)
    m, k = w_node.shape[0], cfg.clusters
    tile_rows = core.TILE_BYTES // (k * 8)

    def noisy_attention(c):
        dist = core.distance_matrix(w_node, c, cfg.metric)
        total = None
        for noise in gumbel_noise(rng, m, k, draws, tile_rows):
            sample = ad.row_softmax(ad.add(dist, ad.constant(noise)), cfg.temperature)
            total = sample if total is None else ad.add(total, sample)
        return ad.scalar_mul(total, 1.0 / draws)

    c = ad.constant(start)
    for _ in range(iterations):
        c = core.centroid_update(noisy_attention(c), w_node, prev=c)
    final = noisy_attention(c)
    return ad.matmul(final, c), final.value, c.value


def gumbel_attention(values, start, cfg, seed, draws=1):
    """The (m, k) attention of gumbel_forward's loop, which it does not keep."""
    rng = np.random.default_rng(seed)

    def rule(dist, tau, work):
        return baselines.gumbel_samples(dist, tau, rng, draws, work)

    return core._cluster_loop(ad.constant(values), Codebook(start), cfg, 0, rule, rng).attention


@pytest.mark.parametrize(
    "m, bits, draws, metric",
    [
        (120, 2, 1, core.SQUARED_EUCLIDEAN),
        (120, 2, 3, core.SQUARED_EUCLIDEAN),
        (120, 3, 1, core.EUCLIDEAN),
        (120, 3, 3, core.EUCLIDEAN),
        (1300, 8, 2, core.SQUARED_EUCLIDEAN),  # three tiles, the last one partial
    ],
)
def test_fused_gumbel_matches_composed_loop(m, bits, draws, metric):
    cfg = DkmConfig(bits=bits, temperature=0.3, epsilon=0.0, max_iterations=3, metric=metric)
    if m > 1000:
        rows = core.TILE_BYTES // (cfg.clusters * 8)
        assert 2 * rows < m < 3 * rows
    rng = np.random.default_rng(86)
    values = rng.normal(size=(m, 1))
    target = rng.normal(size=(m, 1))
    start = core.init_centroids(SubvectorMatrix(values, m), cfg, seed=2).centroids

    leaf = ad.leaf(values)
    res = baselines.gumbel_forward(leaf, Codebook(start), cfg, seed=11, draws=draws)
    ad.backward(ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target)))))

    ref_leaf = ad.leaf(values)
    ref_w_tilde, ref_attention, ref_codebook = composed_gumbel_loop(ref_leaf, start, cfg, 11, draws, 3)
    ad.backward(ad.sum_all(ad.square(ad.sub(ref_w_tilde, ad.constant(target)))))

    assert res.telemetry.iterations_used == 3
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-10
    assert rel_err(gumbel_attention(values, start, cfg, 11, draws), ref_attention) <= 1e-10
    assert rel_err(res.w_tilde.value, ref_w_tilde.value) <= 1e-10
    assert rel_err(leaf.grad, ref_leaf.grad) <= 1e-10
    assert np.any(leaf.grad != 0)


def test_gumbel_forward_runs_and_is_seeded():
    rng = np.random.default_rng(85)
    w = SubvectorMatrix(rng.normal(size=(16, 1)), 16)
    cfg = DkmConfig(bits=2, temperature=0.5)
    a = baselines.gumbel_forward(w, config=cfg, seed=9, draws=2)
    b = baselines.gumbel_forward(w, config=cfg, seed=9, draws=2)
    assert np.array_equal(a.w_tilde.value, b.w_tilde.value)
    assert np.array_equal(a.indices, b.indices)
    start = core.init_centroids(w, cfg, 9).centroids
    np.testing.assert_allclose(gumbel_attention(w.values, start, cfg, 9, 2).sum(axis=1), 1.0, atol=1e-6)


def test_gumbel_indices_are_the_nearest_centroids_not_the_noisy_argmax():
    # at tau 0.5 the noise decides many rows' largest attention entry; the
    # indices still come from the distances to the returned codebook
    w, cfg = SubvectorMatrix(np.random.default_rng(86).normal(size=(512, 1)), 512), DkmConfig(bits=3, temperature=0.5)
    res = baselines.gumbel_forward(w, config=cfg, seed=2)
    nearest = np.argmin(pairwise_sq_dists(w.values, res.codebook.centroids), axis=1)
    np.testing.assert_array_equal(res.indices, nearest)
    attention = gumbel_attention(w.values, core.init_centroids(w, cfg, 2).centroids, cfg, 2)
    assert np.any(np.argmax(attention, axis=1) != nearest)


@pytest.mark.parametrize("forward", [baselines.hard_forward, baselines.gumbel_forward])
def test_baseline_warm_start_shape_checked(forward):
    # 8 centroids offered to a bits=2 (4-cluster) layer
    w = SubvectorMatrix(np.arange(16.0).reshape(-1, 1), 16)
    warm = Codebook(np.arange(8.0).reshape(-1, 1))
    with pytest.raises(ShapeError, match=r"warm start shape \(8, 1\) != \(4, 1\)"):
        forward(w, warm_start=warm, config=DkmConfig(bits=2), seed=0)


def test_gumbel_forward_nonfinite_iterate_names_iteration():
    w = SubvectorMatrix(np.full((8, 1), 1e200), 8)  # distance expansion overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite centroids at iteration 1"):
            baselines.gumbel_forward(w, config=DkmConfig(bits=2, temperature=0.5), seed=0)


@pytest.mark.parametrize("forward", [baselines.gumbel_forward, baselines.hard_forward])
def test_gumbel_forward_refuses_layer_larger_than_memory(forward, monkeypatch):
    # neither mode builds the (m, k) attention (64 GiB here): each needs the
    # soft weights, the intp indices and one tile, and is refused one byte short
    w = SubvectorMatrix(np.zeros((131072, 1)), 131072)
    need = 131072 * (8 + np.dtype(np.intp).itemsize) + core.TILE_BYTES
    monkeypatch.setattr(core, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ResourceError, match=f"needs about {need} bytes, more than the {need - 1} bytes"):
        forward(w, config=DkmConfig(bits=16), seed=0)


# ---------------------------------------------------------------------------
# Lloyd k-means
# ---------------------------------------------------------------------------


def test_lloyd_two_obvious_clusters():
    w = SubvectorMatrix(np.array([[0.0], [0.0], [10.0], [10.0]]), 4)
    res = baselines.lloyd_kmeans(w, k=2, seed=0)
    np.testing.assert_allclose(sorted(res.codebook.centroids.ravel()), [0.0, 10.0], atol=1e-12)


def test_lloyd_k_equals_n_zero_objective():
    rng = np.random.default_rng(91)
    pts = rng.uniform(-1, 1, (6, 2))
    res = baselines.lloyd_kmeans(SubvectorMatrix(pts, pts.size), k=6, seed=4)
    assert res.objective <= 1e-24
    assert len(set(res.assignments.tolist())) == 6


def _best_contiguous_objective(points: np.ndarray, k: int) -> float:
    # For 1-d squared-error k-means the optimal clusters are contiguous in
    # sorted order, so exhaustive search reduces to all split placements.
    xs = np.sort(points)
    n = len(xs)
    best = np.inf
    def seg(lo, hi):
        s = xs[lo:hi]
        return float(((s - s.mean()) ** 2).sum()) if len(s) else 0.0
    for i in range(1, n - k + 2):
        for j in range(i + 1, n - k + 3):
            best = min(best, seg(0, i) + seg(i, j) + seg(j, n))
    return best


def test_lloyd_matches_exhaustive_search_tiny_1d():
    rng = np.random.default_rng(92)
    points = rng.uniform(0, 10, 20)
    res = baselines.lloyd_kmeans(SubvectorMatrix(points.reshape(-1, 1), 20), k=3, seed=2)
    assert abs(res.objective - _best_contiguous_objective(points, 3)) <= 1e-9


def test_lloyd_objective_is_nonincreasing():
    rng = np.random.default_rng(93)
    pts = rng.normal(size=(50, 2))
    res = baselines.lloyd_kmeans(SubvectorMatrix(pts, pts.size), k=4, seed=1)
    for prev, nxt in zip(res.objective_trace, res.objective_trace[1:]):
        assert nxt <= prev + 1e-12


def test_lloyd_seeds_like_kmeans_pp_init():
    rng = np.random.default_rng(94)
    w = SubvectorMatrix(rng.normal(size=(40, 1)), 40)
    for seed in (0, 5, 31):
        lloyd = baselines.lloyd_kmeans(w, 4, seed, max_iter=0)
        init = core.init_centroids(w, DkmConfig(bits=2, init=core.KMEANS_PP), seed)
        np.testing.assert_array_equal(lloyd.codebook.centroids, init.centroids)


def test_lloyd_insufficient_data():
    with pytest.raises(DataError):
        baselines.lloyd_kmeans(SubvectorMatrix(np.zeros((2, 1)), 2), k=3, seed=0)


# ---------------------------------------------------------------------------
# EM for fixed-variance GMM
# ---------------------------------------------------------------------------


def test_em_single_cluster():
    rng = np.random.default_rng(101)
    w = SubvectorMatrix(rng.normal(size=(12, 2)), 24)
    resp, centers, _ = baselines.em_gmm_step(w, baselines.GmmState(w.values[:1], 0.5))
    np.testing.assert_allclose(resp, 1.0)
    np.testing.assert_allclose(centers[0], w.values.mean(axis=0), atol=1e-12)


def test_em_responsibilities_match_attention_and_update():
    rng = np.random.default_rng(102)
    tau = 0.2
    w = SubvectorMatrix(rng.normal(size=(30, 2)), 60)
    c = Codebook(rng.normal(size=(8, 2)))

    resp, centers, _ = baselines.em_gmm_step(w, baselines.GmmState(c.centroids, tau / 2.0))
    attn = core.attention(core.distance_matrix(w, c), temperature=tau)
    update = core.centroid_update(attn, ad.constant(w.values))
    np.testing.assert_allclose(resp, attn.value, atol=1e-10)
    np.testing.assert_allclose(centers, update.value, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("variance", [1e-6, 0.025, 3.0])
def test_em_step_matches_naive_reference(dim, variance):
    rng = np.random.default_rng(105)
    w = rng.normal(size=(50, dim))
    c = rng.normal(size=(6, dim))
    resp, centers, ll = baselines.em_gmm_step(SubvectorMatrix(w, w.size), baselines.GmmState(c, variance))

    log_density = -0.5 * dim * np.log(2.0 * np.pi * variance) - pairwise_sq_dists(w, c) / (2.0 * variance)
    row_max = log_density.max(axis=1, keepdims=True)
    weights = np.exp(log_density - row_max)
    ref_resp = weights / weights.sum(axis=1, keepdims=True)
    ref_centers = c.copy()  # a cluster whose mass underflows keeps its center
    for j in range(6):
        mass = ref_resp[:, j].sum()
        if mass >= core.EMPTY_CLUSTER_THRESHOLD:
            ref_centers[j] = (ref_resp[:, j, None] * w).sum(axis=0) / mass
    ref_ll = np.sum(row_max[:, 0] + np.log(weights.sum(axis=1))) - 50 * np.log(6)
    np.testing.assert_allclose(resp, ref_resp, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(centers, ref_centers, rtol=1e-9, atol=1e-12)
    assert ll == pytest.approx(ref_ll, rel=1e-12)


def test_em_log_likelihood_nondecreasing():
    rng = np.random.default_rng(103)
    w = SubvectorMatrix(rng.normal(size=(40, 1)), 40)
    state = baselines.GmmState(w.values[rng.choice(40, 4, replace=False)], 0.15)
    last = -np.inf
    for _ in range(10):
        _, centers, ll = baselines.em_gmm_step(w, state)
        assert ll >= last - 1e-9
        last = ll
        state = baselines.GmmState(centers, state.variance)


def test_em_survives_tiny_variance():
    rng = np.random.default_rng(104)
    w = SubvectorMatrix(rng.uniform(0, 1, (20, 1)), 20)
    state = baselines.GmmState(w.values[:4], 4e-6)
    resp, centers, ll = baselines.em_gmm_step(w, state)
    assert np.all(np.isfinite(resp)) and np.all(np.isfinite(centers)) and np.isfinite(ll)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_state_rejects_bad_variance():
    with pytest.raises(ParameterError):
        baselines.GmmState(np.zeros((2, 1)), 0.0)
