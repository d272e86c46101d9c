import numpy as np
import pytest

from dkm import autodiff as ad
from dkm import baselines, core, harness
from dkm.core import Codebook, DkmConfig, SubvectorMatrix
from dkm.errors import DataError, NumericError, ParameterError, ResourceError, ShapeError

from helpers import central_diff, hard_attention, pairwise_sq_dists, rel_err


# ---------------------------------------------------------------------------
# hard assignment
# ---------------------------------------------------------------------------


def test_hard_attention_picks_nearest():
    a = hard_attention(np.array([[-1.0, -4.0]]))
    np.testing.assert_array_equal(a, [[1.0, 0.0]])


def test_hard_attention_tie_goes_to_lowest_index():
    a = hard_attention(np.array([[-2.0, -2.0]]))
    np.testing.assert_array_equal(a, [[1.0, 0.0]])


def test_hard_attention_matches_lloyd_assignment_step():
    rng = np.random.default_rng(71)
    w = rng.uniform(-1, 1, (30, 2))
    c = rng.uniform(-1, 1, (5, 2))
    a = hard_attention(-pairwise_sq_dists(w, c))
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
    hard = hard_attention(-d2)
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


def gumbel_rows(d: np.ndarray, temperature: float, seed: int) -> np.ndarray:
    """Row-major Gumbel attention of (m, k) distances: the kernel's sample, transposed."""
    return baselines.gumbel_sample(d.T, temperature, np.random.default_rng(seed)).T


def test_gumbel_hard_limit_yields_one_hot():
    rng = np.random.default_rng(81)
    d = -rng.uniform(0, 3, (10, 4))
    a = gumbel_rows(d, temperature=1e-9, seed=5)
    np.testing.assert_allclose(a.max(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_gumbel_hard_draw_frequencies_match_softmax():
    # Gumbel-max identity: hard draws at tau -> 0 are categorical samples with
    # probabilities softmax(d); their mean over n copies of one row
    # estimates the soft attention at temperature 1 to within Monte-Carlo
    # error.
    d = np.array([[-0.2, -1.1, -0.6, -2.0]])
    p = core.attention(ad.constant(d), temperature=1.0).value[0]
    n = 10_000
    mean = gumbel_rows(np.repeat(d, n, axis=0), temperature=1e-9, seed=17).mean(axis=0)
    sigma = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(mean - p) <= 3.0 * sigma)


def test_gumbel_rows_sum_to_one():
    rng = np.random.default_rng(82)
    d = -rng.uniform(0, 2, (7, 5))
    for seed in (1, 2, 16):
        a = gumbel_rows(d, temperature=0.7, seed=seed)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(a >= 0)


def test_gumbel_rejects_bad_parameters():
    d, rng = np.zeros((2, 1)), np.random.default_rng(0)
    for tau in (0.0, -1.0):
        with pytest.raises(ParameterError, match="temperature must be > 0"):
            baselines.gumbel_sample(d, temperature=tau, rng=rng)


def fresh_gumbel_sample(dist: np.ndarray, tau, rng) -> np.ndarray:
    """A Gumbel sample on fresh arrays: softmax(dist - log(-log(clip(u))))."""
    u = np.clip(rng.random(dist.shape[::-1]), 1e-300, 1.0 - 1e-16).T
    y = dist - np.log(-np.log(u)).astype(dist.dtype, copy=False)
    y = y - y.max(axis=0)
    y /= tau
    np.exp(y, out=y)
    y /= y.sum(axis=0)
    return y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [1, 3])
def test_gumbel_samples_in_reused_work_arrays_match_fresh_ones(dtype, seed):
    # bits=8, m=1300: tiles of the loop's size, the last one ragged, share
    # one set of work arrays as they do inside a forward or backward call
    k, m = 256, 1300
    tiles = core._row_tiles(m, k, np.dtype(dtype).itemsize)
    assert len(tiles) >= 2 and tiles[-1].stop - tiles[-1].start < tiles[0].stop - tiles[0].start
    dist = -np.random.default_rng(87).uniform(0, 3, (k, m)).astype(dtype)
    tau = dtype(0.3)  # nothing reaches the subnormal flush
    work = core._TileWork(k * (tiles[0].stop - tiles[0].start), {"noise": np.float64, "sample": dtype})
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rows in tiles:
        tile = np.ascontiguousarray(dist[:, rows])
        got = baselines.gumbel_sample(tile, tau, rng, work)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, fresh_gumbel_sample(tile, tau, ref_rng))
    assert rng.random() == ref_rng.random()


def test_hard_rule_matches_hard_attention_with_ties():
    rng = np.random.default_rng(88)
    dist = -rng.integers(0, 4, (8, 500)).astype(np.float64)  # many tied columns
    dist[:, :100] = -rng.uniform(0, 1, (8, 100))  # and some without ties
    dist[3] = dist[5]  # duplicate centroids tie in every column
    for tile in (dist[:, :100], dist):
        tile = np.ascontiguousarray(tile)
        one_hot = baselines._hard_rule(tile, core._TileWork(tile.size, {"sample": tile.dtype}), 0)
        np.testing.assert_array_equal(one_hot, hard_attention(tile.T).T)


def gumbel_noise(rng, m: int, k: int, tile_rows: int) -> np.ndarray:
    """(m, k) noise for one pass, drawn tile by tile as the fused loop does.

    Each tile of ``tile_rows`` rows draws (rows, k) uniforms, mapped
    through the Gumbel inverse CDF.
    """
    noise = np.empty((m, k))
    for lo in range(0, m, tile_rows):
        hi = min(lo + tile_rows, m)
        u = np.clip(rng.random((hi - lo, k)), 1e-300, 1.0 - 1e-16)
        noise[lo:hi] = -np.log(-np.log(u))
    return noise


def composed_gumbel_loop(w_node, start: np.ndarray, cfg: DkmConfig, seed: int, iterations: int):
    """w_tilde, attention and codebook of the Gumbel loop built from one node per step."""
    rng = np.random.default_rng(seed)
    m, k = w_node.shape[0], cfg.clusters
    tile_rows = core.TILE_BYTES // (k * 8)

    def noisy_attention(c):
        dist = core.distance_matrix(w_node, c, cfg.metric)
        noise = ad.constant(cfg.temperature * gumbel_noise(rng, m, k, tile_rows))
        return ad.row_softmax(ad.add(dist, noise), cfg.temperature)

    c = ad.constant(start)
    for _ in range(iterations):
        c = core.centroid_update(noisy_attention(c), w_node, prev=c)
    final = noisy_attention(c)
    return ad.matmul(final, c), final.value, c.value


# rows of one float64 tile at bits=8, and a layer of three such tiles,
# the last one partial
BITS8_TILE_ROWS = core.TILE_BYTES // (256 * 8)
THREE_TILE_ROWS = 2 * BITS8_TILE_ROWS + BITS8_TILE_ROWS // 2 + 20


def gumbel_attention(values, start, cfg, seed):
    """The (m, k) attention of gumbel_forward's loop, which it does not keep.

    Each tile draws from a fresh generator of the seed's stream, moved past
    the first * k uniforms of the tiles before it.
    """

    def rule(logits, work, first):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(first * logits.shape[0])
        return baselines.gumbel_sample(logits, 1.0, rng, work)

    rule.takes = {"noise": np.float64}
    return core._cluster_loop(ad.constant(values), Codebook(start), cfg, 0, rule).attention


# seed is the noise seed
@pytest.mark.parametrize(
    "m, bits, seed, metric",
    [
        (120, 2, 1, core.SQUARED_EUCLIDEAN),
        (120, 2, 3, core.SQUARED_EUCLIDEAN),
        (120, 3, 1, core.EUCLIDEAN),
        (120, 3, 3, core.EUCLIDEAN),
        (THREE_TILE_ROWS, 8, 2, core.SQUARED_EUCLIDEAN),
    ],
)
def test_fused_gumbel_matches_composed_loop(m, bits, seed, metric):
    cfg = DkmConfig(bits=bits, temperature=0.3, epsilon=0.0, max_iterations=3, metric=metric)
    if bits == 8:
        rows = core.TILE_BYTES // (cfg.clusters * 8)
        assert 2 * rows < m < 3 * rows
    rng = np.random.default_rng(86)
    values = rng.normal(size=(m, 1))
    target = rng.normal(size=(m, 1))
    start = core.init_centroids(SubvectorMatrix(values, m), cfg, seed=2).centroids

    leaf = ad.leaf(values)
    res = baselines.gumbel_forward(leaf, Codebook(start), cfg, seed=seed)
    ad.backward(ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target)))))

    ref_leaf = ad.leaf(values)
    ref_w_tilde, ref_attention, ref_codebook = composed_gumbel_loop(ref_leaf, start, cfg, seed, 3)
    ad.backward(ad.sum_all(ad.square(ad.sub(ref_w_tilde, ad.constant(target)))))

    assert res.telemetry.iterations_used == 3
    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-10
    assert rel_err(gumbel_attention(values, start, cfg, seed), ref_attention) <= 1e-10
    assert rel_err(res.w_tilde.value, ref_w_tilde.value) <= 1e-10
    assert rel_err(leaf.grad, ref_leaf.grad) <= 1e-10
    assert np.any(leaf.grad != 0)


def test_gumbel_draws_its_noise_inline_in_tile_order(monkeypatch):
    # on two tile workers, the Gumbel loop still draws the stream tile by
    # tile, as the composed loop does
    monkeypatch.setattr(core, "_max_workers", lambda: 2)
    m = THREE_TILE_ROWS
    cfg = DkmConfig(bits=8, temperature=0.3, epsilon=0.0, max_iterations=2)
    rng = np.random.default_rng(97)
    values, target = rng.normal(size=(m, 1)), rng.normal(size=(m, 1))
    start = core.init_centroids(SubvectorMatrix(values, m), cfg, seed=2).centroids

    leaf = ad.leaf(values)
    res = baselines.gumbel_forward(leaf, Codebook(start), cfg, seed=11)
    ad.backward(ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target)))))
    ref_leaf = ad.leaf(values)
    ref_w_tilde, _, ref_codebook = composed_gumbel_loop(ref_leaf, start, cfg, 11, 2)
    ad.backward(ad.sum_all(ad.square(ad.sub(ref_w_tilde, ad.constant(target)))))

    assert rel_err(res.codebook.centroids, ref_codebook) <= 1e-10
    assert rel_err(res.w_tilde.value, ref_w_tilde.value) <= 1e-10
    assert rel_err(leaf.grad, ref_leaf.grad) <= 1e-10


def test_gumbel_forward_runs_and_is_seeded():
    rng = np.random.default_rng(85)
    w = SubvectorMatrix(rng.normal(size=(16, 1)), 16)
    cfg = DkmConfig(bits=2, temperature=0.5)
    a = baselines.gumbel_forward(w, config=cfg, seed=9)
    b = baselines.gumbel_forward(w, config=cfg, seed=9)
    assert np.array_equal(a.w_tilde.value, b.w_tilde.value)
    assert np.array_equal(a.indices, b.indices)
    start = core.init_centroids(w, cfg, 9).centroids
    np.testing.assert_allclose(gumbel_attention(w.values, start, cfg, 9).sum(axis=1), 1.0, atol=1e-6)


def test_gumbel_indices_are_the_nearest_centroids_not_the_noisy_argmax():
    # at tau 0.5 the noise decides many rows' largest attention entry; the
    # indices still come from the distances to the returned codebook
    w, cfg = SubvectorMatrix(np.random.default_rng(86).normal(size=(512, 1)), 512), DkmConfig(bits=3, temperature=0.5)
    res = baselines.gumbel_forward(w, config=cfg, seed=2)
    nearest = np.argmin(pairwise_sq_dists(w.values, res.codebook.centroids), axis=1)
    np.testing.assert_array_equal(res.indices, nearest)
    attention = gumbel_attention(w.values, core.init_centroids(w, cfg, 2).centroids, cfg, 2)
    assert np.any(np.argmax(attention, axis=1) != nearest)


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
def test_gumbel_gradient_matches_finite_differences_with_fixed_noise(monkeypatch, kept, seed):
    # a fixed seed fixes the noise, so the loss is a smooth function of w;
    # each sample is softmax((dist + tau * g) / tau), whose gradient to the
    # distances carries one 1 / tau
    if not kept:
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
    rng = np.random.default_rng(89)
    values, target = rng.uniform(-1, 1, (24, 1)), rng.normal(size=(24, 1))
    cfg = DkmConfig(bits=2, temperature=0.3, epsilon=0.0, max_iterations=3)
    start = core.init_centroids(SubvectorMatrix(values, 24), cfg, seed=4)

    def loss(w):
        res = baselines.gumbel_forward(w, start, cfg, seed=seed)
        return ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target))))

    leaf = ad.leaf(values)
    ad.backward(loss(leaf))
    numeric = central_diff(lambda x: float(loss(ad.constant(x)).value[0, 0]), values)
    assert rel_err(leaf.grad, numeric) <= 1e-6


def test_fair_gumbel_training_beats_chance_on_the_battery():
    # the acceptance battery (criterion 7) at model seed 0: blobs at chance
    # read 0.2125, where Gumbel training ended when its categories were
    # softmax(dist) at temperature 1, whatever tau
    data = harness.make_dataset("blobs", 2000, 4, 0.5, seed=1)
    scheme = DkmConfig(bits=2, dim=1, temperature=0.002, epsilon=1e-4)
    spec = harness.ModelSpec((2, 64, 64, 4), (scheme,) * 3, seed=0, attention_mode="gumbel")
    model, _ = harness.train(harness.ToyModel(spec), data, harness.TrainConfig(epochs=15, seed=0))
    assert harness.evaluate(model, data, snapped=True) >= 0.9


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
    # neither mode builds the (m, k) attention (64 GiB here): Gumbel needs the
    # soft weights, the intp indices and one tile, hard (whose loop stops at
    # the indices) the indices and one tile, and each is refused one byte short
    w = SubvectorMatrix(np.zeros((131072, 1)), 131072)
    soft_weights = 8 if forward is baselines.gumbel_forward else 0
    need = 131072 * (soft_weights + np.dtype(np.intp).itemsize) + core.TILE_BYTES
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
