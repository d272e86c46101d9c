import io
import json

import numpy as np
import pytest

from dkm import harness as hz
from dkm.core import DkmConfig
from dkm.errors import DataError, NumericError, ParameterError


def blobs(n=500, noise=0.5, seed=1):
    return hz.make_dataset("blobs", n, 4, noise, seed)


def mlp_spec(schemes, mode, seed=0, dims=(2, 16, 16, 4)):
    return hz.ModelSpec(dims, schemes, seed=seed, attention_mode=mode)


def scheme(bits=2, tau=0.002, **kw):
    return DkmConfig(bits=bits, dim=1, temperature=tau, **kw)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_blobs_noise_free_is_linearly_separable():
    data = hz.make_dataset("blobs", 400, 4, 0.0, seed=2)
    spec = hz.ModelSpec((2, 4), (None,), seed=0, attention_mode="none")
    model, _ = hz.train(hz.ToyModel(spec), data, hz.TrainConfig(epochs=25, seed=0))
    assert hz.evaluate(model, data, snapped=True) == 1.0


def test_dataset_same_seed_identical():
    a = blobs(seed=9)
    b = blobs(seed=9)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.val_y, b.val_y)


def test_dataset_split_sizes():
    data = blobs(n=1000)
    assert data.train_x.shape == (800, 2)
    assert data.val_x.shape == (200, 2)


def test_class_center_oracle_tracks_noise():
    clean = hz.make_dataset("blobs", 2000, 4, 0.5, seed=1)
    noisy = hz.make_dataset("blobs", 2000, 4, 1.6, seed=1)
    assert hz.class_center_accuracy(clean) == 1.0
    assert hz.class_center_accuracy(noisy) < 1.0
    # moons have no class centers
    with pytest.raises(ParameterError, match="dataset has no class centers"):
        hz.class_center_accuracy(hz.make_dataset("moons", 200, 2, 0.05, seed=0))


def test_moons_requires_two_classes():
    with pytest.raises(ParameterError):
        hz.make_dataset("moons", 100, 3, 0.1, seed=0)
    data = hz.make_dataset("moons", 200, 2, 0.05, seed=0)
    assert set(np.unique(data.train_y)) <= {0, 1}


def test_unknown_dataset_kind():
    with pytest.raises(ParameterError):
        hz.make_dataset("spirals", 100, 2, 0.1, seed=0)


@pytest.mark.parametrize(
    "args, field", [(("moons", 100, 3, 0.1, 0), "classes"), (("blobs", 3, 4, 0.1, 0), "n")]
)
def test_dataset_rules_across_arguments_name_one_field(args, field):
    with pytest.raises(ParameterError) as info:
        hz.make_dataset(*args)
    assert list(info.value.fields) == [field]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_uncompressed_training_reaches_95_percent():
    data = hz.make_dataset("blobs", 2000, 4, 0.5, seed=1)
    spec = hz.ModelSpec((2, 64, 64, 4), (None, None, None), seed=0, attention_mode="none")
    model, log = hz.train(hz.ToyModel(spec), data, hz.TrainConfig(epochs=15, seed=0))
    assert hz.evaluate(model, data, snapped=True) >= 0.95
    assert len(log) == 15 * 25  # 1600 train points / 64 batch


def test_high_bit_clustering_is_near_lossless():
    data = blobs(n=800)
    base, _ = hz.train(
        hz.ToyModel(mlp_spec((None, None, None), "none")), data, hz.TrainConfig(epochs=12, seed=3)
    )
    # 2->16->16->4 layer sizes: 32, 256, 64 weights; bits capped by layer size
    schemes = (scheme(bits=5), scheme(bits=8), scheme(bits=6))
    comp, _ = hz.train(
        hz.ToyModel(mlp_spec(schemes, "dkm")), data, hz.TrainConfig(epochs=12, seed=3)
    )
    acc_base = hz.evaluate(base, data, snapped=True)
    acc_comp = hz.evaluate(comp, data, snapped=True)
    assert abs(acc_base - acc_comp) <= 0.01


def test_soft_beats_hard_at_low_bits_single_seed():
    data = blobs(n=600)
    cfgs = (scheme(), scheme(), scheme())
    dkm_model, _ = hz.train(hz.ToyModel(mlp_spec(cfgs, "dkm")), data, hz.TrainConfig(epochs=10, seed=2))
    hard_model, _ = hz.train(hz.ToyModel(mlp_spec(cfgs, "hard")), data, hz.TrainConfig(epochs=10, seed=2))
    assert hz.evaluate(dkm_model, data, True) >= hz.evaluate(hard_model, data, True)


def test_training_is_bit_reproducible():
    data = blobs()
    cfgs = (scheme(), None, scheme())

    def run():
        model, log = hz.train(hz.ToyModel(mlp_spec(cfgs, "dkm", seed=5)), data, hz.TrainConfig(epochs=3, seed=5))
        return model, log

    m1, log1 = run()
    m2, log2 = run()
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    assert [m.loss for m in log1] == [m.loss for m in log2]
    assert [m.layer_errors for m in log1] == [m.layer_errors for m in log2]


def test_gumbel_mode_trains_and_logs():
    data = blobs(n=400)
    cfgs = (scheme(tau=0.05), None, None)
    spec = hz.ModelSpec((2, 16, 16, 4), cfgs, seed=1, attention_mode="gumbel")
    model, log = hz.train(hz.ToyModel(spec), data, hz.TrainConfig(epochs=2, seed=1))
    assert all(0 in m.layer_iterations for m in log)
    acc = hz.evaluate(model, data, snapped=True)
    assert 0.0 <= acc <= 1.0


def test_divergence_aborts_with_diagnostic():
    data = blobs(n=200)
    model = hz.ToyModel(mlp_spec((None, None, None), "none"))
    model.weights[0][:] = 1e308  # poison: overflow on the first matmul
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 0 batch 0"):
            hz.train(model, data, hz.TrainConfig(epochs=1, seed=0))


def test_divergence_in_the_clustering_loop_names_epoch_batch_and_iteration():
    data = blobs(n=200)
    model = hz.ToyModel(mlp_spec((scheme(), scheme(), None), "dkm"))
    model.weights[1][0, 0] = 1e308  # 2 c w / tau overflows its logits at the first pass
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as info:
            hz.train(model, data, hz.TrainConfig(epochs=1, seed=0))
    assert str(info.value) == "divergence at epoch 0 batch 0: layer 1: non-finite centroids at iteration 1"


def test_iteration_counts_respect_cap():
    data = blobs(n=400)
    cfgs = (scheme(max_iterations=3), scheme(max_iterations=3), scheme(max_iterations=3))
    _, log = hz.train(hz.ToyModel(mlp_spec(cfgs, "dkm")), data, hz.TrainConfig(epochs=2, seed=0))
    assert all(1 <= it <= 3 for m in log for it in m.layer_iterations.values())


def test_model_rejects_undersized_layers():
    with pytest.raises(DataError, match="layer 0"):
        hz.ToyModel(mlp_spec((scheme(bits=8), None, None), "dkm"))


def test_spec_names_every_layer_too_small_for_its_scheme():
    with pytest.raises(DataError) as info:
        hz.ModelSpec((2, 8, 4), (scheme(bits=5), scheme(bits=6)))
    message = str(info.value)
    assert "layer 0: 16 sub-vectors cannot seed 32 clusters" in message
    assert "layer 1: 32 sub-vectors cannot seed 64 clusters" in message
    hz.ModelSpec((2, 8, 4), (scheme(bits=4), scheme(bits=5)))  # exactly enough


def test_spec_validation():
    with pytest.raises(ParameterError):
        hz.ModelSpec((2,), (), seed=0)
    with pytest.raises(ParameterError):
        hz.ModelSpec((2, 4), (None, None), seed=0)
    with pytest.raises(ParameterError):
        hz.ModelSpec((2, 4), (None,), attention_mode="fuzzy")
    with pytest.raises(ParameterError):
        hz.TrainConfig(momentum=1.0)
    with pytest.raises(ParameterError):
        hz.TrainConfig(learning_rate=0.0)
    for kwargs in ({"epochs": 1.5}, {"batch_size": True}, {"seed": -1}, {"learning_rate": "x"}, {"momentum": None}):
        with pytest.raises(ParameterError):
            hz.TrainConfig(**kwargs)
    with pytest.raises(ParameterError):
        hz.ModelSpec((2, 4.0), (None,))
    with pytest.raises(ParameterError):
        hz.ModelSpec((2, 4), ({"bits": 2},))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_snapped_flag_noop_for_uncompressed():
    data = blobs(n=300)
    model, _ = hz.train(
        hz.ToyModel(mlp_spec((None, None, None), "none")), data, hz.TrainConfig(epochs=2, seed=0)
    )
    assert hz.evaluate(model, data, True) == hz.evaluate(model, data, False)


def test_evaluate_fresh_compressed_model():
    data = blobs(n=300)
    model = hz.ToyModel(mlp_spec((scheme(), scheme(), scheme()), "dkm"))
    for snapped in (True, False):
        acc = hz.evaluate(model, data, snapped)
        assert 0.0 <= acc <= 1.0


def test_evaluate_soft_and_snapped_agree_after_training():
    data = blobs(n=800)
    model, _ = hz.train(
        hz.ToyModel(mlp_spec((scheme(), scheme(), scheme()), "dkm")),
        data,
        hz.TrainConfig(epochs=12, seed=4),
    )
    soft = hz.evaluate(model, data, snapped=False)
    hard = hz.evaluate(model, data, snapped=True)
    assert abs(soft - hard) <= 0.05


def test_evaluate_matches_a_numpy_forward_of_its_weights():
    # dim 3 zero-pads both layers' last sub-vector (10 and 20 weights); at
    # tau 1 the soft weights sit far enough from the snapped ones that the
    # two accuracies differ
    cfg = DkmConfig(bits=1, dim=3, temperature=1.0)
    data = blobs(n=300)
    model, _ = hz.train(
        hz.ToyModel(mlp_spec((cfg, cfg), "dkm", dims=(2, 5, 4))), data, hz.TrainConfig(epochs=2, seed=0)
    )
    assert hz.evaluate(model, data, False) != hz.evaluate(model, data, True)
    for snapped in (False, True):
        h = data.val_x
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            st = model.state[i]
            values = st.codebook.centroids[st.indices] if snapped else st.w_tilde
            h = h @ values.reshape(-1)[: w.size].reshape(w.shape) + b
            if i < model.layers - 1:
                h = np.maximum(h, 0.0)
        assert hz.evaluate(model, data, snapped) == np.mean(np.argmax(h, axis=1) == data.val_y)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_dkm_model():
    data = blobs(n=300)
    cfg = DkmConfig(bits=2, dim=3, temperature=0.05)
    model, _ = hz.train(
        hz.ToyModel(mlp_spec((cfg, None), "dkm", dims=(2, 5, 4))), data, hz.TrainConfig(epochs=2, seed=0)
    )
    return model, data


def test_model_file_stores_indices_and_round_trips(tmp_path, trained_dkm_model):
    model, data = trained_dkm_model
    path = tmp_path / "model.npz"
    hz.save_model(model, path, dataset_args={"kind": "blobs"})
    with np.load(path) as archive:
        meta = json.loads(str(archive["meta"]))
        # one Gumbel sample per row, a key that earlier readers require
        assert meta["format_version"] == 2 and meta["draws"] == 1
        assert "st0_idx" in archive and "st0_att" not in archive and "st1_idx" not in archive
    loaded, dataset_args = hz.load_model(path)
    assert dataset_args == {"kind": "blobs"}
    np.testing.assert_array_equal(loaded.state[0].indices, model.state[0].indices)
    assert loaded.state[0].indices.dtype == np.intp
    for snapped in (False, True):
        assert hz.evaluate(loaded, data, snapped) == hz.evaluate(model, data, snapped)


def test_model_file_version_1_with_attention_still_loads(tmp_path, trained_dkm_model):
    # the old layout, written by hand: no format_version, and the (m, k)
    # attention as st0_att, whose row argmax gives the indices
    model, data = trained_dkm_model
    st = model.state[0]
    attention = np.full((st.indices.size, 4), 0.1)
    attention[np.arange(st.indices.size), st.indices] = 0.7
    meta = {
        "layer_dims": [2, 5, 4],
        "schemes": [dict(bits=2, dim=3, temperature=0.05, epsilon=1e-4, max_iterations=5,
                         metric="squared_euclidean", init="random_sample"), None],
        "seed": 0, "attention_mode": "dkm", "draws": 1, "dataset_args": None,
    }
    path = tmp_path / "old.npz"
    np.savez(
        path, meta=np.array(json.dumps(meta)), w0=model.weights[0], b0=model.biases[0],
        w1=model.weights[1], b1=model.biases[1], warm0=model.state[0].codebook.centroids,
        st0_wt=st.w_tilde, st0_att=attention, st0_cb=st.codebook.centroids, st0_it=np.array(st.iterations),
    )
    loaded, dataset_args = hz.load_model(path)
    assert dataset_args is None
    np.testing.assert_array_equal(loaded.state[0].indices, st.indices)
    for snapped in (False, True):
        assert hz.evaluate(loaded, data, snapped) == hz.evaluate(model, data, snapped)


def test_model_file_of_unknown_version_is_a_data_error(tmp_path, trained_dkm_model):
    path = tmp_path / "model.npz"
    hz.save_model(trained_dkm_model[0], path)
    with np.load(path) as archive:
        arrays = dict(archive)
    meta = json.loads(str(arrays["meta"]))
    meta["format_version"] = 3
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(DataError, match="format version 3"):
        hz.load_model(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda idx: np.where(idx == idx[0], -1, idx), r"outside \[0, 4\)"),
        (lambda idx: np.full_like(idx, 4), r"outside \[0, 4\)"),
        (lambda idx: idx[:-1], r"shape \(\d+,\), not one per sub-vector"),
        (lambda idx: idx.astype(np.float64), "not integer"),
    ],
    ids=["negative", "past_the_codebook", "short", "float"],
)
def test_model_file_with_bad_indices_is_a_data_error(tmp_path, trained_dkm_model, corrupt, message):
    path = tmp_path / "model.npz"
    hz.save_model(trained_dkm_model[0], path)
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays["st0_idx"] = corrupt(arrays["st0_idx"])
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=message):
        hz.load_model(path)


@pytest.mark.parametrize(
    "key, shape, message",
    [
        ("st0_cb", (4, 0), r"st0_cb has shape \(4, 0\), not \(4, 3\)"),
        ("st0_cb", (8, 3), r"st0_cb has shape \(8, 3\), not \(4, 3\)"),
        ("st0_wt", (4, 2), r"st0_wt has shape \(4, 2\), not \(4, 3\)"),
        ("st0_wt", (12,), r"st0_wt has shape \(12,\), not \(4, 3\)"),
    ],
    ids=["empty_codebook", "codebook_of_other_bits", "soft_weights_of_other_dim", "flat_soft_weights"],
)
def test_model_file_with_misshapen_state_is_a_data_error(tmp_path, trained_dkm_model, key, shape, message):
    path = tmp_path / "model.npz"
    hz.save_model(trained_dkm_model[0], path)
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays[key] = np.zeros(shape)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=message):
        hz.load_model(path)


def edit_meta(arrays, edit):
    meta = json.loads(str(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.array(json.dumps(meta))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda arrays: arrays.pop("st0_it"), "model file has no st0_it array"),
        (lambda arrays: arrays.update(st0_it=np.zeros(3)), r"st0_it has shape \(3,\), not \(\)"),
        (lambda arrays: arrays.pop("b1"), "model file has no b1 array"),
        (lambda arrays: edit_meta(arrays, lambda meta: meta.pop("draws")), "model file meta is malformed: KeyError..draws"),
        (lambda arrays: edit_meta(arrays, lambda meta: meta.update(draws=2)), r"meta draws must be in \[1, 1\], got 2"),
        (lambda arrays: edit_meta(arrays, lambda meta: meta.update(draws=True)), "meta draws must be an integer, got True"),
        (lambda arrays: edit_meta(arrays, lambda meta: meta["schemes"].__setitem__(0, None)),
         "layer 0 has clustering state but no scheme"),
        (
            lambda arrays: edit_meta(arrays, lambda meta: meta["schemes"][0].update(colour="red")),
            "model file meta is malformed: TypeError",
        ),
        (lambda arrays: arrays.update(w0=np.zeros((3, 3))), r"w0 has shape \(3, 3\), not \(2, 5\)"),
        (lambda arrays: arrays.update(b1=np.zeros(4)), r"b1 has shape \(4,\), not \(1, 4\)"),
        (lambda arrays: arrays.update(meta=np.array("{not json")), "model file meta is not JSON"),
        (lambda arrays: arrays.update(meta=np.array("[1]")), "model file meta is a JSON list, not an object"),
    ],
    ids=[
        "no_iterations", "iterations_not_scalar", "no_bias", "no_draws", "two_draws", "draws_not_an_integer",
        "state_without_scheme", "unknown_scheme_key",
        "weights_of_other_shape", "flat_bias", "meta_not_json", "meta_not_an_object",
    ],
)
def test_malformed_model_file_is_a_data_error(tmp_path, trained_dkm_model, edit, message):
    path = tmp_path / "model.npz"
    hz.save_model(trained_dkm_model[0], path)
    with np.load(path) as archive:
        arrays = dict(archive)
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=message):
        hz.load_model(path)


@pytest.mark.parametrize(
    "content",
    [b"layer_dims: [2, 5, 4]\n", b"", b"PK\x03\x04 truncated", None],
    ids=["text", "empty", "broken_zip", "npy_array"],
)
def test_model_path_that_is_not_an_npz_archive_is_a_data_error(tmp_path, content):
    path = tmp_path / "model.npz"
    if content is None:
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_bytes(content)
    with pytest.raises(DataError, match=r"is not a model file \(an \.npz archive\)"):
        hz.load_model(path)


def test_model_file_keeps_one_copy_of_each_codebook(tmp_path, trained_dkm_model):
    model, data = trained_dkm_model
    path = tmp_path / "model.npz"
    hz.save_model(model, path)
    with np.load(path) as archive:
        assert not [name for name in archive.files if name.startswith("warm")]
    loaded, _ = hz.load_model(path)
    np.testing.assert_array_equal(loaded.state[0].codebook.centroids, model.state[0].codebook.centroids)
    for snapped in (False, True):
        assert hz.evaluate(loaded, data, snapped) == hz.evaluate(model, data, snapped)


# ---------------------------------------------------------------------------
# tau search
# ---------------------------------------------------------------------------


def small_template():
    return hz.ModelSpec((2, 8, 4), (scheme(bits=1), None), seed=0, attention_mode="dkm")


def test_tau_search_respects_budget():
    data = blobs(n=300)
    cfg = hz.TrainConfig(epochs=2, seed=0)
    for budget in (3, 4, 6):
        _, trace = hz.tau_search(small_template(), data, cfg, 1e-4, 1e-1, budget)
        assert len(trace) == budget


def test_tau_search_degenerate_range():
    data = blobs(n=300)
    best, trace = hz.tau_search(small_template(), data, hz.TrainConfig(epochs=2, seed=0), 0.01, 0.01, 5)
    assert best == 0.01
    assert len(trace) == 1


def test_tau_search_beats_endpoints():
    data = blobs(n=400)
    cfg = hz.TrainConfig(epochs=4, seed=0)
    best, trace = hz.tau_search(small_template(), data, cfg, 1e-5, 10.0, 6)
    by_tau = {p.tau: p.accuracy for p in trace}
    best_acc = max(p.accuracy for p in trace)
    assert by_tau[best] == best_acc
    assert best_acc >= by_tau[1e-5]
    assert best_acc >= by_tau[10.0]


def test_tau_search_rejects_bad_arguments():
    data = blobs(n=300)
    cfg = hz.TrainConfig(epochs=1, seed=0)
    with pytest.raises(ParameterError):
        hz.tau_search(small_template(), data, cfg, 0.1, 0.01, 5)
    with pytest.raises(ParameterError):
        hz.tau_search(small_template(), data, cfg, 0.01, 0.1, 2)
    with pytest.raises(ParameterError):
        hz.tau_search(small_template(), data, cfg, 0.0, 0.1, 3)


def test_tau_search_is_deterministic():
    data = blobs(n=300)
    cfg = hz.TrainConfig(epochs=2, seed=0)
    a = hz.tau_search(small_template(), data, cfg, 1e-4, 1e-1, 4)
    b = hz.tau_search(small_template(), data, cfg, 1e-4, 1e-1, 4)
    assert a[0] == b[0]
    assert [(p.tau, p.accuracy) for p in a[1]] == [(p.tau, p.accuracy) for p in b[1]]


# ---------------------------------------------------------------------------
# metrics export
# ---------------------------------------------------------------------------


def trained_log():
    data = blobs(n=300)
    _, log = hz.train(
        hz.ToyModel(mlp_spec((scheme(), None, scheme()), "dkm")), data, hz.TrainConfig(epochs=2, seed=0)
    )
    return log


def test_export_row_count():
    log = trained_log()
    buf = io.StringIO()
    hz.export_metrics_csv(log, buf)
    rows = buf.getvalue().strip().splitlines()
    assert len(rows) == len(log) + 1  # header


def test_export_roundtrip():
    log = trained_log()
    buf = io.StringIO()
    hz.export_metrics_csv(log, buf)
    buf.seek(0)
    back = hz.read_metrics_csv(buf)
    assert len(back) == len(log)
    for a, b in zip(log, back):
        assert a.epoch == b.epoch and a.batch == b.batch
        assert a.loss == b.loss
        assert a.layer_errors == b.layer_errors
        assert a.layer_iterations == b.layer_iterations


def test_export_empty_log_is_an_error():
    with pytest.raises(DataError):
        hz.export_metrics_csv([], io.StringIO())
    with pytest.raises(DataError):
        hz.export_metrics_json([], io.StringIO())


def test_reading_metrics_of_another_format_is_a_data_error():
    with pytest.raises(DataError, match="not a dkm metrics file"):
        hz.read_metrics_csv(io.StringIO("epoch,batch,loss\n0,0,1.0\n"))
    buf = io.StringIO()
    hz.export_metrics_csv(trained_log(), buf)
    header, first, *_ = buf.getvalue().splitlines()
    other = first.replace(hz.METRICS_SCHEMA, "dkm-metrics-v0", 1)
    with pytest.raises(DataError, match="unsupported metrics schema 'dkm-metrics-v0'"):
        hz.read_metrics_csv(io.StringIO(f"{header}\n{other}\n"))


def test_export_json_shape():
    import json

    log = trained_log()
    buf = io.StringIO()
    hz.export_metrics_json(log, buf)
    payload = json.loads(buf.getvalue())
    assert payload["schema"] == hz.METRICS_SCHEMA
    assert len(payload["batches"]) == len(log)
