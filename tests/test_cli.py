import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dkm import autodiff as ad
from dkm import compression as comp
from dkm import cli, core
from dkm.cli import main, read_weights, write_weights
from dkm.config import load_run_spec
from dkm.errors import ConfigError


@pytest.fixture
def weights_txt(tmp_path):
    path = tmp_path / "w.txt"
    rng = np.random.default_rng(0)
    np.savetxt(path, rng.normal(size=128), fmt="%.9e")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "blobs", "n": 200, "classes": 4, "noise": 0.5, "seed": 1},
        "model": {"hidden": [8], "seed": 0},
        "train": {"epochs": 2, "batch_size": 32, "seed": 0},
        "compression": {
            "mode": "dkm",
            "groups": {"all": {"bits": 1, "temperature": 0.002}},
        },
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# weight file I/O
# ---------------------------------------------------------------------------


def test_weight_io_roundtrip(tmp_path):
    values = np.array([1.5, -2.25, 0.0, 3.125])
    txt, raw = tmp_path / "w.txt", tmp_path / "w.f32"
    write_weights(txt, values)
    write_weights(raw, values)
    np.testing.assert_allclose(read_weights(txt), values, atol=1e-9)
    np.testing.assert_array_equal(read_weights(raw), values)  # exact binary floats
    assert read_weights(txt).dtype == np.float64 and read_weights(raw).dtype == np.float32


def test_raw_weights_are_written_without_a_copy(tmp_path):
    values = np.random.default_rng(3).standard_normal(1 << 20).astype(np.float32)
    tracemalloc.start()
    try:
        write_weights(tmp_path / "w.f32", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(np.fromfile(tmp_path / "w.f32", dtype="<f4"), values)
    assert peak < 1 << 20  # a float32 copy would be 4 MiB


def test_weight_io_rejects_unknown_extension(tmp_path):
    from dkm.errors import ParameterError

    with pytest.raises(ParameterError):
        read_weights(tmp_path / "w.csv")
    with pytest.raises(ParameterError, match="unsupported output extension '.csv'"):
        write_weights(tmp_path / "w.csv", np.ones(2))


def test_empty_weight_file_is_a_data_error(tmp_path):
    from dkm.errors import DataError

    path = tmp_path / "w.f32"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="holds no weights"):
        read_weights(path)


def test_truncated_raw_weight_file_is_one_data_error(tmp_path, capsys):
    path = tmp_path / "w.f32"
    path.write_bytes(np.arange(64, dtype="<f4").tobytes() + b"\x00\x01")  # 258 bytes
    out = tmp_path / "w.dkmz"
    code, stdout, err = run_cli(
        capsys, "compress", "--weights", str(path), "--bits", "2", "--tau", "0.05", "--out", str(out)
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:DataError:") and err.count("\n") == 1
    assert "258 bytes" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def test_cluster_two_point_codebook(tmp_path, capsys):
    path = tmp_path / "w.txt"
    np.savetxt(path, [0.0, 0.0, 10.0, 10.0], fmt="%.9e")
    code, out, _ = run_cli(
        capsys,
        "cluster",
        "--weights", str(path),
        "--bits", "1",
        "--tau", "0.01",
        "--init", "kmeans_pp",
        "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(np.ravel(payload["codebook"]).tolist()) == pytest.approx([0.0, 10.0], abs=1e-9)
    assert payload["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
    assert payload["reconstruction_error"] == pytest.approx(0.0, abs=1e-9)


def test_cluster_same_seed_identical_files(tmp_path, capsys, weights_txt):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "cluster",
            "--weights", str(weights_txt),
            "--bits", "2",
            "--tau", "0.05",
            "--seed", "7",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        outs.append((out_dir / "codebook.txt").read_bytes() + (out_dir / "indices.txt").read_bytes())
    assert outs[0] == outs[1]


def test_cluster_report_entropy_self_consistent(tmp_path, capsys, weights_txt):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys,
        "cluster",
        "--weights", str(weights_txt),
        "--bits", "3",
        "--tau", "0.05",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    payload = json.loads(out)
    indices = np.loadtxt(out_dir / "indices.txt", dtype=int)
    assert comp.empirical_entropy(indices, 3) == pytest.approx(payload["entropy_bits"], abs=1e-12)


def test_cluster_insufficient_points_fails(tmp_path, capsys):
    path = tmp_path / "w.txt"
    np.savetxt(path, [1.0, 2.0], fmt="%.9e")
    code, _, err = run_cli(
        capsys, "cluster", "--weights", str(path), "--bits", "2", "--tau", "0.1"
    )
    assert code == 2
    assert err.startswith("error:DataError:")


@pytest.mark.parametrize("command", ["cluster", "compress"])
@pytest.mark.parametrize("text", ["1.0\nabc\n2.0\n", "1 2\n3\n"])
def test_unparsable_text_weights_are_one_data_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    extra = ["--out", str(tmp_path / "c.dkmz")] if command == "compress" else []
    code, _, err = run_cli(capsys, command, "--weights", str(path), "--bits", "1", "--tau", "0.1", *extra)
    assert code == 2
    assert err.startswith("error:DataError:") and str(path) in err and err.count("\n") == 1
    # numpy's advice names a loadtxt parameter the CLI does not have
    assert "usecols" not in err


def test_text_weights_with_consistent_columns_are_read_row_major(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 2\n3 4\n")
    np.testing.assert_array_equal(read_weights(path), [1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# compress / decompress / inspect
# ---------------------------------------------------------------------------


def test_compress_report_formula_ratio(tmp_path, capsys, weights_txt):
    out = tmp_path / "layer.dkmz"
    code, stdout, _ = run_cli(
        capsys,
        "compress",
        "--weights", str(weights_txt),
        "--bits", "4",
        "--dim", "4",
        "--tau", "0.05",
        "--out", str(out),
        "--report", str(tmp_path / "report.json"),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["compression_ratio_formula"] == 32.0
    assert payload["measured_ratio"] < 32.0
    assert out.stat().st_size == payload["serialized_bytes"]
    assert json.loads((tmp_path / "report.json").read_text()) == payload


def test_compress_too_large_for_memory_is_resource_error(tmp_path, capsys, monkeypatch):
    # compress builds neither the (m, k) attention nor the soft weights:
    # 131,072 weights at bits=16 need their 8-byte indices and a tile,
    # whether read as float32 (raw) or float64 (text)
    def refuse(*args):
        raise AssertionError("seeding ran: the pre-flight let the layer through")

    # seeding runs after the pre-flight, so a missed refusal fails here at once
    monkeypatch.setattr(core, "init_centroids", refuse)
    raw, text = tmp_path / "w.f32", tmp_path / "w.txt"
    np.zeros(131072, dtype="<f4").tofile(raw)
    np.savetxt(text, np.zeros(131072), fmt="%.1f")
    need = 131072 * 8 + core.TILE_BYTES
    for path in (raw, text):
        monkeypatch.setattr(core, "physical_memory_bytes", lambda: need - 1)
        code, out, err = run_cli(
            capsys, "compress", "--weights", str(path), "--bits", "16", "--tau", "0.1",
            "--out", str(tmp_path / "w.dkmz"),
        )
        assert code == 2
        assert err.startswith("error:ResourceError:") and f"needs about {need} bytes" in err
        assert out == "" and not (tmp_path / "w.dkmz").exists()


def float64_container(values: np.ndarray, bits: int, tau: float, seed: int = 0) -> bytes:
    """The container of ``values`` clustered in float64, with the CLI's defaults otherwise."""
    sub = comp.reshape_to_subvectors(values.astype(np.float64), 1)
    cfg = core.DkmConfig(bits=bits, temperature=tau)
    res = core.dkm_forward(ad.constant(sub.values), config=cfg, seed=seed, keep_attention=False)
    layer = comp.CompressedLayer(
        bits=bits, dim=1, original_length=sub.original_length, pad_count=0,
        codebook=res.codebook.centroids.astype(np.float32), indices=res.indices,
    )
    return comp.serialize(layer)


@pytest.mark.parametrize(
    "scale,tau",
    [
        (1e20, 0.05),  # squared distances overflow float32
        (1.0, 1e-46),  # tau rounds to float32 zero
        (0.0, 1e-46),  # no weight reaches the bound, but tau still rounds to zero
    ],
)
def test_compress_falls_back_to_float64_where_float32_logits_are_unsafe(tmp_path, capsys, scale, tau):
    values = (np.random.default_rng(4).standard_normal(4096) * scale).astype("<f4")
    path, out = tmp_path / "w.f32", tmp_path / "w.dkmz"
    values.tofile(path)
    code, _, err = run_cli(
        capsys, "compress", "--weights", str(path), "--bits", "2", "--tau", str(tau), "--out", str(out)
    )
    assert code == 0, err
    assert out.read_bytes() == float64_container(values, bits=2, tau=tau)


def test_float32_compress_agrees_with_float64(tmp_path, capsys, monkeypatch):
    values = np.random.default_rng(5).standard_normal(8192).astype("<f4")
    path, out = tmp_path / "w.f32", tmp_path / "w.dkmz"
    values.tofile(path)
    clustered = []
    forward = core.dkm_forward
    monkeypatch.setattr(core, "dkm_forward", lambda w, **kw: clustered.append(w.value.dtype) or forward(w, **kw))
    code, stdout, _ = run_cli(
        capsys, "compress", "--weights", str(path), "--bits", "3", "--tau", "0.2", "--out", str(out)
    )
    assert code == 0 and clustered == [np.float32]
    got = comp.deserialize(out.read_bytes())
    ref = comp.deserialize(float64_container(values, bits=3, tau=0.2))
    assert np.mean(got.indices == ref.indices) >= 0.999
    np.testing.assert_allclose(got.codebook, ref.codebook, rtol=0, atol=1e-5)
    ref_error = float(np.linalg.norm(values.astype(np.float64) - ref.decode_flat()))
    assert json.loads(stdout)["reconstruction_error"] == pytest.approx(ref_error, rel=1e-4)


def test_decompress_matches_snap_reconstruction(tmp_path, capsys, weights_txt):
    dkmz = tmp_path / "layer.dkmz"
    restored = tmp_path / "restored.f32"
    args = ["--weights", str(weights_txt), "--bits", "2", "--dim", "2", "--tau", "0.05",
            "--seed", "5", "--out", str(dkmz)]
    assert run_cli(capsys, "compress", *args)[0] == 0
    assert run_cli(capsys, "decompress", "--input", str(dkmz), "--out", str(restored))[0] == 0

    layer = comp.deserialize(dkmz.read_bytes())
    np.testing.assert_array_equal(
        np.fromfile(restored, dtype="<f4"), layer.decode_flat()
    )


def test_inspect_reports_sizes(tmp_path, capsys, weights_txt):
    dkmz = tmp_path / "layer.dkmz"
    run_cli(capsys, "compress", "--weights", str(weights_txt), "--bits", "2",
            "--tau", "0.05", "--out", str(dkmz))
    code, out, _ = run_cli(capsys, "inspect", "--input", str(dkmz))
    assert code == 0
    payload = json.loads(out)
    assert payload["serialized_bytes"] == dkmz.stat().st_size
    assert payload["bits"] == 2 and payload["dim"] == 1


def test_truncated_container_fails_cleanly(tmp_path, capsys, weights_txt):
    dkmz = tmp_path / "layer.dkmz"
    run_cli(capsys, "compress", "--weights", str(weights_txt), "--bits", "2",
            "--tau", "0.05", "--out", str(dkmz))
    dkmz.write_bytes(dkmz.read_bytes()[:-3])
    code, _, err = run_cli(capsys, "decompress", "--input", str(dkmz), "--out", str(tmp_path / "o.f32"))
    assert code == 2
    assert err.startswith("error:TruncatedStreamError:")
    assert len(err.strip().splitlines()) == 1


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "inspect", "--input", str(tmp_path / "missing.dkmz")
    )
    assert code == 2
    assert err.startswith("error:FileNotFoundError:")


# ---------------------------------------------------------------------------
# train / evaluate / tau-search
# ---------------------------------------------------------------------------


def test_train_writes_outputs_and_is_deterministic(tmp_path, capsys):
    cfg = train_config(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        code, stdout, _ = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        summary = json.loads(stdout)
        assert 0.0 <= summary["snapped_accuracy"] <= 1.0
        outs.append(
            (
                (out_dir / "summary.json").read_bytes(),
                (out_dir / "metrics.csv").read_bytes(),
                (out_dir / "model.npz").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_train_seed_override_changes_run(tmp_path, capsys):
    cfg = train_config(tmp_path)
    _, out1, _ = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
    _, out2, _ = run_cli(capsys, "train", "--config", str(cfg), "--seed", "9",
                         "--out-dir", str(tmp_path / "b"))
    assert json.loads(out1) != json.loads(out2)


def test_summary_matches_reevaluation_of_saved_model(tmp_path, capsys):
    cfg = train_config(tmp_path)
    out_dir = tmp_path / "run"
    _, stdout, _ = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(out_dir))
    summary = json.loads(stdout)

    code, out, _ = run_cli(capsys, "evaluate", "--model", str(out_dir / "model.npz"), "--snapped")
    assert code == 0
    assert json.loads(out)["accuracy"] == summary["snapped_accuracy"]

    code, out, _ = run_cli(capsys, "evaluate", "--model", str(out_dir / "model.npz"), "--train-time")
    assert code == 0
    assert json.loads(out)["accuracy"] == summary["train_time_accuracy"]


def test_evaluating_a_model_saved_without_its_dataset_is_a_data_error(tmp_path, capsys):
    from dkm import harness

    spec = harness.ModelSpec((2, 4), (None,), seed=0, attention_mode="none")
    harness.save_model(harness.ToyModel(spec), tmp_path / "model.npz")
    code, out, err = run_cli(capsys, "evaluate", "--model", str(tmp_path / "model.npz"))
    assert code == 2 and out == ""
    assert err == "error:DataError: model file carries no dataset description\n"


def test_missing_config_key_names_it(tmp_path, capsys):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    del raw["dataset"]["noise"]
    cfg.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error:ConfigError:")
    assert "dataset.noise" in err


def test_config_errors_are_exhaustive(tmp_path, capsys):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    del raw["dataset"]["noise"]
    raw["train"]["momentum"] = 2.0
    raw["compression"]["mode"] = "fuzzy"
    cfg.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    for fragment in ("dataset.noise", "momentum", "compression.mode"):
        assert fragment in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("model.seed", "x"),
        ("model.seed", -1),
        ("dataset.seed", -3),
        ("train.seed", "s"),
        ("train.epochs", 1.5),
        ("train.batch_size", 2.5),
        ("compression.policy.small_layer_bits", "x"),
        ("compression.policy.small_layer_bits", 20),
        ("compression.policy.small_layer_threshold", "big"),
        ("compression.policy.skip_last", "yes"),
        ("train.learning_rate", "x"),
        ("train.momentum", None),
        ("train.epochs", 0),
        ("compression.draws", True),
        ("compression.groups.all.bits", 2.5),
        ("compression.groups.all.bits", True),
        ("compression.groups.all.dim", 1.5),
        ("compression.groups.all.max_iterations", 2.5),
        ("compression.groups.all.temperature", True),
        ("dataset.n", True),
        ("dataset.noise", True),
        ("model.hidden", [True, 8]),
    ],
)
def test_malformed_config_value_is_one_config_error(tmp_path, capsys, key, value):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    *sections, name = key.split(".")
    sec = raw
    for section in sections:
        sec = sec.setdefault(section, {})
    sec[name] = value
    cfg.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error:ConfigError:") and err.count("\n") == 1
    assert key in err
    assert "; " not in err  # one problem, reported once


def test_section_with_two_bad_fields_reports_both(tmp_path, capsys):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["compression"]["groups"]["all"].update(bits=2.5, dim=0)
    raw["train"].update(epochs=1.5, momentum=True)
    cfg.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error:ConfigError:") and err.count("\n") == 1
    for key in ("compression.groups.all.bits", "compression.groups.all.dim", "train.epochs", "train.momentum"):
        assert key in err


def test_config_that_is_not_utf8_is_one_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{" + "}".encode("utf-16-le"))
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err.startswith("error:ConfigError: config is not valid JSON") and err.count("\n") == 1


@pytest.mark.parametrize(
    "dataset, key",
    [({"kind": "moons", "classes": 3}, "dataset.classes"), ({"n": 3}, "dataset.n")],
    ids=["moons_of_three_classes", "fewer_points_than_classes"],
)
def test_dataset_rules_across_keys_are_one_config_error(tmp_path, capsys, dataset, key):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["dataset"].update(dataset)
    cfg.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error:ConfigError:") and err.count("\n") == 1
    assert f"{key}: " in err and "; " not in err


def drop_train(raw):
    del raw["train"]


@pytest.mark.parametrize(
    "edit, message",
    [
        ("{not json", "config is not valid JSON"),
        ("[1, 2]", "config root must be an object"),
        (drop_train, "train: missing section"),
        (lambda raw: raw.update(model=[8]), "model: must be an object"),
        (lambda raw: raw.update(extra=1), "config.extra: unknown key"),
        (lambda raw: raw["dataset"].update(colour="red"), "dataset.colour: unknown key"),
        (lambda raw: raw["compression"].update(groups=[]), "compression.groups: must be an object"),
        (lambda raw: raw["compression"]["groups"].update(hidden=5), "compression.groups.hidden: must be an object"),
        # Gumbel attention takes one sample per row; the key that set more is gone
        (lambda raw: raw["compression"].update(draws=1), "compression.draws: unknown key"),
    ],
    ids=["not_json", "root_not_object", "missing_section", "section_not_object", "unknown_section",
         "unknown_key", "groups_not_object", "group_not_object", "draws_key"],
)
def test_load_run_spec_reports_malformed_files(tmp_path, edit, message):
    cfg = train_config(tmp_path)
    if isinstance(edit, str):
        cfg.write_text(edit)
    else:
        raw = json.loads(cfg.read_text())
        edit(raw)
        cfg.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=message):
        load_run_spec(cfg)


def test_a_compression_section_without_mode_reports_it_missing_once(tmp_path):
    cfg = train_config(tmp_path)
    raw = json.loads(cfg.read_text())
    del raw["compression"]["mode"]
    cfg.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as info:
        load_run_spec(cfg)
    assert str(info.value) == "invalid config: compression.mode: missing"


def test_layers_too_small_for_their_schemes_are_one_config_error(tmp_path, capsys):
    cfg = train_config(tmp_path, compression={"mode": "dkm", "groups": {"all": {"bits": 6, "temperature": 0.01}}})
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error:ConfigError:") and err.count("\n") == 1
    assert "layer 0: 16 sub-vectors cannot seed 64 clusters" in err
    assert "layer 1: 32 sub-vectors cannot seed 64 clusters" in err


@pytest.mark.parametrize("command", ["cluster", "compress", "train", "tau-search"])
def test_negative_seed_is_one_runtime_error(tmp_path, capsys, weights_txt, command):
    if command in ("cluster", "compress"):
        argv = [command, "--weights", str(weights_txt), "--bits", "2", "--tau", "0.05"]
        if command == "compress":
            argv += ["--out", str(tmp_path / "w.dkmz")]
    else:
        argv = [command, "--config", str(train_config(tmp_path)), "--out-dir", str(tmp_path / "o")]
        if command == "tau-search":
            argv += ["--tau-low", "0.01", "--tau-high", "0.1", "--budget", "3"]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:ParameterError:") and err.count("\n") == 1
    assert "seed must be >= 0" in err
    assert not list(tmp_path.glob("w.dkmz")) and not (tmp_path / "o").exists()


def test_tau_search_trace(tmp_path, capsys):
    cfg = train_config(tmp_path)
    out_dir = tmp_path / "search"
    code, stdout, _ = run_cli(
        capsys,
        "tau-search",
        "--config", str(cfg),
        "--tau-low", "1e-4",
        "--tau-high", "1e-1",
        "--budget", "3",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["probes"]) == 3
    assert payload == json.loads((out_dir / "tau_search.json").read_text())
    taus = {p["tau"] for p in payload["probes"]}
    assert payload["best_tau"] in taus


def test_tau_search_requires_compressed_layer(tmp_path, capsys):
    cfg = train_config(tmp_path, compression={"mode": "none", "groups": {}})
    code, _, err = run_cli(
        capsys, "tau-search", "--config", str(cfg),
        "--tau-low", "0.01", "--tau-high", "0.1", "--budget", "3",
    )
    assert code == 2
    assert err.startswith("error:ParameterError:")


# ---------------------------------------------------------------------------
# process-level behaviour
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["cluster"]) == 1  # missing required flags
    assert main([]) == 1
    assert main(["inspect", "--bogus", "x"]) == 1  # unknown flag


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch, weights_txt):
    container, restored = tmp_path / "w.dkmz", tmp_path / "w.restored.txt"
    calls = [
        ["compress", "--weights", str(weights_txt), "--bits", "2", "--tau", "0.05", "--out", str(container)],
        ["decompress", "--input", str(container), "--out", str(restored)],
        ["compress", "--weights", str(weights_txt), "--bits", "2"],  # usage error
        ["--help"],
    ]

    def run_all(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            results.append(run_cli(capsys, *argv))
        results.append((container.read_bytes(), restored.read_text()))
        container.unlink()
        restored.unlink()
        return results

    fresh = run_all(fresh=True)
    assert [r[0] for r in fresh[:-1]] == [0, 0, 1, 0]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    assert run_all(fresh=False) == fresh
    assert len(built) == 1


def test_module_entry_point(tmp_path):
    path = tmp_path / "w.txt"
    np.savetxt(path, np.linspace(-1, 1, 16), fmt="%.9e")
    proc = subprocess.run(
        [sys.executable, "-m", "dkm", "cluster", "--weights", str(path),
         "--bits", "1", "--tau", "0.05"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["subvectors"] == 16

    proc = subprocess.run(
        [sys.executable, "-m", "dkm", "bogus"], capture_output=True, text=True
    )
    assert proc.returncode == 1
