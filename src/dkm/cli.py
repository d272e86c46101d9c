"""Command-line surface for clustering, compression, training, and search.

Subcommands exit 0 on success, 1 on usage errors, and 2 on runtime errors,
printing one machine-parseable ``error:<Class>: <message>`` line to stderr.
All randomness hangs off explicit --seed flags (default 0); repeated runs
with the same inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import compression, core, harness
from .config import RunSpec, load_run_spec
from .errors import DataError, DkmError, ParameterError

TEXT_EXTENSIONS = (".txt",)
RAW_EXTENSIONS = (".f32", ".bin", ".raw")


def read_weights(path: str | Path) -> np.ndarray:
    """Flat float weights from .txt (one per line) or raw <f4 files."""
    path = Path(path)
    if path.suffix in TEXT_EXTENSIONS:
        values = np.loadtxt(path, dtype=np.float64, ndmin=1).reshape(-1)
    elif path.suffix in RAW_EXTENSIONS:
        if (size := path.stat().st_size) % 4:
            raise DataError(f"{path} holds {size} bytes, not a whole number of float32 weights")
        values = np.fromfile(path, dtype="<f4").astype(np.float64)
    else:
        raise ParameterError(
            f"unsupported weight extension {path.suffix!r}; use one of "
            f"{TEXT_EXTENSIONS + RAW_EXTENSIONS}"
        )
    if values.size == 0:
        raise DataError(f"{path} holds no weights")
    return values


def write_weights(path: str | Path, values: np.ndarray) -> None:
    path = Path(path)
    if path.suffix in TEXT_EXTENSIONS:
        np.savetxt(path, values.reshape(-1), fmt="%.9e")
    elif path.suffix in RAW_EXTENSIONS:
        values.astype("<f4").tofile(path)
    else:
        raise ParameterError(f"unsupported output extension {path.suffix!r}")


def _dkm_config(args) -> core.DkmConfig:
    return core.DkmConfig(
        bits=args.bits,
        dim=args.dim,
        temperature=args.tau,
        epsilon=args.epsilon,
        max_iterations=args.max_iter,
        metric=args.metric,
        init=args.init,
    )


def _cluster_weights(args) -> tuple[core.SubvectorMatrix, compression.CompressedLayer, core.DkmTelemetry]:
    """The weights as sub-vectors, their compressed layer, and the loop's telemetry.

    Nothing here calls backward, so the loop runs on a constant and builds
    no tape, and it never builds the (m, k) attention: the layer stores the
    loop's nearest-centroid indices. The soft weights are dropped on return.
    """
    cfg = _dkm_config(args)
    sub = compression.reshape_to_subvectors(read_weights(args.weights), cfg.dim)
    res = core.dkm_forward(ad.constant(sub.values), config=cfg, seed=args.seed, keep_attention=False)
    layer = compression.CompressedLayer(
        bits=cfg.bits,
        dim=cfg.dim,
        original_length=sub.original_length,
        pad_count=sub.pad_count,
        codebook=res.codebook.centroids.astype(np.float32),
        indices=res.indices,
    )
    return sub, layer, res.telemetry


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_cluster(args) -> int:
    sub, layer, telemetry = _cluster_weights(args)
    report = compression.build_report(layer, sub.flatten())
    payload = {
        "codebook": layer.codebook.astype(np.float64).tolist(),
        "entropy_bits": report.empirical_entropy,
        "reconstruction_error": report.reconstruction_error,
        "iterations_used": telemetry.iterations_used,
        "converged": telemetry.converged,
        "final_delta": telemetry.final_delta,
        "subvectors": layer.count,
    }
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        np.savetxt(out / "codebook.txt", layer.codebook, fmt="%.9e")
        np.savetxt(out / "indices.txt", layer.indices, fmt="%d")
    _print_json(payload)
    return 0


def cmd_compress(args) -> int:
    sub, layer, telemetry = _cluster_weights(args)
    Path(args.out).write_bytes(compression.serialize(layer))
    report = compression.build_report(layer, sub.flatten())
    payload = report.to_dict()
    payload["iterations_used"] = telemetry.iterations_used
    payload["converged"] = telemetry.converged
    payload["output"] = str(args.out)
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_json(payload)
    return 0


def cmd_decompress(args) -> int:
    layer = compression.deserialize(Path(args.input).read_bytes())
    write_weights(args.out, layer.decode_flat())
    _print_json(
        {
            "output": str(args.out),
            "weights": layer.original_length,
            "bits": layer.bits,
            "dim": layer.dim,
        }
    )
    return 0


def cmd_inspect(args) -> int:
    layer = compression.deserialize(Path(args.input).read_bytes())
    payload = {
        "bits": layer.bits,
        "dim": layer.dim,
        "original_length": layer.original_length,
        "pad_count": layer.pad_count,
        "subvectors": layer.count,
        "serialized_bytes": layer.serialized_size(),
        "effective_bits_per_weight": compression.effective_bits_per_weight(layer.bits, layer.dim),
        "compression_ratio_formula": compression.compression_ratio(layer.bits, layer.dim),
        "measured_ratio": 4.0 * layer.original_length / layer.serialized_size(),
        "entropy_bits": compression.empirical_entropy(layer.indices, layer.bits),
    }
    _print_json(payload)
    return 0


def _load_spec(args) -> RunSpec:
    spec = load_run_spec(args.config)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    return spec


def _summarize(model: harness.ToyModel, data: harness.Dataset, log) -> dict:
    return {
        "train_time_accuracy": harness.evaluate(model, data, snapped=False),
        "snapped_accuracy": harness.evaluate(model, data, snapped=True),
        "final_loss": log[-1].loss,
        "batches": len(log),
        "attention_mode": model.spec.attention_mode,
    }


def cmd_train(args) -> int:
    spec = _load_spec(args)
    data = harness.make_dataset(**spec.dataset_args)
    model = harness.ToyModel(spec.model_spec)
    model, log = harness.train(model, data, spec.train_cfg)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        harness.export_metrics_csv(log, fh)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        harness.export_metrics_json(log, fh)
    harness.save_model(model, out / "model.npz", dataset_args=spec.dataset_args)

    summary = _summarize(model, data, log)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _print_json(summary)
    return 0


def cmd_evaluate(args) -> int:
    model, dataset_args = harness.load_model(args.model)
    if dataset_args is None:
        raise DataError("model file carries no dataset description")
    data = harness.make_dataset(**dataset_args)
    payload = {
        "snapped": bool(args.snapped),
        "accuracy": harness.evaluate(model, data, snapped=args.snapped),
    }
    _print_json(payload)
    return 0


def cmd_tau_search(args) -> int:
    spec = _load_spec(args)
    if all(s is None for s in spec.model_spec.schemes):
        raise ParameterError("tau-search needs at least one compressed layer")
    data = harness.make_dataset(**spec.dataset_args)
    best, trace = harness.tau_search(
        spec.model_spec, data, spec.train_cfg, args.tau_low, args.tau_high, args.budget
    )
    payload = {
        "best_tau": best,
        "probes": [{"tau": p.tau, "accuracy": p.accuracy} for p in trace],
    }
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tau_search.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkm",
        description="Differentiable k-means weight clustering and compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_flags(p):
        p.add_argument("--bits", type=int, required=True, help="log2 cluster count")
        p.add_argument("--dim", type=int, default=1, help="sub-vector dimension")
        p.add_argument("--tau", type=float, required=True, help="softmax temperature")
        p.add_argument("--epsilon", type=float, default=1e-4, help="convergence threshold")
        p.add_argument("--max-iter", type=int, default=5, help="iteration cap")
        p.add_argument("--metric", choices=core.METRICS, default=core.SQUARED_EUCLIDEAN)
        p.add_argument("--init", choices=core.INITS, default=core.RANDOM_SAMPLE)
        p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")

    p = sub.add_parser("cluster", help="cluster a weight file once and report")
    p.add_argument("--weights", required=True, help=".txt or raw <f4 weight file")
    add_scheme_flags(p)
    p.add_argument("--out-dir", help="write codebook.txt and indices.txt here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("compress", help="cluster and write a .dkmz container")
    p.add_argument("--weights", required=True)
    add_scheme_flags(p)
    p.add_argument("--out", required=True, help="output .dkmz path")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct weights from a .dkmz file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output .txt or raw <f4 path")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("inspect", help="print a .dkmz header and size report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train per a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override model+train seeds")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model")
    p.add_argument("--model", required=True, help="model.npz from `dkm train`")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--snapped", dest="snapped", action="store_true", default=True)
    group.add_argument("--train-time", dest="snapped", action="store_false")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tau-search", help="search the softmax temperature")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override model+train seeds")
    p.add_argument("--tau-low", type=float, required=True)
    p.add_argument("--tau-high", type=float, required=True)
    p.add_argument("--budget", type=int, required=True, help="number of training probes")
    p.add_argument("--out-dir", help="write tau_search.json here")
    p.set_defaults(func=cmd_tau_search)

    return parser


USAGE_EXIT = 1
RUNTIME_EXIT = 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help
        return 0 if exc.code in (0, None) else USAGE_EXIT
    try:
        return args.func(args)
    except (DkmError, OSError) as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
