"""Desk-scale end-to-end training with soft-clustered layers.

A small MLP on synthetic 2-d classification, trained with SGD momentum.
Compressed layers route their weights through the clustering loop every
batch (soft, hard, or Gumbel attention), carry codebook warm starts across
batches, and log the train-vs-inference weight gap plus loop iteration
counts per batch. Layers are clustered without the (m, k) attention:
snapping reads the loop's nearest-centroid indices. A bracketing search
over the softmax temperature drives repeated short runs.

On the tape, each layer is one ``autodiff.dense`` node, a clustered layer's
weights reach the loop and come back through one ``autodiff.regroup`` node
each way, and the loss is one ``autodiff.softmax_cross_entropy`` node.
Evaluation runs the same MLP forward on constant nodes, which build no tape.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import baselines, core
from .core import Codebook, DkmConfig, DkmResult
from .errors import DataError, NumericError, ParameterError, check_fields, choice, integer, real

ATTENTION_MODES = ("dkm", "hard", "gumbel", "none")

METRICS_SCHEMA = "dkm-metrics-v1"

# model.npz layout: 2 stores each layer's nearest-centroid indices
# (st{i}_idx); 1, which stored the (m, k) attention (st{i}_att), still loads
MODEL_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    classes: int
    centers: np.ndarray | None = None


def dataset_problems(kind, n, classes, noise, seed) -> dict[str, str | None]:
    """Why each ``make_dataset`` argument is bad (None if fine)."""
    problems = dict(
        kind=choice(kind, ("blobs", "moons")), n=integer(n, 1), classes=integer(classes, 2),
        noise=real(noise, 0), seed=integer(seed, 0),
    )
    if problems["classes"] is None:
        if kind == "moons" and classes != 2:
            problems["classes"] = f"must be 2 for moons, got {classes}"
        elif problems["n"] is None and n < classes:
            problems["n"] = f"must be >= classes ({classes}), one point per class, got {n}"
    return problems


def make_dataset(kind: str, n: int, classes: int, noise: float, seed: int) -> Dataset:
    """Deterministic synthetic 2-d classification data, split 80/20.

    blobs: isotropic Gaussian clusters around class centers on a circle.
    moons: two interleaved half-circles (classes must be 2). Raises
    ParameterError naming every argument ``dataset_problems`` rejects.
    """
    check_fields(**dataset_problems(kind, n, classes, noise, seed))
    rng = np.random.default_rng(seed)

    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = 2.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        y = np.arange(n) % classes
        x = centers[y] + noise * rng.standard_normal((n, 2))
    else:  # moons
        y = np.arange(n) % 2
        t = rng.uniform(0.0, np.pi, n)
        x = np.where(
            (y == 0)[:, None],
            np.stack([np.cos(t), np.sin(t)], axis=1),
            np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1),
        )
        x += noise * rng.standard_normal((n, 2))
        centers = None

    order = rng.permutation(n)
    x, y = x[order], y[order]
    split = int(round(0.8 * n))
    return Dataset(x[:split], y[:split], x[split:], y[split:], classes, centers)


def class_center_accuracy(data: Dataset) -> float:
    """Nearest-true-center classifier on the validation split.

    For isotropic blobs this is the Bayes-optimal rule, so it bounds what
    any model can reach.
    """
    if data.centers is None:
        raise ParameterError("dataset has no class centers")
    d2 = ((data.val_x[:, None, :] - data.centers[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(d2, axis=1) == data.val_y).mean())


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.008
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        check_fields(
            learning_rate=real(self.learning_rate, 0, above=True),
            momentum=real(self.momentum, 0, below=1),
            batch_size=integer(self.batch_size, 1),
            epochs=integer(self.epochs, 1),
            seed=integer(self.seed, 0),
        )


@dataclass(frozen=True)
class ModelSpec:
    """Blueprint for a ToyModel: dims, per-layer schemes, assignment mode.

    One DataError names every clustered layer with fewer than 2^bits sub-vectors.
    """

    layer_dims: tuple[int, ...]
    schemes: tuple[DkmConfig | None, ...]
    seed: int = 0
    attention_mode: str = "dkm"

    def __post_init__(self):
        dims, layers = self.layer_dims, len(self.layer_dims) - 1
        dims_ok = layers >= 1 and not any(integer(d, 1) for d in dims)
        schemes_ok = len(self.schemes) == layers and all(
            s is None or isinstance(s, DkmConfig) for s in self.schemes
        )
        check_fields(
            layer_dims=None if dims_ok else f"must be two or more positive integers, got {dims!r}",
            schemes=None if schemes_ok else f"must hold a DkmConfig or None for each of {layers} weight layers",
            **self.setting_problems(self.seed, self.attention_mode),
        )
        infeasible = [
            f"layer {i}: {self.subvectors(i)} sub-vectors cannot seed {cfg.clusters} clusters "
            f"(bits={cfg.bits}, dim={cfg.dim})"
            for i, cfg in enumerate(self.schemes)
            if cfg is not None and self.subvectors(i) < cfg.clusters
        ]
        if infeasible:
            raise DataError("; ".join(infeasible))

    @staticmethod
    def setting_problems(seed, attention_mode) -> dict[str, str | None]:
        """Why each setting that does not depend on the layers is bad (None if fine)."""
        return dict(seed=integer(seed, 0), attention_mode=choice(attention_mode, ATTENTION_MODES))

    def subvectors(self, layer: int) -> int:
        """Sub-vector count of a clustered layer under its scheme, the last one zero-padded."""
        return -(-self.layer_dims[layer] * self.layer_dims[layer + 1] // self.schemes[layer].dim)

    def with_temperature(self, tau: float) -> "ModelSpec":
        return replace(
            self,
            schemes=tuple(s if s is None else replace(s, temperature=tau) for s in self.schemes),
        )


@dataclass
class LayerState:
    """Detached per-layer clustering state from the most recent forward."""

    w_tilde: np.ndarray
    indices: np.ndarray
    codebook: Codebook
    iterations: int


class ToyModel:
    """MLP with relu hidden layers; weight matrices optionally clustered.

    Raw weights stay the trainable parameters; the clustered view exists
    only on the tape. Each layer's last clustering state, whose codebook
    warm-starts the next batch, is per-layer state owned by the model.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(spec.layer_dims, spec.layer_dims[1:]):
            scale = math.sqrt(2.0 / fan_in)
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros((1, fan_out)))
        self.state: list[LayerState | None] = [None] * self.layers

    @property
    def layers(self) -> int:
        return len(self.weights)

    @property
    def schemes(self) -> tuple[DkmConfig | None, ...]:
        return self.spec.schemes


def _cluster_layer(
    model: ToyModel, index: int, w_node: ad.Node, gumbel_rng: np.random.Generator
) -> DkmResult:
    cfg = model.schemes[index]
    sub_node = ad.regroup(w_node, model.spec.subvectors(index), cfg.dim)
    warm = None if model.state[index] is None else model.state[index].codebook
    init_seed = model.spec.seed + index
    mode = model.spec.attention_mode

    if mode == "dkm":
        return core.dkm_forward(sub_node, warm, cfg, seed=init_seed, keep_attention=False)
    if mode == "hard":
        return baselines.hard_forward(sub_node, warm, cfg, seed=init_seed)
    draw_seed = int(gumbel_rng.integers(2**62))  # gumbel; "none" never clusters
    return baselines.gumbel_forward(sub_node, warm, cfg, seed=draw_seed, init_seed=init_seed)


def _layer_weight_nodes(
    model: ToyModel, gumbel_rng: np.random.Generator
) -> tuple[list[ad.Node], list[ad.Node], dict[int, DkmResult]]:
    """Leaf nodes for raw params plus the effective (possibly clustered) weights."""
    leaves: list[ad.Node] = []
    effective: list[ad.Node] = []
    results: dict[int, DkmResult] = {}
    for i in range(model.layers):
        w_leaf = ad.leaf(model.weights[i], checked=False)
        leaves.append(w_leaf)
        cfg = model.schemes[i]
        if cfg is None or model.spec.attention_mode == "none":
            effective.append(w_leaf)
            continue
        try:
            results[i] = _cluster_layer(model, i, w_leaf, gumbel_rng)
        except NumericError as exc:
            raise NumericError(f"layer {i}: {exc}") from exc
        effective.append(ad.regroup(results[i].w_tilde, *w_leaf.shape))
    return leaves, effective, results


def _forward_logits(effective, bias_nodes, x: np.ndarray) -> ad.Node:
    h = ad.constant(x, checked=False)
    for i, (w, b) in enumerate(zip(effective, bias_nodes)):
        h = ad.dense(h, w, b, relu=i < len(effective) - 1)
    return h


def _record_state(model: ToyModel, results: dict[int, DkmResult]):
    for i, res in results.items():
        model.state[i] = LayerState(
            w_tilde=res.w_tilde.value.copy(),
            indices=res.indices,
            codebook=res.codebook,
            iterations=res.telemetry.iterations_used,
        )


def _clustered_weights(model: ToyModel, index: int, snapped: bool) -> np.ndarray:
    """Layer ``index``'s soft or snapped weight matrix from its last clustering state.

    Snapped sub-vectors are ``codebook[indices]``; padding is dropped.
    """
    st = model.state[index]
    shape = model.weights[index].shape
    values = st.codebook.centroids[st.indices] if snapped else st.w_tilde
    return values.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _train_inference_gap(model: ToyModel, index: int) -> float:
    """Frobenius distance between soft and snapped weights, padding excluded."""
    return float(np.linalg.norm(_clustered_weights(model, index, False) - _clustered_weights(model, index, True)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class BatchMetrics:
    epoch: int
    batch: int
    loss: float
    layer_errors: dict[int, float] = field(default_factory=dict)
    layer_iterations: dict[int, int] = field(default_factory=dict)


def train(
    model: ToyModel, data: Dataset, train_cfg: TrainConfig
) -> tuple[ToyModel, list[BatchMetrics]]:
    """SGD-momentum training; returns the model and the per-batch log.

    Deterministic given (model spec, data, train_cfg): batch order, noise
    draws, and updates all derive from the configured seeds.
    """
    shuffle_rng = np.random.default_rng(train_cfg.seed)
    gumbel_rng = np.random.default_rng(train_cfg.seed + 0x9E3779B9)
    velocity = [np.zeros_like(w) for w in model.weights] + [np.zeros_like(b) for b in model.biases]
    log: list[BatchMetrics] = []

    n_train = data.train_x.shape[0]
    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n_train)
        for batch_no, start in enumerate(range(0, n_train, train_cfg.batch_size)):
            idx = order[start : start + train_cfg.batch_size]
            try:
                leaves, effective, results = _layer_weight_nodes(model, gumbel_rng)
                bias_nodes = [ad.leaf(b, checked=False) for b in model.biases]
                logits = _forward_logits(effective, bias_nodes, data.train_x[idx])
                loss = ad.softmax_cross_entropy(logits, data.train_y[idx])
            except NumericError as exc:
                raise NumericError(
                    f"divergence at epoch {epoch} batch {batch_no}: {exc}"
                ) from exc
            loss_val = float(loss.value[0, 0])
            if not math.isfinite(loss_val):
                bad = [i for i, node in enumerate(effective) if not np.all(np.isfinite(node.value))]
                where = f"layer {bad[0]}" if bad else "loss"
                raise NumericError(
                    f"divergence at epoch {epoch} batch {batch_no}: non-finite {where}"
                )

            ad.backward(loss)
            params = list(zip(model.weights, leaves)) + list(zip(model.biases, bias_nodes))
            for slot, (param, node) in enumerate(params):
                grad = node.grad
                if grad is None:
                    continue
                velocity[slot] = train_cfg.momentum * velocity[slot] + grad
                param -= train_cfg.learning_rate * velocity[slot]

            _record_state(model, results)
            metrics = BatchMetrics(epoch=epoch, batch=batch_no, loss=loss_val)
            for i in results:
                metrics.layer_errors[i] = _train_inference_gap(model, i)
                metrics.layer_iterations[i] = results[i].telemetry.iterations_used
            log.append(metrics)
    return model, log


def evaluate(model: ToyModel, data: Dataset, snapped: bool) -> float:
    """Validation accuracy with train-time soft weights or snapped weights."""
    weights = []
    for i in range(model.layers):
        if model.schemes[i] is None or model.spec.attention_mode == "none":
            weights.append(model.weights[i])
            continue
        if model.state[i] is None:
            # never trained: materialize clustering state once, without grads
            _, _, results = _layer_weight_nodes(model, np.random.default_rng(model.spec.seed))
            _record_state(model, results)
        weights.append(_clustered_weights(model, i, snapped))

    logits = _forward_logits(
        [ad.constant(w, checked=False) for w in weights],
        [ad.constant(b, checked=False) for b in model.biases],
        data.val_x,
    )
    return float((np.argmax(logits.value, axis=1) == data.val_y).mean())


# ---------------------------------------------------------------------------
# temperature search
# ---------------------------------------------------------------------------


@dataclass
class TauProbe:
    tau: float
    accuracy: float


def tau_search(
    template: ModelSpec,
    data: Dataset,
    train_cfg: TrainConfig,
    tau_low: float,
    tau_high: float,
    budget: int,
) -> tuple[float, list[TauProbe]]:
    """Bracketing search over log-temperature maximizing snapped accuracy.

    Runs ``budget`` independent short trainings, one if tau_low == tau_high
    (fresh model and warm-start state per probe): both endpoints first, then
    golden-section interior points. Returns the best probe's temperature and
    the full trace in execution order.
    """
    if tau_low <= 0 or tau_high <= 0:
        raise ParameterError("temperatures must be > 0")
    if tau_low > tau_high:
        raise ParameterError("tau_low must be <= tau_high")

    def probe(tau: float) -> TauProbe:
        model = ToyModel(template.with_temperature(tau))
        train(model, data, train_cfg)
        return TauProbe(tau=tau, accuracy=evaluate(model, data, snapped=True))

    if tau_low == tau_high:
        p = probe(tau_low)
        return p.tau, [p]
    if budget < 3:
        raise ParameterError(f"budget must be >= 3, got {budget}")

    lo, hi = math.log(tau_low), math.log(tau_high)
    trace = [probe(tau_low), probe(tau_high)]
    remaining = budget - 2

    if remaining == 1:
        trace.append(probe(math.exp(0.5 * (lo + hi))))
    else:
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        f1, f2 = probe(math.exp(x1)), probe(math.exp(x2))
        trace += [f1, f2]
        remaining -= 2
        while remaining > 0:
            if f1.accuracy >= f2.accuracy:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - inv_phi * (hi - lo)
                f1 = probe(math.exp(x1))
                trace.append(f1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + inv_phi * (hi - lo)
                f2 = probe(math.exp(x2))
                trace.append(f2)
            remaining -= 1

    best = max(trace, key=lambda p: (p.accuracy, -p.tau))
    return best.tau, trace


# ---------------------------------------------------------------------------
# metrics export
# ---------------------------------------------------------------------------


def export_metrics_csv(log: list[BatchMetrics], stream: io.TextIOBase) -> None:
    """One row per batch; per-layer columns for gap and iteration count."""
    if not log:
        raise DataError("metrics log is empty")
    layer_ids = sorted({i for m in log for i in m.layer_errors})
    header = ["schema", "epoch", "batch", "loss"]
    for i in layer_ids:
        header += [f"layer{i}_frob_error", f"layer{i}_iterations"]
    writer = csv.writer(stream)
    writer.writerow(header)
    for m in log:
        row = [METRICS_SCHEMA, m.epoch, m.batch, repr(m.loss)]
        for i in layer_ids:
            row += [repr(m.layer_errors[i]) if i in m.layer_errors else "",
                    m.layer_iterations.get(i, "")]
        writer.writerow(row)


def read_metrics_csv(stream: io.TextIOBase) -> list[BatchMetrics]:
    """Inverse of export_metrics_csv."""
    reader = csv.reader(stream)
    header = next(reader)
    if not header or header[0] != "schema":
        raise DataError("not a dkm metrics file")
    layer_ids = [int(name[5:].split("_")[0]) for name in header[4::2]]
    out = []
    for row in reader:
        if row[0] != METRICS_SCHEMA:
            raise DataError(f"unsupported metrics schema {row[0]!r}")
        m = BatchMetrics(epoch=int(row[1]), batch=int(row[2]), loss=float(row[3]))
        for pos, i in enumerate(layer_ids):
            err, iters = row[4 + 2 * pos], row[5 + 2 * pos]
            if err:
                m.layer_errors[i] = float(err)
            if iters:
                m.layer_iterations[i] = int(iters)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def save_model(model: ToyModel, path, dataset_args: dict | None = None) -> None:
    """Write the model and its clustering state to an .npz archive."""
    from dataclasses import asdict

    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(model.spec.layer_dims),
        "schemes": [None if s is None else asdict(s) for s in model.spec.schemes],
        "seed": model.spec.seed,
        "attention_mode": model.spec.attention_mode,
        "draws": 1,  # Gumbel samples per row: readers of older versions require the key
        "dataset_args": dataset_args,
    }
    arrays: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    for i in range(model.layers):
        arrays[f"w{i}"] = model.weights[i]
        arrays[f"b{i}"] = model.biases[i]
        st = model.state[i]
        if st is not None:
            arrays[f"st{i}_wt"] = st.w_tilde
            arrays[f"st{i}_idx"] = st.indices
            arrays[f"st{i}_cb"] = st.codebook.centroids
            arrays[f"st{i}_it"] = np.array(st.iterations)
    np.savez(path, **arrays)


def _model_archive(fh, path) -> np.lib.npyio.NpzFile:
    """The .npz archive read from ``fh`` (opened from ``path``); DataError if it is not one."""
    try:
        archive = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # ValueError: numpy takes it for a pickle
        raise DataError(f"{path} is not a model file (an .npz archive)") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path} is not a model file (an .npz archive)")
    return archive


def load_model(path) -> tuple[ToyModel, dict | None]:
    """Inverse of save_model; returns the model and any saved dataset args.

    Reads format versions 1 and 2; a version-1 file's indices are the row
    argmax of its stored attention; the copy of ``st{i}_cb`` older files hold
    as ``warm{i}`` is ignored. Raises DataError for a file that is not an
    .npz archive, a meta that is not a JSON object, an unknown version, a
    missing array or meta key, a scheme of other fields than DkmConfig's,
    any array of another shape than the model's, indices that are not
    one integer in [0, clusters) per sub-vector, and a meta ``draws`` (Gumbel
    samples averaged per row, written by every version) other than 1.
    """
    with open(path, "rb") as fh, _model_archive(fh, path) as archive:

        def read(key: str, shape: tuple | None = None) -> np.ndarray:
            if key not in archive:
                raise DataError(f"model file has no {key} array")
            value = archive[key]
            if shape is not None and value.shape != shape:
                raise DataError(f"{key} has shape {value.shape}, not {shape}")
            return value

        try:
            meta = json.loads(str(read("meta")))
        except json.JSONDecodeError as exc:
            raise DataError(f"model file meta is not JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DataError(f"model file meta is a JSON {type(meta).__name__}, not an object")
        version = meta.get("format_version", 1)
        if version not in (1, MODEL_FORMAT_VERSION):
            raise DataError(f"unsupported model format version {version!r}")
        try:
            schemes = tuple(None if s is None else DkmConfig(**s) for s in meta["schemes"])
            spec = ModelSpec(
                layer_dims=tuple(meta["layer_dims"]),
                schemes=schemes,
                seed=meta["seed"],
                attention_mode=meta["attention_mode"],
            )
            problem = integer(meta["draws"], 1, 1)
        except (KeyError, TypeError) as exc:  # a key missing, or a scheme of other fields
            raise DataError(f"model file meta is malformed: {exc!r}") from None
        if problem:
            raise DataError(f"model file meta draws {problem}: this version takes one Gumbel sample per row")
        model = ToyModel(spec)
        for i in range(model.layers):
            model.weights[i] = read(f"w{i}", spec.layer_dims[i : i + 2]).copy()
            model.biases[i] = read(f"b{i}", (1, spec.layer_dims[i + 1])).copy()
            if f"st{i}_wt" in archive:
                cfg = schemes[i]
                if cfg is None:
                    raise DataError(f"layer {i} has clustering state but no scheme")
                w_tilde = read(f"st{i}_wt", (spec.subvectors(i), cfg.dim)).copy()
                codebook = Codebook(read(f"st{i}_cb", (cfg.clusters, cfg.dim)).copy())
                if version == 1:
                    indices = np.argmax(read(f"st{i}_att"), axis=1)
                else:
                    indices = read(f"st{i}_idx")
                    if indices.dtype.kind not in "iu":
                        raise DataError(f"layer {i} indices have dtype {indices.dtype}, not integer")
                if indices.shape != (w_tilde.shape[0],):
                    raise DataError(
                        f"layer {i} indices have shape {indices.shape}, "
                        f"not one per sub-vector ({w_tilde.shape[0]},)"
                    )
                if indices.size and not (0 <= indices.min() and indices.max() < codebook.clusters):
                    raise DataError(f"layer {i} indices fall outside [0, {codebook.clusters})")
                model.state[i] = LayerState(
                    w_tilde=w_tilde,
                    indices=indices.astype(np.intp),
                    codebook=codebook,
                    iterations=int(read(f"st{i}_it", ())),
                )
    return model, meta.get("dataset_args")


def export_metrics_json(log: list[BatchMetrics], stream: io.TextIOBase) -> None:
    if not log:
        raise DataError("metrics log is empty")
    payload = {
        "schema": METRICS_SCHEMA,
        "batches": [
            {
                "epoch": m.epoch,
                "batch": m.batch,
                "loss": m.loss,
                "layer_errors": {str(k): v for k, v in m.layer_errors.items()},
                "layer_iterations": {str(k): v for k, v in m.layer_iterations.items()},
            }
            for m in log
        ],
    }
    json.dump(payload, stream, indent=2)
