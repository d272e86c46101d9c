"""Desk-scale end-to-end training with soft-clustered layers.

A small MLP on synthetic 2-d classification, trained with SGD momentum.
Compressed layers route their weights through the clustering loop every
batch (soft, hard, or Gumbel attention), carry codebook warm starts across
batches, and log the train-vs-inference weight gap plus loop iteration
counts per batch. Layers are clustered without the (m, k) attention:
snapping reads the loop's nearest-centroid indices. A bracketing search
over the softmax temperature drives repeated short runs.

On the tape, each clustered layer's weights reach the loop and come back
through one ``autodiff.regroup`` node each way, and the loss is one
``autodiff.softmax_cross_entropy`` node. Evaluation runs the same MLP
forward on constant nodes, which build no tape.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import baselines, core
from .core import Codebook, DkmConfig, DkmResult
from .errors import DataError, NumericError, ParameterError

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


def make_dataset(kind: str, n: int, classes: int, noise: float, seed: int) -> Dataset:
    """Deterministic synthetic 2-d classification data, split 80/20.

    blobs: isotropic Gaussian clusters around class centers on a circle.
    moons: two interleaved half-circles (classes must be 2).
    """
    if n < classes:
        raise ParameterError(f"need at least one point per class: n={n}, classes={classes}")
    rng = np.random.default_rng(seed)

    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = 2.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        y = np.arange(n) % classes
        x = centers[y] + noise * rng.standard_normal((n, 2))
    elif kind == "moons":
        if classes != 2:
            raise ParameterError("moons supports exactly 2 classes")
        y = np.arange(n) % 2
        t = rng.uniform(0.0, np.pi, n)
        x = np.where(
            (y == 0)[:, None],
            np.stack([np.cos(t), np.sin(t)], axis=1),
            np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1),
        )
        x += noise * rng.standard_normal((n, 2))
        centers = None
    else:
        raise ParameterError(f"unknown dataset kind {kind!r}")

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
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModelSpec:
    """Blueprint for a ToyModel: dims, per-layer schemes, assignment mode."""

    layer_dims: tuple[int, ...]
    schemes: tuple[DkmConfig | None, ...]
    seed: int = 0
    attention_mode: str = "dkm"
    draws: int = 1

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ParameterError("need at least input and output dims")
        if len(self.schemes) != len(self.layer_dims) - 1:
            raise ParameterError(
                f"{len(self.layer_dims) - 1} weight layers need {len(self.layer_dims) - 1} "
                f"schemes, got {len(self.schemes)}"
            )
        if self.attention_mode not in ATTENTION_MODES:
            raise ParameterError(f"attention_mode must be one of {ATTENTION_MODES}")
        if self.draws < 1:
            raise ParameterError("draws must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

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
    only on the tape. Warm-start codebooks and the last soft weights are
    per-layer state owned by the model.
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
        self.warm_starts: list[Codebook | None] = [None] * self.layers
        self.state: list[LayerState | None] = [None] * self.layers
        self._validate_schemes()

    @property
    def layers(self) -> int:
        return len(self.weights)

    @property
    def schemes(self) -> tuple[DkmConfig | None, ...]:
        return self.spec.schemes

    def _validate_schemes(self):
        for i, cfg in enumerate(self.schemes):
            if cfg is None:
                continue
            n = self.weights[i].size
            count = (n + (-n) % cfg.dim) // cfg.dim
            if count < cfg.clusters:
                raise DataError(
                    f"layer {i}: {count} sub-vectors cannot seed {cfg.clusters} clusters"
                )


def _cluster_layer(
    model: ToyModel, index: int, w_node: ad.Node, gumbel_rng: np.random.Generator
) -> DkmResult:
    cfg = model.schemes[index]
    count = -(-w_node.value.size // cfg.dim)  # the last sub-vector zero-padded
    sub_node = ad.regroup(w_node, count, cfg.dim)
    warm = model.warm_starts[index]
    init_seed = model.spec.seed + index
    mode = model.spec.attention_mode

    if mode == "dkm":
        res = core.dkm_forward(sub_node, warm, cfg, seed=init_seed, keep_attention=False)
    elif mode == "hard":
        res = baselines.hard_forward(sub_node, warm, cfg, seed=init_seed)
    elif mode == "gumbel":
        draw_seed = int(gumbel_rng.integers(2**62))
        res = baselines.gumbel_forward(
            sub_node, warm, cfg, seed=draw_seed, draws=model.spec.draws, init_seed=init_seed
        )
    else:
        raise ParameterError(f"unknown clustering mode {mode!r}")
    return res


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
        res = _cluster_layer(model, i, w_leaf, gumbel_rng)
        results[i] = res
        effective.append(ad.regroup(res.w_tilde, *w_leaf.shape))
    return leaves, effective, results


def _forward_logits(effective, bias_nodes, x: np.ndarray) -> ad.Node:
    h = ad.constant(x, checked=False)
    last = len(effective) - 1
    for i, (w, b) in enumerate(zip(effective, bias_nodes)):
        h = ad.add(ad.matmul(h, w), ad.broadcast_row(b, h.shape[0]))
        if i != last:
            h = ad.relu(h)
    return h


def _record_state(model: ToyModel, results: dict[int, DkmResult]):
    for i, res in results.items():
        model.warm_starts[i] = res.codebook
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

    Runs exactly ``budget`` independent short trainings (fresh model and
    warm-start state per probe): both endpoints first, then golden-section
    interior points. Returns the best probe's temperature and the full
    trace in execution order.
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
        "draws": model.spec.draws,
        "dataset_args": dataset_args,
    }
    arrays: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    for i in range(model.layers):
        arrays[f"w{i}"] = model.weights[i]
        arrays[f"b{i}"] = model.biases[i]
        if model.warm_starts[i] is not None:
            arrays[f"warm{i}"] = model.warm_starts[i].centroids
        st = model.state[i]
        if st is not None:
            arrays[f"st{i}_wt"] = st.w_tilde
            arrays[f"st{i}_idx"] = st.indices
            arrays[f"st{i}_cb"] = st.codebook.centroids
            arrays[f"st{i}_it"] = np.array(st.iterations)
    np.savez(path, **arrays)


def load_model(path) -> tuple[ToyModel, dict | None]:
    """Inverse of save_model; returns the model and any saved dataset args.

    Reads format versions 1 and 2; a version-1 file's indices are the row
    argmax of its stored attention. Raises DataError for an unknown version
    and for indices that are not one integer in [0, clusters) per row of
    the stored soft weights.
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        version = meta.get("format_version", 1)
        if version not in (1, MODEL_FORMAT_VERSION):
            raise DataError(f"unsupported model format version {version!r}")
        schemes = tuple(
            None if s is None else DkmConfig(**s) for s in meta["schemes"]
        )
        spec = ModelSpec(
            layer_dims=tuple(meta["layer_dims"]),
            schemes=schemes,
            seed=meta["seed"],
            attention_mode=meta["attention_mode"],
            draws=meta["draws"],
        )
        model = ToyModel(spec)
        for i in range(model.layers):
            model.weights[i] = archive[f"w{i}"].copy()
            model.biases[i] = archive[f"b{i}"].copy()
            if f"warm{i}" in archive:
                model.warm_starts[i] = Codebook(archive[f"warm{i}"].copy())
            if f"st{i}_wt" in archive:
                w_tilde = archive[f"st{i}_wt"].copy()
                codebook = Codebook(archive[f"st{i}_cb"].copy())
                if version == 1:
                    indices = np.argmax(archive[f"st{i}_att"], axis=1)
                else:
                    indices = archive[f"st{i}_idx"]
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
                    iterations=int(archive[f"st{i}_it"]),
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
