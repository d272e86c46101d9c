"""The benchmark's workloads: inputs made from a seed, timed calls, output checks.

Each workload is a closed loop: a call starts when the previous one ends.
A round runs every variant of the workload once. Each variant has a write
path, the call that produces clustered or compressed weights, and a read
path, the call that uses them. Both paths are timed on their own, and every
output is checked after its timer has stopped.

Why these workloads:

- ``train_battery``: the acceptance battery configuration (criteria 7-10),
  once per mode. Its matrices are tiny, so the time goes to tape
  bookkeeping; ``none`` bypasses clustering and ``hard``/``gumbel`` run the
  baselines. It is the only workload that runs them and the harness MLP.
- ``cluster_large``: one 65,536-weight layer, forward plus backward with
  the iteration cap always run (epsilon 0). A few huge (m, k) arrays make
  it bound by bytes and memory, with no convergence or harness effects.
- ``codec``: ``dkm compress`` (forward-only clustering and packing) and
  ``dkm decompress``/``inspect`` (unpacking with no clustering) through
  ``dkm.cli.main``, so a gain on one path that costs the other shows.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dkm import autodiff as ad
from dkm import baselines, cli, compression, core, harness
from dkm.core import DkmConfig

TRAIN_MODES = ("dkm", "hard", "gumbel", "none")
WORKLOADS = ("train_battery", "cluster_large", "codec")

# The acceptance battery (tests/test_acceptance.py, criteria 7-10).
BATTERY_SIZES = {
    "full": {"n": 2000, "hidden": (64, 64), "epochs": 15},
    "tiny": {"n": 200, "hidden": (8, 8), "epochs": 1},
}
BATTERY_SCHEME = DkmConfig(bits=2, dim=1, temperature=0.002, epsilon=1e-4)
EVALUATIONS_PER_TRAINING = 20
MODEL_SEEDS_PER_RUN = 8

CLUSTER_WEIGHTS = {"full": 65_536, "tiny": 2_048}
CLUSTER_VARIANTS = (("b4d1", 4, 1), ("b5d2", 5, 2))
CLUSTER_TAU = 0.05
SNAPS_PER_STEP = 3
ORACLE_TOLERANCE = 1e-10  # acceptance criterion 1

# name, weights, bits, dim, tau
CODEC_FILES = {
    "full": (("w262k", 262_144, 4, 4, 0.2), ("w1m", 1_048_576, 3, 8, 0.5)),
    "tiny": (("w4k", 4_096, 4, 4, 0.2), ("w8k", 8_192, 3, 8, 0.5)),
}
READS_PER_COMPRESS = 10
CONTAINER_HEADER_BYTES = 18


@dataclass
class Call:
    """One timed call (or one untimed oracle check) and what its check found."""

    variant: str
    path: str
    items: int
    seconds: float | None
    problems: list[str] = field(default_factory=list)


class Recorder:
    """Times calls, checks their outputs, and keeps the results.

    With a tracer, each timed call runs as one traced operation; the tracer
    records only while the timer runs, so checks are never traced.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls: list[Call] = []
        self.rounds = 0

    def attempt(self, variant: str, path: str, items: int, fn, check=None):
        """Time ``fn()``, then run ``check(result)`` untimed; return the result."""
        tracer = self.tracer
        try:
            if tracer is None:
                start = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - start
            else:
                tracer.active = True
                try:
                    with tracer.operation(f"bench.{path}.{variant}"):
                        start = time.perf_counter()
                        result = fn()
                        seconds = time.perf_counter() - start
                finally:
                    tracer.active = False
        except Exception as exc:  # a failed operation is counted, not fatal
            self.calls.append(Call(variant, path, items, None, [f"{type(exc).__name__}: {exc}"]))
            return None
        try:
            problems = check(result) if check is not None else []
        except Exception as exc:  # a malformed output can make a check raise
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.calls.append(Call(variant, path, items, seconds, problems))
        return result

    def oracle(self, variant: str, problems: list[str]) -> None:
        self.calls.append(Call(variant, "oracle", 0, None, problems))

    def timed_seconds(self) -> float:
        return sum(c.seconds for c in self.calls if c.seconds is not None)


# ---------------------------------------------------------------------------
# train_battery
# ---------------------------------------------------------------------------


class TrainBattery:
    """The acceptance battery configuration, trained once per mode each round.

    Blobs (n=2000, 4 classes, noise 0.5, data seed 1); MLP (2, 64, 64, 4);
    every layer at bits=2, dim=1, tau=0.002, eps=1e-4; batch 64; SGD
    momentum; 15 epochs. Modes dkm, hard, gumbel and none are the variants.
    Like the battery, a run trains on several model and optimizer seeds,
    derived from the workload seed and taken in turn, because the number of
    loop iterations (and so the cost) depends on them. Write path: one full
    training. Read path: snapped validation accuracy of the trained model.
    """

    def __init__(self, seed: int, size: str, workdir: Path):
        sizes = BATTERY_SIZES[size]
        self.data = harness.make_dataset("blobs", sizes["n"], 4, 0.5, seed=1)
        self.dims = (2, *sizes["hidden"], 4)
        self.model_seeds = range(seed * MODEL_SEEDS_PER_RUN, (seed + 1) * MODEL_SEEDS_PER_RUN)
        self.train_cfg = harness.TrainConfig(epochs=sizes["epochs"])
        n_train = self.data.train_x.shape[0]
        self.samples = sizes["epochs"] * n_train
        self.batches = sizes["epochs"] * math.ceil(n_train / self.train_cfg.batch_size)
        self.trainings = {mode: 0 for mode in TRAIN_MODES}
        self.next_models = {mode: self._model(mode) for mode in TRAIN_MODES}
        self.named_rates = {}
        for mode in TRAIN_MODES:
            self.named_rates[f"train.{mode}.samples_per_s"] = ("write", mode)
            self.named_rates[f"train.{mode}.eval_samples_per_s"] = ("read", mode)
        # (mode, model seed) -> (snapped accuracy, final loss) of its first training
        self.outcomes: dict[tuple[str, int], tuple[float, float]] = {}
        self.iterations: dict[str, list[float]] = {mode: [] for mode in TRAIN_MODES}

    def _model(self, mode: str) -> harness.ToyModel:
        seed = self.model_seeds[self.trainings[mode] % len(self.model_seeds)]
        scheme = None if mode == "none" else BATTERY_SCHEME
        spec = harness.ModelSpec(self.dims, (scheme,) * (len(self.dims) - 1), seed=seed, attention_mode=mode)
        return harness.ToyModel(spec)

    def verify(self, rec: Recorder) -> None:
        pass

    def warm_up(self) -> None:
        for mode in TRAIN_MODES:
            model = self._model(mode)
            harness.train(model, self.data, replace(self.train_cfg, epochs=1, seed=model.spec.seed))
            harness.evaluate(model, self.data, snapped=True)

    def round(self, rec: Recorder) -> None:
        for mode in TRAIN_MODES:
            model, self.next_models[mode] = self.next_models[mode], None
            seed = model.spec.seed
            cfg = replace(self.train_cfg, seed=seed)
            trained = rec.attempt(
                mode, "write", self.samples,
                lambda: harness.train(model, self.data, cfg),
                lambda result: self._check_training(mode, result),
            )
            self.trainings[mode] += 1
            self.next_models[mode] = self._model(mode)
            if trained is None:
                continue
            model, log = trained
            final_loss = log[-1].loss
            for _ in range(EVALUATIONS_PER_TRAINING):
                rec.attempt(
                    mode, "read", self.data.val_x.shape[0],
                    lambda: harness.evaluate(model, self.data, snapped=True),
                    lambda acc: self._check_accuracy(mode, seed, acc, final_loss),
                )

    def _check_training(self, mode: str, result) -> list[str]:
        _, log = result
        problems = []
        if len(log) != self.batches:
            problems.append(f"{mode}: {len(log)} batches logged, expected {self.batches}")
        if not all(math.isfinite(m.loss) for m in log):
            problems.append(f"{mode}: non-finite training loss")
        if mode != "none":
            cap = BATTERY_SCHEME.max_iterations
            iters = [it for m in log for it in m.layer_iterations.values()]
            if len(iters) != len(log) * (len(self.dims) - 1):
                problems.append(f"{mode}: a clustered layer logged no iteration count")
            elif not all(1 <= it <= cap for it in iters):
                problems.append(f"{mode}: iteration counts outside [1, {cap}]")
            else:
                self.iterations[mode].append(sum(iters) / len(iters))
        return problems

    def _check_accuracy(self, mode: str, model_seed: int, accuracy: float, final_loss: float) -> list[str]:
        if not 0.0 <= accuracy <= 1.0:
            return [f"{mode}: accuracy {accuracy} outside [0, 1]"]
        # training is seeded, so a model seed gives the same result every time
        first = self.outcomes.setdefault((mode, model_seed), (accuracy, final_loss))
        if first != (accuracy, final_loss):
            return [f"{mode}, model seed {model_seed}: (accuracy, final loss) "
                    f"{(accuracy, final_loss)} != first training {first}"]
        return []

    def details(self) -> dict:
        """Snapped accuracy and final loss as measured, mean over model seeds."""
        out = {}
        for mode in TRAIN_MODES:
            results = {seed: v for (m, seed), v in sorted(self.outcomes.items()) if m == mode}
            if results:
                accs = [a for a, _ in results.values()]
                losses = [loss for _, loss in results.values()]
                out[f"train.{mode}.snapped_accuracy"] = {"value": sum(accs) / len(accs), "unit": "ratio"}
                out[f"train.{mode}.final_loss"] = {"value": sum(losses) / len(losses), "unit": "nats"}
                out[f"train.{mode}.accuracy_by_model_seed"] = {
                    "value": {str(k): v[0] for k, v in results.items()}, "unit": "ratio"}
            if self.iterations[mode]:
                its = self.iterations[mode]
                out[f"train.{mode}.iterations_mean"] = {"value": sum(its) / len(its), "unit": "count"}
        return out


# ---------------------------------------------------------------------------
# cluster_large
# ---------------------------------------------------------------------------


@dataclass
class StepOutput:
    grad: np.ndarray
    attention: np.ndarray
    codebook: core.Codebook
    iterations: int
    loss: float
    forward_s: float
    backward_s: float


class ClusterWorkload:
    """One 65,536-weight layer at (bits=4, dim=1) and at (bits=5, dim=2).

    Write path: ``core.dkm_forward`` with epsilon 0, then ``autodiff.backward``
    of a squared-error loss against a seeded target. Read path: snapping the
    result with ``compression.snap``.
    """

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(CLUSTER_WEIGHTS[size])
        self.seed = seed
        self.layers = []
        for name, bits, dim in CLUSTER_VARIANTS:
            sub = compression.reshape_to_subvectors(weights, dim)
            cfg = DkmConfig(bits=bits, dim=dim, temperature=CLUSTER_TAU, epsilon=0.0)
            target = rng.standard_normal(sub.values.shape)
            self.layers.append((name, sub, cfg, target))
        self.named_rates = {"cluster.weights_per_s": ("write", None),
                            "cluster.snap_weights_per_s": ("read", None)}
        self.phases: dict[str, dict[str, list[float]]] = {}
        self.snapped_rmse: dict[str, float] = {}

    def verify(self, rec: Recorder) -> None:
        """Criterion-1 oracle: one loop iteration equals one EM step, var tau/2."""
        for name, sub, cfg, _ in self.layers:
            start = core.init_centroids(sub, cfg, self.seed)
            attn = core.attention(core.distance_matrix(sub, start), cfg.temperature)
            update = core.centroid_update(attn, ad.constant(sub.values))
            one = core.dkm_forward(sub, config=replace(cfg, max_iterations=1), seed=self.seed)
            resp, centers, _ = baselines.em_gmm_step(
                sub, baselines.GmmState(start.centroids, cfg.temperature / 2.0))
            errors = {
                "attention": np.abs(attn.value - resp).max(),
                "centroid_update": np.abs(update.value - centers).max(),
                "dkm_forward": np.abs(one.codebook.centroids - centers).max(),
            }
            rec.oracle(name, [f"{k} differs from the EM step by {v:.3g}"
                              for k, v in errors.items() if not v <= ORACLE_TOLERANCE])

    def warm_up(self) -> None:
        self.round(Recorder())
        self.phases.clear()

    def _step(self, sub, cfg, target) -> StepOutput:
        w = ad.leaf(sub.values)
        start = time.perf_counter()
        res = core.dkm_forward(w, config=cfg, seed=self.seed)
        mid = time.perf_counter()
        loss = ad.sum_all(ad.square(ad.sub(res.w_tilde, ad.constant(target, checked=False))))
        ad.backward(loss)
        end = time.perf_counter()
        return StepOutput(w.grad, res.attention, res.codebook, res.telemetry.iterations_used,
                          float(loss.value[0, 0]), mid - start, end - mid)

    def _check_step(self, name, sub, cfg, out: StepOutput) -> list[str]:
        problems = []
        if out.grad is None or out.grad.shape != sub.values.shape:
            return [f"gradient shape {None if out.grad is None else out.grad.shape} != {sub.values.shape}"]
        if not np.all(np.isfinite(out.grad)):
            problems.append("gradient has non-finite entries")
        if out.codebook.centroids.shape != (cfg.clusters, cfg.dim):
            problems.append(f"codebook shape {out.codebook.centroids.shape}")
        if out.iterations != cfg.max_iterations:
            problems.append(f"{out.iterations} iterations with epsilon 0, expected {cfg.max_iterations}")
        if not math.isfinite(out.loss):
            problems.append("non-finite loss")
        if not problems:
            phases = self.phases.setdefault(name, {"forward_s": [], "backward_s": []})
            phases["forward_s"].append(out.forward_s)
            phases["backward_s"].append(out.backward_s)
        return problems

    def _check_snap(self, name, sub, out: StepOutput, snapped) -> list[str]:
        indices, rec = snapped
        expected = np.argmax(out.attention, axis=1)
        if not np.array_equal(indices, expected):
            return ["snap indices differ from the attention argmax"]
        if not np.array_equal(rec.values, out.codebook.centroids[indices]):
            return ["snapped weights differ from codebook[indices]"]
        self.snapped_rmse[name] = float(np.sqrt(np.mean((sub.values - rec.values) ** 2)))
        return []

    def round(self, rec: Recorder) -> None:
        for name, sub, cfg, target in self.layers:
            out = rec.attempt(
                name, "write", sub.original_length,
                lambda: self._step(sub, cfg, target),
                lambda o: self._check_step(name, sub, cfg, o),
            )
            if out is None:
                continue
            for _ in range(SNAPS_PER_STEP):
                rec.attempt(
                    name, "read", sub.original_length,
                    lambda: compression.snap(sub, out.attention, out.codebook),
                    lambda s: self._check_snap(name, sub, out, s),
                )
            del out  # free the (m, k) attention before the next step

    def details(self) -> dict:
        out = {}
        for name, phases in self.phases.items():
            for phase, values in phases.items():
                if values:
                    out[f"cluster.{name}.{phase}"] = {"value": float(np.median(values)), "unit": "s"}
        for name, rmse in self.snapped_rmse.items():
            out[f"cluster.{name}.snapped_rmse"] = {"value": rmse, "unit": "1"}
        return out


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@dataclass
class CodecFile:
    name: str
    weights: int
    bits: int
    dim: int
    tau: float
    source: Path
    container: Path
    restored: Path
    original: np.ndarray
    blob: bytes | None = None
    decoded: np.ndarray | None = None
    rmse: float | None = None

    def container_bytes(self) -> int:
        """Closed form: header + float32 codebook + packed index stream."""
        count = -(-self.weights // self.dim)
        return CONTAINER_HEADER_BYTES + (1 << self.bits) * self.dim * 4 + -(-count * self.bits // 8)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``dkm.cli.main`` in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CodecWorkload:
    """``dkm compress`` once per round, then ``decompress`` and ``inspect`` repeatedly.

    Seeded float32 weight files: 262,144 weights at bits=4/dim=4 and
    1,048,576 weights at bits=3/dim=8. Write path: compress. Read path:
    decompress (inspect is timed and reported on its own).
    """

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.named_rates = {"compress.weights_per_s": ("write", None),
                            "decompress.weights_per_s": ("read", None),
                            "inspect.weights_per_s": ("inspect", None)}
        self.files = []
        for name, weights, bits, dim, tau in CODEC_FILES[size]:
            values = rng.standard_normal(weights).astype("<f4")
            source = workdir / f"{name}.f32"
            values.tofile(source)
            self.files.append(CodecFile(
                name, weights, bits, dim, tau, source,
                workdir / f"{name}.dkmz", workdir / f"{name}.restored.f32",
                values.astype(np.float64)))

    def verify(self, rec: Recorder) -> None:
        pass

    def warm_up(self) -> None:
        self.round(Recorder(), reads=1)

    def _compress(self, f: CodecFile):
        return run_cli([
            "compress", "--weights", str(f.source), "--bits", str(f.bits), "--dim", str(f.dim),
            "--tau", str(f.tau), "--seed", str(self.seed), "--out", str(f.container)])

    def _check_compress(self, f: CodecFile, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"compress exited {code}: {err.strip()}"]
        blob = f.container.read_bytes()
        layer = compression.deserialize(blob)
        problems = []
        if compression.serialize(layer) != blob:
            problems.append("serialize(deserialize(container)) differs from the container")
        if len(blob) != f.container_bytes():
            problems.append(f"container is {len(blob)} bytes, closed form gives {f.container_bytes()}")
        if f.blob is not None and blob != f.blob:
            problems.append("compress output differs between runs with the same seed")
        decoded = layer.codebook[layer.indices].reshape(-1)[: f.weights]
        error = float(np.linalg.norm(f.original - decoded.astype(np.float64)))
        reported = json.loads(out)["reconstruction_error"]
        if not abs(reported - error) <= 1e-9 * max(1.0, error):
            problems.append(f"reported reconstruction error {reported} != {error}")
        f.blob, f.decoded = blob, decoded
        f.rmse = error / math.sqrt(f.weights)
        return problems

    def _check_decompress(self, f: CodecFile, result) -> list[str]:
        code, _, err = result
        if code != 0:
            return [f"decompress exited {code}: {err.strip()}"]
        if f.decoded is None:
            return ["no checked container to compare against"]
        if not np.array_equal(np.fromfile(f.restored, dtype="<f4"), f.decoded):
            return ["decompressed weights differ from codebook[indices]"]
        return []

    def _check_inspect(self, f: CodecFile, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"inspect exited {code}: {err.strip()}"]
        payload = json.loads(out)
        want = {"bits": f.bits, "dim": f.dim, "original_length": f.weights,
                "serialized_bytes": f.container_bytes()}
        got = {k: payload.get(k) for k in want}
        return [] if got == want else [f"inspect reported {got}, expected {want}"]

    def round(self, rec: Recorder, reads: int = READS_PER_COMPRESS) -> None:
        for f in self.files:
            rec.attempt(f.name, "write", f.weights, lambda: self._compress(f),
                        lambda r: self._check_compress(f, r))
            decompress = ["decompress", "--input", str(f.container), "--out", str(f.restored)]
            inspect = ["inspect", "--input", str(f.container)]
            for _ in range(reads):
                rec.attempt(f.name, "read", f.weights, lambda: run_cli(decompress),
                            lambda r: self._check_decompress(f, r))
                rec.attempt(f.name, "inspect", f.weights, lambda: run_cli(inspect),
                            lambda r: self._check_inspect(f, r))

    def details(self) -> dict:
        checked = [f for f in self.files if f.rmse is not None]
        if not checked:
            return {}
        total = sum(f.weights for f in checked)
        rmse = math.sqrt(sum(f.rmse ** 2 * f.weights for f in checked) / total)
        out = {"compress.reconstruction_rmse": {"value": rmse, "unit": "1"}}
        for f in checked:
            out[f"compress.{f.name}.reconstruction_rmse"] = {"value": f.rmse, "unit": "1"}
        return out


def make(name: str, seed: int, size: str, workdir: Path):
    """Build a workload's inputs from its seed."""
    if name == "train_battery":
        return TrainBattery(seed, size, workdir)
    if name == "cluster_large":
        return ClusterWorkload(seed, size, workdir)
    if name == "codec":
        return CodecWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
