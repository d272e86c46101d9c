"""Spans and counters around calls into the dkm layers, for the traced run.

The tracer replaces public functions on the dkm modules with wrappers that
record one span per call (name, start, end, parent span, operation id) and
puts the originals back when it is removed. Spans stay in memory until the
run ends. Nothing under ``src/`` is changed: every span sits at a call into
a layer's public function, as seen from outside the layer.

A layer's self time is its span's duration minus the durations of its
direct child spans. Work the tracer does for itself after a call (reading
tracemalloc, counting) is recorded as a ``trace.bookkeeping`` span so that
it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"

# Every per-layer metric the traced run reports, with its unit. A layer a
# workload never calls reports 0.
LAYER_METRICS = {
    "autodiff.nodes": "count",
    "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    "autodiff.tape_bytes": "bytes",
    "autodiff.tape_bytes_per_mk": "ratio",
    "core.dkm_forward_s": "s",
    "core.dkm_forward_self_s": "s",
    "core.dkm_forward_peak_bytes": "bytes",
    "core.dkm_forward_calls": "count",
    "core.distance_matrix_s": "s",
    "core.attention_s": "s",
    "core.centroid_update_s": "s",
    "core.init_centroids_s": "s",
    "core.iterations_mean": "count",
    "core.converged_share": "ratio",
    "baselines.hard_forward_s": "s",
    "baselines.gumbel_forward_s": "s",
    "baselines.hard_iterations_mean": "count",
    "baselines.gumbel_iterations_mean": "count",
    "compression.snap_s": "s",
    "compression.serialize_s": "s",
    "compression.deserialize_s": "s",
    "compression.build_report_s": "s",
    "compression.container_bytes": "bytes",
    "harness.train_self_s": "s",
    "harness.evaluate_s": "s",
    "harness.batches": "count",
    "cli.read_weights_s": "s",
    "cli.write_weights_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory spans and counters for calls into the dkm modules.

    Wrappers only record while ``active`` is set, so output checks that run
    between timed calls go straight to the original functions.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._peak_sampled_op = -1

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span for one timed operation of the workload."""
        self.op += 1
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, sample_peak: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``after(result)`` runs once the span is closed, inside a bookkeeping
        span. With ``sample_peak`` the first call of each operation runs
        under tracemalloc, recording its peak bytes and the bytes it still
        holds on return, with the m*k size of the attention it returned.
        A function the package no longer has is left unwrapped, and its
        layer reports 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sampling = sample_peak and tracer._peak_sampled_op != tracer.op
            if sampling:
                tracer._peak_sampled_op = tracer.op
                book = tracer._open(BOOKKEEPING)
                tracemalloc.start()
                tracer._close(book)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index)
                if sampling:
                    tracemalloc.stop()
                raise
            tracer._close(index)
            book = tracer._open(BOOKKEEPING)
            try:
                tracer.counters[name + ".calls"] += 1
                if sampling:
                    retained, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    tracer.values[name + ".peak_bytes"].append(peak)
                    m, k = result.attention.shape
                    tracer.values[name + ".tape"].append((retained, m * k))
                if after is not None:
                    after(result)
            finally:
                tracer._close(book)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_constructions(self, cls, name: str) -> None:
        """Count instances of ``cls`` built while the tracer is active."""
        if cls is None:
            return
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def counting_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if tracer.active:
                tracer.counters[name] += 1

        cls.__init__ = counting_init
        self._patches.append((cls, "__init__", original))

    def remove(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - children[index]
        return total, own

    def write(self, path) -> None:
        """Dump every span as JSON: [name, start, end, parent index, op id]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every dkm layer the workloads reach."""
    from dkm import autodiff, baselines, cli, compression, core, harness

    def dkm_result(prefix):
        def after(result):
            tracer.values[prefix + ".iterations"].append(result.telemetry.iterations_used)
            tracer.values[prefix + ".converged"].append(float(result.telemetry.converged))

        return after

    tracer.wrap(core, "dkm_forward", "core.dkm_forward", dkm_result("core.dkm_forward"), sample_peak=True)
    for fn in ("init_centroids", "distance_matrix", "attention", "centroid_update"):
        tracer.wrap(core, fn, "core." + fn)
    tracer.wrap(baselines, "hard_forward", "baselines.hard_forward", dkm_result("baselines.hard_forward"))
    tracer.wrap(baselines, "gumbel_forward", "baselines.gumbel_forward", dkm_result("baselines.gumbel_forward"))

    tracer.wrap(autodiff, "backward", "autodiff.backward")
    tracer.count_constructions(getattr(autodiff, "Node", None), "autodiff.nodes")

    def container(blob):
        tracer.counters["compression.container_bytes"] += len(blob)

    tracer.wrap(compression, "serialize", "compression.serialize", container)
    for fn in ("snap", "deserialize", "build_report"):
        tracer.wrap(compression, fn, "compression." + fn)
    # harness imported snap by name; its calls are still calls into compression
    tracer.wrap(harness, "snap", "compression.snap")

    def batches(result):
        tracer.counters["harness.batches"] += len(result[1])

    tracer.wrap(harness, "train", "harness.train", batches)
    tracer.wrap(harness, "evaluate", "harness.evaluate")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "read_weights", "cli.read_weights")
    tracer.wrap(cli, "write_weights", "cli.write_weights")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict[str, float]:
    """Per-layer figures per traced round, keyed as in LAYER_METRICS."""
    total, own = tracer.durations()
    per_round = lambda x: x / rounds  # noqa: E731

    # the tape is what dkm_forward allocated and still holds when it returns
    tape_bytes, mk = max(tracer.values["core.dkm_forward.tape"], default=(0, 0))

    out = {
        "autodiff.nodes": per_round(tracer.counters["autodiff.nodes"]),
        "autodiff.backward_s": per_round(total["autodiff.backward"]),
        "autodiff.backward_calls": per_round(tracer.counters["autodiff.backward.calls"]),
        "autodiff.tape_bytes": float(tape_bytes),
        "autodiff.tape_bytes_per_mk": tape_bytes / (mk * 8) if mk else 0.0,
        "core.dkm_forward_s": per_round(total["core.dkm_forward"]),
        "core.dkm_forward_self_s": per_round(own["core.dkm_forward"]),
        "core.dkm_forward_peak_bytes": float(max(tracer.values["core.dkm_forward.peak_bytes"], default=0)),
        "core.dkm_forward_calls": per_round(tracer.counters["core.dkm_forward.calls"]),
        "core.iterations_mean": _mean(tracer.values["core.dkm_forward.iterations"]),
        "core.converged_share": _mean(tracer.values["core.dkm_forward.converged"]),
        "baselines.hard_forward_s": per_round(total["baselines.hard_forward"]),
        "baselines.gumbel_forward_s": per_round(total["baselines.gumbel_forward"]),
        "baselines.hard_iterations_mean": _mean(tracer.values["baselines.hard_forward.iterations"]),
        "baselines.gumbel_iterations_mean": _mean(tracer.values["baselines.gumbel_forward.iterations"]),
        "compression.container_bytes": per_round(tracer.counters["compression.container_bytes"]),
        "harness.train_self_s": per_round(own["harness.train"]),
        "harness.evaluate_s": per_round(total["harness.evaluate"]),
        "harness.batches": per_round(tracer.counters["harness.batches"]),
        "cli.main_self_s": per_round(own["cli.main"]),
        "trace.overhead": overhead,
    }
    for fn in ("distance_matrix", "attention", "centroid_update", "init_centroids"):
        out[f"core.{fn}_s"] = per_round(total["core." + fn])
    for fn in ("snap", "serialize", "deserialize", "build_report"):
        out[f"compression.{fn}_s"] = per_round(total["compression." + fn])
    for fn in ("read_weights", "write_weights"):
        out[f"cli.{fn}_s"] = per_round(total["cli." + fn])
    assert set(out) == set(LAYER_METRICS)
    return out
