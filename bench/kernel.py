"""Cost of the clustering loop's tile kernel, of the battery trainings, and of compress.

Seven measurements, written to one JSON file (default ``BENCH_kernel.json``
at the repository root). Every timed row of ``tile_passes``,
``multi_tile``, ``compress`` and ``precision`` is the median over rounds,
with its quartiles beside it
(``_q1`` and ``_q3`` keys): each round runs every case of the section
once, in an order that reverses from round to round, so host drift falls
on every case alike, and the first round only warms up.

- ``tile_passes``: microseconds per tile pass of each assignment rule
  (soft ``dkm_forward``, Gumbel ``gumbel_forward``, hard ``hard_forward``)
  on one-tile layers: (k, rows) = (4, 4096) as in the acceptance battery,
  and layers at the ``cluster_large`` workload's k = 16 and k = 32 whose
  rows fill exactly one ``core.TILE_BYTES`` tile. Each call runs the iteration cap
  (epsilon 0), so it makes max_iterations + 1 passes; forward and backward
  time are each divided by that count. Hard mode has no loop backward.
  Each backward row says whether the call kept its passes' attention for
  backward or replayed them, as the loop itself decides (``core._keeps``:
  one tile whose passes fit in ``core.KEPT_BYTES``).
  Every rule runs as training runs it, without the (m, k) attention
  (``keep_attention=False`` for the soft loop; the other two never build
  it).
- ``trainings``: median CPU seconds, wall seconds and minor page faults
  (``ru_minflt``) of warm 15-epoch trainings per mode on the battery
  configuration (blobs, MLP (2, 64, 64, 4), bits 2, dim 1, tau 0.002),
  after every mode has trained one epoch in the same process. Each round
  trains every mode once, in an order that reverses from round to round,
  so host drift falls on every mode alike. Final loss and snapped accuracy
  are kept so two trees can be checked for identical results (every run
  of a mode must give the same ones). ``nodes_per_batch`` is the number of
  autodiff tape nodes built per training batch, counted by wrapping
  ``autodiff.Node.__init__`` during the untimed one-epoch run.
- ``compress``: time and memory of ``dkm compress`` on a fixed synthetic
  file (seeded standard normal float32 weights; full size 1,048,576
  weights at bits 3, dim 8, as the benchmark's ``codec`` w1m file), each
  run in a fresh child process: the ``tracemalloc`` peak of the command
  in one child; and, over several children run one after another without
  tracemalloc, the wall seconds of the command and the ``ru_maxrss``
  after imports and after the command.
- ``precision``: the soft loop (``dkm_forward`` on a constant, epsilon
  1e-4, 5 iterations, no attention) on the benchmark's two ``codec``
  shapes (its seeded float32 weights, bits, dim and tau), run on the
  weights widened to float64 and on the float32 weights themselves: wall
  seconds of alternating rounds, the ``tracemalloc`` peak of one call,
  the share of sub-vectors whose float32 index equals the float64 one,
  and both reconstruction RMSEs of ``codebook[indices]`` against the
  weights.
- ``multi_tile``: wall seconds of forward and of backward of one
  65,536-weight layer at bits 4/dim 1 and at bits 5/dim 2, as in the
  ``cluster_large`` workload (tau 0.05, epsilon 0, 5 iterations), under
  each ``rule``: soft (``dkm_forward``, attention kept, as the workload
  runs it) and Gumbel (``gumbel_forward``, one draw), with the tile
  workers limited to one and with all of them (the machine block's
  ``workers``). Both layers are 16 tiles at full size and 2 with
  ``--tiny``.
- ``numerics``: on the same two layers, the soft loop against what it
  must agree with: the largest absolute difference between its final
  attention and the public ``attention(distance_matrix(w, codebook))``
  (the loop softmaxes logits, the public nodes distances over tau, so
  they agree to rounding, not bit for bit), whether both have the same
  zero entries and whether ``indices`` is the public attention's argmax;
  and the largest absolute difference between one loop iteration's
  codebook and one fixed-variance EM step (acceptance criterion 1).
  Recorded, not gated: tier-1 tests hold both agreements.
- ``attention_free``: one bits=12 layer (65,536 sub-vectors of dim 1,
  max_iterations 1) clustered with ``keep_attention=False``: the
  ``tracemalloc`` peak of one call and the seconds of another, untraced,
  next to the ``m * k * 8`` bytes its (m, k) attention would take.

The ``machine`` block also names the tree measured, as perfbench's results
do: ``git_commit`` (null without a ``.git`` directory) and
``source_sha256``, a digest of the package sources under ``src``.

Usage, from anywhere (the script puts this repository's ``src`` first on
``sys.path`` and pins BLAS to one thread unless the environment says
otherwise)::

    python bench/kernel.py                 # full sizes, about a minute
    python bench/kernel.py --tiny --out /tmp/BENCH_kernel.json

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dkm import autodiff as ad  # noqa: E402
from dkm import baselines, cli, core, harness  # noqa: E402
from dkm.core import DkmConfig, SubvectorMatrix  # noqa: E402

sys.path.insert(0, str(ROOT))
from perfbench.run import source_commit, source_digest  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BATTERY_SCHEME, BATTERY_SIZES, CLUSTER_TAU, CLUSTER_VARIANTS, CLUSTER_WEIGHTS, CODEC_FILES, TRAIN_MODES,
)

ITERATIONS = 5
# label, bits, dim, sub-vectors, tau, weight scale; each is one tile, and
# the cluster layers fill it exactly
TILES = {
    "full": (
        ("battery", 2, 1, 4096, 0.002, (2.0 / 64) ** 0.5),
        ("cluster_b4d1", 4, 1, core.TILE_BYTES // (16 * 8), CLUSTER_TAU, 1.0),
        ("cluster_b5d2", 5, 2, core.TILE_BYTES // (32 * 8), CLUSTER_TAU, 1.0),
    ),
    "tiny": (
        ("battery", 2, 1, 256, 0.002, (2.0 / 64) ** 0.5),
        ("cluster_b4d1", 4, 1, 256, CLUSTER_TAU, 1.0),
        ("cluster_b5d2", 5, 2, 256, CLUSTER_TAU, 1.0),
    ),
}
REPEATS = {"full": 15, "tiny": 2}
# rounds of battery trainings, each training every mode once
TRAINING_RUNS = {"full": 5, "tiny": 1}
# weights, bits, dim, tau of the compressed file: the codec workload's larger one
COMPRESS = {size: files[1][1:] for size, files in CODEC_FILES.items()}
# untraced compress children, and alternating runs per precision, after one
# warm-up round; at least 2, which quartiles need
COMPRESS_RUNS = {"full": 5, "tiny": 2}
PRECISION_RUNS = {"full": 7, "tiny": 2}
# weights of the multi-tile layer: cluster_large's at full size, but not its
# tiny 2,048, which fit in one tile, where these rows measure several
MULTI_TILE_WEIGHTS = {"full": CLUSTER_WEIGHTS["full"], "tiny": 8_192}
MULTI_TILE_RULES = {"soft": core.dkm_forward, "gumbel": baselines.gumbel_forward}
# sub-vectors of the bits=12 layer (at least 2^12 to seed it)
ATTENTION_FREE_ROWS = {"full": 65_536, "tiny": 4_096}
# Linux keeps a process's ru_maxrss high-water mark across exec, so a child
# starts from the RSS of the process that spawned it. The compress child is
# spawned through a bare interpreter that imports nothing else.
RELAY = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
RULES = {
    "soft": functools.partial(core.dkm_forward, keep_attention=False),
    "gumbel": baselines.gumbel_forward,
    "hard": baselines.hard_forward,
}


def alternating_rounds(cases: list, repeats: int) -> list[list]:
    """Each case's results over ``repeats`` rounds after one warm-up round.

    ``cases`` are callables; a round calls every one once, with the round
    number, in an order that reverses from round to round.
    """
    results = [[] for _ in cases]
    for rep in range(repeats + 1):
        order = range(len(cases)) if rep % 2 else reversed(range(len(cases)))
        for i in order:
            out = cases[i](rep)
            if rep:
                results[i].append(out)
    return results


def spread(key: str, values, digits: int) -> dict:
    """``key``: the median of ``values``; ``key_q1``, ``key_q3``: its quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {key: round(median, digits), f"{key}_q1": round(q1, digits), f"{key}_q3": round(q3, digits)}


def timed_step(forward, values, start, cfg, target, seed: int) -> tuple[float, float, int]:
    """Forward and backward wall seconds of one differentiable call, and its passes."""
    leaf = ad.leaf(values)
    t0 = time.perf_counter()
    res = forward(leaf, start, cfg, seed=seed)
    t1 = time.perf_counter()
    ad.backward(ad.sum_all(ad.mul(res.w_tilde, ad.constant(target))))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, res.telemetry.iterations_used + 1


def tile_passes(size: str) -> list[dict]:
    """Microseconds per forward and backward tile pass of each layer and rule, over alternating rounds."""
    rows, cases = [], []
    for label, bits, dim, count, tau, scale in TILES[size]:
        rng = np.random.default_rng(7)
        values = rng.standard_normal((count, dim)) * scale
        target = rng.standard_normal((count, dim))
        cfg = DkmConfig(bits=bits, dim=dim, temperature=tau, epsilon=0.0, max_iterations=ITERATIONS)
        start = core.init_centroids(SubvectorMatrix(values, values.size), cfg, 0)
        for rule, forward in RULES.items():
            row = {"layer": label, "shape": [cfg.clusters, count], "dim": dim, "tau": tau, "rule": rule}
            if rule != "hard":  # hard mode has no loop backward
                row["backward"] = "kept" if core._keeps(count, cfg, values.itemsize) else "replayed"
            rows.append(row)
            cases.append(functools.partial(timed_step, forward, values, start, cfg, target))
    for row, runs in zip(rows, alternating_rounds(cases, REPEATS[size])):
        fwd, bwd, passes = zip(*runs)
        row.update(spread("forward_us_per_pass", [t / n * 1e6 for t, n in zip(fwd, passes)], 1))
        if "backward" in row:
            row.update(spread("backward_us_per_pass", [t / n * 1e6 for t, n in zip(bwd, passes)], 1))
    return rows


def multi_tile(size: str) -> list[dict]:
    """Forward and backward wall seconds of multi-tile layers per rule, at one and at all workers."""
    weights = np.random.default_rng(13).standard_normal(MULTI_TILE_WEIGHTS[size])
    count_workers = core._max_workers

    def step(workers, forward, values, cfg, target, rep):
        core._max_workers = lambda: workers
        try:
            return timed_step(forward, values, None, cfg, target, 0)[:2]
        finally:
            core._max_workers = count_workers

    rows, cases = [], []
    runs = itertools.product(CLUSTER_VARIANTS, MULTI_TILE_RULES.items(), sorted({1, count_workers()}))
    for (label, bits, dim), (rule, forward), workers in runs:
        values = weights.reshape(-1, dim)
        target = np.random.default_rng(14).standard_normal(values.shape)
        cfg = DkmConfig(bits=bits, dim=dim, temperature=CLUSTER_TAU, epsilon=0.0, max_iterations=ITERATIONS)
        rows.append({
            "layer": label,
            "rule": rule,
            "weights": weights.size,
            "bits": bits,
            "dim": dim,
            "tiles": len(core._row_tiles(values.shape[0], cfg.clusters, values.itemsize)),
            "workers": workers,
        })
        cases.append(functools.partial(step, workers, forward, values, cfg, target))
    for row, runs in zip(rows, alternating_rounds(cases, REPEATS[size])):
        fwd, bwd = zip(*runs)
        row.update(spread("forward_s", fwd, 4))
        row.update(spread("backward_s", bwd, 4))
    return rows


def numerics(size: str) -> list[dict]:
    """The soft loop against the public nodes and against one EM step, on the multi-tile layers."""
    weights = np.random.default_rng(0).standard_normal(MULTI_TILE_WEIGHTS[size])
    rows = []
    for label, bits, dim in CLUSTER_VARIANTS:
        sub = SubvectorMatrix(weights.reshape(-1, dim), weights.size)
        cfg = DkmConfig(bits=bits, dim=dim, temperature=CLUSTER_TAU, epsilon=0.0, max_iterations=ITERATIONS)
        res = core.dkm_forward(sub, config=cfg, seed=0)
        public = core.attention(core.distance_matrix(sub, res.codebook), cfg.temperature).value
        one = core.dkm_forward(sub, config=replace(cfg, max_iterations=1), seed=0, keep_attention=False)
        start = core.init_centroids(sub, cfg, 0).centroids
        _, centers, _ = baselines.em_gmm_step(sub, baselines.GmmState(start, cfg.temperature / 2.0))
        rows.append({
            "layer": label,
            "weights": weights.size,
            "bits": bits,
            "dim": dim,
            "attention_max_abs_diff": float(np.abs(res.attention - public).max()),
            "same_zero_entries": bool(np.array_equal(res.attention == 0.0, public == 0.0)),
            "indices_are_public_argmax": bool(np.array_equal(res.indices, np.argmax(public, axis=1))),
            "codebook_vs_em_max_abs_diff": float(np.abs(one.codebook.centroids - centers).max()),
        })
    return rows


def trainings(size: str) -> dict:
    """Median cost of warm battery trainings per mode, their results and tape nodes per batch."""
    sizes = BATTERY_SIZES[size]
    data = harness.make_dataset("blobs", sizes["n"], 4, 0.5, seed=1)
    dims = (2, *sizes["hidden"], 4)
    cfg = harness.TrainConfig(epochs=sizes["epochs"], seed=0)

    def model(mode):
        scheme = None if mode == "none" else BATTERY_SCHEME
        spec = harness.ModelSpec(dims, (scheme,) * (len(dims) - 1), seed=0, attention_mode=mode)
        return harness.ToyModel(spec)

    init = ad.Node.__init__
    nodes = {}
    for mode in TRAIN_MODES:
        built = [0]

        def counting_init(node, *args, **kwargs):
            built[0] += 1
            init(node, *args, **kwargs)

        ad.Node.__init__ = counting_init
        try:
            _, log = harness.train(model(mode), data, replace(cfg, epochs=1))
        finally:
            ad.Node.__init__ = init
        nodes[mode] = built[0] / len(log)
    runs = {mode: [] for mode in TRAIN_MODES}
    outcome = {}
    for rep in range(TRAINING_RUNS[size]):
        for mode in TRAIN_MODES if rep % 2 == 0 else reversed(TRAIN_MODES):
            m = model(mode)
            before = resource.getrusage(resource.RUSAGE_SELF)
            wall = time.perf_counter()
            _, log = harness.train(m, data, cfg)
            wall = time.perf_counter() - wall
            after = resource.getrusage(resource.RUSAGE_SELF)
            runs[mode].append((
                after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
                wall,
                after.ru_minflt - before.ru_minflt,
            ))
            result = (len(log), log[-1].loss, harness.evaluate(m, data, snapped=True))
            if outcome.setdefault(mode, result) != result:
                raise SystemExit(f"{mode} training gave {result}, then {outcome[mode]}")
    out = {}
    for mode in TRAIN_MODES:
        cpu, wall, faults = zip(*runs[mode])
        batches, final_loss, accuracy = outcome[mode]
        out[mode] = {
            "runs": len(cpu),
            "cpu_s": round(statistics.median(cpu), 3),
            "wall_s": round(statistics.median(wall), 3),
            "ru_minflt": statistics.median(faults),
            "batches": batches,
            "nodes_per_batch": nodes[mode],
            "final_loss": final_loss,
            "snapped_accuracy": accuracy,
        }
    return out


def compress_child(argv: list[str], traced: bool) -> dict:
    """Run ``dkm compress`` once in this process; its peak bytes (and seconds) as JSON fields."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"dkm compress exited {code}")
    if traced:
        return {"traced_peak_bytes": tracemalloc.get_traced_memory()[1]}
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": seconds, "ru_maxrss_after_imports_kib": before, "ru_maxrss_kib": after}


def compress_cost(size: str) -> dict:
    """Traced peak, median wall seconds and median ru_maxrss of ``dkm compress``."""
    weights, bits, dim, tau = COMPRESS[size]
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "weights.f32"
        np.random.default_rng(11).standard_normal(weights).astype("<f4").tofile(source)
        argv = ["compress", "--weights", str(source), "--bits", str(bits), "--dim", str(dim),
                "--tau", str(tau), "--seed", "11", "--out", str(Path(tmp) / "weights.dkmz")]

        def child(mode):
            cmd = [sys.executable, "-c", RELAY, sys.executable, __file__, "--compress-child", mode]
            proc = subprocess.run(cmd, input=json.dumps(argv), capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)

        (plain,) = alternating_rounds([lambda rep: child("plain")], COMPRESS_RUNS[size])
        out = {"weights": weights, "bits": bits, "dim": dim, "tau": tau, "runs": len(plain)}
        out.update(spread("wall_s", [p["wall_s"] for p in plain], 4))
        for key in ("ru_maxrss_after_imports_kib", "ru_maxrss_kib"):
            out.update(spread(key, [p[key] for p in plain], 0))
        out.update(child("traced"))
    return out


def precision(size: str) -> list[dict]:
    """The soft loop on each ``codec`` shape in float64 and in float32: time, peak, agreement."""
    runs = PRECISION_RUNS[size]
    rows = []
    for name, weights, bits, dim, tau in CODEC_FILES[size]:
        values = np.random.default_rng(1).standard_normal(weights).astype(np.float32)
        cfg = DkmConfig(bits=bits, dim=dim, temperature=tau)
        inputs = {p: ad.constant(values.astype(p).reshape(-1, dim)) for p in ("float64", "float32")}

        def forward(p):
            return core.dkm_forward(inputs[p], config=cfg, seed=1, keep_attention=False)

        def timed(p, rep):
            start = time.perf_counter()
            forward(p)
            return time.perf_counter() - start

        seconds = dict(zip(inputs, alternating_rounds([functools.partial(timed, p) for p in inputs], runs)))
        row = {"file": name, "weights": weights, "bits": bits, "dim": dim, "tau": tau, "runs": runs}
        results = {}
        for p in inputs:
            tracemalloc.start()
            results[p] = forward(p)
            row[f"{p}_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            row.update(spread(f"{p}_forward_s", seconds[p], 4))
            snapped = results[p].codebook.centroids[results[p].indices].astype(np.float64)
            row[f"{p}_rmse"] = float(np.sqrt(np.mean((snapped.reshape(-1) - values) ** 2)))
        row["index_agreement"] = float(np.mean(results["float32"].indices == results["float64"].indices))
        rows.append(row)
    return rows


def attention_free(size: str) -> dict:
    """Traced peak of a bits=12 layer clustered without its (m, k) attention."""
    m = ATTENTION_FREE_ROWS[size]
    cfg = DkmConfig(bits=12, temperature=0.05, epsilon=0.0, max_iterations=1)
    w = ad.constant(np.random.default_rng(12).standard_normal((m, 1)))
    # timed untraced: tracemalloc's lock makes the tile threads take turns
    start = time.perf_counter()
    core.dkm_forward(w, config=cfg, seed=0, keep_attention=False)
    seconds = time.perf_counter() - start
    # a multi-tile call takes no tile buffer from the free list: the peak counts its own
    tracemalloc.start()
    core.dkm_forward(w, config=cfg, seed=0, keep_attention=False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "shape": [m, cfg.clusters],
        "max_iterations": cfg.max_iterations,
        "attention_bytes": m * cfg.clusters * 8,
        "attention_free_peak_bytes": peak,
        "forward_s": round(seconds, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    # internal: one compress, its argv as JSON on stdin (see compress_cost)
    parser.add_argument("--compress-child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compress_child:
        print(json.dumps(compress_child(json.load(sys.stdin), args.compress_child == "traced")))
        return 0
    size = "tiny" if args.tiny else "full"

    # trainings first: large tile arrays freed earlier would raise glibc's
    # dynamic mmap threshold and hide the page faults of small-tile work
    train = trainings(size)
    for mode, row in train.items():
        print(json.dumps({"mode": mode, **row}), flush=True)
    passes = tile_passes(size)
    for row in passes:
        print(json.dumps(row), flush=True)
    tiled = multi_tile(size)
    for row in tiled:
        print(json.dumps({"multi_tile": row}), flush=True)
    agreement = numerics(size)
    for row in agreement:
        print(json.dumps({"numerics": row}), flush=True)
    compress = compress_cost(size)
    print(json.dumps({"compress": compress}), flush=True)
    probe = precision(size)
    for row in probe:
        print(json.dumps({"precision": row}), flush=True)
    free = attention_free(size)
    print(json.dumps({"attention_free": free}), flush=True)

    report = {
        "size": size,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "workers": core._max_workers(),
            "git_commit": source_commit(ROOT),
            "source_sha256": source_digest(ROOT),
        },
        "iterations_per_call": ITERATIONS,
        "tile_passes": passes,
        "multi_tile": tiled,
        "numerics": agreement,
        "trainings": train,
        "compress": compress,
        "precision": probe,
        "attention_free": free,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
