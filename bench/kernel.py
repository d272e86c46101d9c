"""Cost of the clustering loop's tile kernel, of the battery trainings, and of compress.

Four measurements, written to one JSON file (default ``BENCH_kernel.json``
at the repository root):

- ``tile_passes``: microseconds per tile pass of each assignment rule
  (soft ``dkm_forward``, Gumbel ``gumbel_forward``, hard ``hard_forward``)
  on layers that fill exactly one cluster-major tile: (k, rows) =
  (4, 4096) as in the acceptance battery, and (16, 8192) and (32, 4096) as
  in the ``cluster_large`` workload. Each call runs the iteration cap
  (epsilon 0), so it makes max_iterations + 1 passes; forward and backward
  time are each divided by that count. Hard mode has no loop backward.
  Every rule runs as training runs it, without the (m, k) attention
  (``keep_attention=False`` for the soft loop; the other two never build
  it).
- ``trainings``: CPU seconds and minor page faults (``ru_minflt``) of one
  warm 15-epoch training per mode on the battery configuration (blobs, MLP
  (2, 64, 64, 4), bits 2, dim 1, tau 0.002), after every mode has trained
  one epoch in the same process. Final loss and snapped accuracy are kept
  so two trees can be checked for identical results. ``nodes_per_batch``
  is the number of autodiff tape nodes built per training batch, counted
  by wrapping ``autodiff.Node.__init__`` during the untimed one-epoch run.
- ``compress``: memory of one ``dkm compress`` of a fixed synthetic file
  (seeded standard normal float32 weights; full size 1,048,576 weights at
  bits 3, dim 8, as the benchmark's ``codec`` w1m file), each in a fresh
  child process: the ``tracemalloc`` peak of the command, and the
  process's ``ru_maxrss`` after imports and after the command (run
  without tracemalloc).
- ``attention_free``: one bits=12 layer (65,536 sub-vectors of dim 1,
  max_iterations 1) clustered with ``keep_attention=False``: its
  ``tracemalloc`` peak and seconds, next to the ``m * k * 8`` bytes its
  (m, k) attention would take.

The ``machine`` block also names the tree measured, as perfbench's results
do: ``git_commit`` (null without a ``.git`` directory) and
``source_sha256``, a digest of the package sources under ``src``.

Usage, from anywhere (the script puts this repository's ``src`` first on
``sys.path`` and pins BLAS to one thread unless the environment says
otherwise)::

    python bench/kernel.py                 # full sizes, ~1 minute
    python bench/kernel.py --tiny --out /tmp/BENCH_kernel.json

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
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

ITERATIONS = 5
# label, bits, dim, sub-vectors, tau, weight scale; each fills one tile
TILES = {
    "full": (
        ("battery", 2, 1, 4096, 0.002, (2.0 / 64) ** 0.5),
        ("cluster_b4d1", 4, 1, 8192, 0.05, 1.0),
        ("cluster_b5d2", 5, 2, 4096, 0.05, 1.0),
    ),
    "tiny": (
        ("battery", 2, 1, 256, 0.002, (2.0 / 64) ** 0.5),
        ("cluster_b4d1", 4, 1, 256, 0.05, 1.0),
        ("cluster_b5d2", 5, 2, 256, 0.05, 1.0),
    ),
}
REPEATS = {"full": 15, "tiny": 2}
BATTERY = {
    "full": {"n": 2000, "hidden": (64, 64), "epochs": 15},
    "tiny": {"n": 200, "hidden": (8, 8), "epochs": 1},
}
SCHEME = DkmConfig(bits=2, dim=1, temperature=0.002, epsilon=1e-4)
# weights, bits, dim, tau of the compressed file
COMPRESS = {"full": (1_048_576, 3, 8, 0.5), "tiny": (8_192, 3, 8, 0.5)}
# sub-vectors of the bits=12 layer (at least 2^12 to seed it)
ATTENTION_FREE_ROWS = {"full": 65_536, "tiny": 4_096}
# Linux keeps a process's ru_maxrss high-water mark across exec, so a child
# starts from the RSS of the process that spawned it. The compress child is
# spawned through a bare interpreter that imports nothing else.
RELAY = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
MODES = ("dkm", "hard", "gumbel", "none")
RULES = {
    "soft": functools.partial(core.dkm_forward, keep_attention=False),
    "gumbel": baselines.gumbel_forward,
    "hard": baselines.hard_forward,
}


def tile_pass(bits: int, dim: int, count: int, tau: float, scale: float, rule: str, repeats: int) -> dict:
    """Median microseconds per forward and backward tile pass of one rule."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((count, dim)) * scale
    target = rng.standard_normal((count, dim))
    cfg = DkmConfig(bits=bits, dim=dim, temperature=tau, epsilon=0.0, max_iterations=ITERATIONS)
    start = core.init_centroids(SubvectorMatrix(values, values.size), cfg, 0)
    forward = RULES[rule]
    fwd, bwd = [], []
    for rep in range(repeats + 1):  # the first call warms up
        leaf = ad.leaf(values)
        t0 = time.perf_counter()
        res = forward(leaf, start, cfg, seed=rep)
        t1 = time.perf_counter()
        ad.backward(ad.sum_all(ad.mul(res.w_tilde, ad.constant(target))))
        t2 = time.perf_counter()
        if rep:
            passes = res.telemetry.iterations_used + 1
            fwd.append((t1 - t0) / passes * 1e6)
            bwd.append((t2 - t1) / passes * 1e6)
    out = {
        "shape": [cfg.clusters, count],
        "dim": dim,
        "tau": tau,
        "rule": rule,
        "forward_us_per_pass": round(statistics.median(fwd), 1),
    }
    if rule != "hard":
        out["backward_us_per_pass"] = round(statistics.median(bwd), 1)
    return out


def trainings(size: str) -> dict:
    """CPU seconds, minor faults and tape nodes per batch of one warm battery training per mode."""
    sizes = BATTERY[size]
    data = harness.make_dataset("blobs", sizes["n"], 4, 0.5, seed=1)
    dims = (2, *sizes["hidden"], 4)
    cfg = harness.TrainConfig(epochs=sizes["epochs"], seed=0)

    def model(mode):
        scheme = None if mode == "none" else SCHEME
        spec = harness.ModelSpec(dims, (scheme,) * (len(dims) - 1), seed=0, attention_mode=mode)
        return harness.ToyModel(spec)

    init = ad.Node.__init__
    nodes = {}
    for mode in MODES:
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
    out = {}
    for mode in MODES:
        m = model(mode)
        before = resource.getrusage(resource.RUSAGE_SELF)
        wall = time.perf_counter()
        _, log = harness.train(m, data, cfg)
        wall = time.perf_counter() - wall
        after = resource.getrusage(resource.RUSAGE_SELF)
        out[mode] = {
            "cpu_s": round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 3),
            "wall_s": round(wall, 3),
            "ru_minflt": after.ru_minflt - before.ru_minflt,
            "batches": len(log),
            "nodes_per_batch": nodes[mode],
            "final_loss": log[-1].loss,
            "snapped_accuracy": harness.evaluate(m, data, snapped=True),
        }
    return out


def compress_child(argv: list[str], traced: bool) -> dict:
    """Run ``dkm compress`` once in this process; its peak bytes as JSON fields."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"dkm compress exited {code}")
    if traced:
        return {"traced_peak_bytes": tracemalloc.get_traced_memory()[1]}
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ru_maxrss_after_imports_kib": before, "ru_maxrss_kib": after}


def compress_memory(size: str) -> dict:
    """Traced peak and ru_maxrss of ``dkm compress`` on a fixed synthetic file."""
    weights, bits, dim, tau = COMPRESS[size]
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "weights.f32"
        np.random.default_rng(11).standard_normal(weights).astype("<f4").tofile(source)
        argv = ["compress", "--weights", str(source), "--bits", str(bits), "--dim", str(dim),
                "--tau", str(tau), "--seed", "11", "--out", str(Path(tmp) / "weights.dkmz")]
        out = {"weights": weights, "bits": bits, "dim": dim, "tau": tau}
        for mode in ("plain", "traced"):
            child = [sys.executable, __file__, "--compress-child", mode]
            proc = subprocess.run([sys.executable, "-c", RELAY, *child], input=json.dumps(argv),
                                  capture_output=True, text=True, check=True)
            out.update(json.loads(proc.stdout))
    return out


def attention_free(size: str) -> dict:
    """Traced peak of a bits=12 layer clustered without its (m, k) attention."""
    m = ATTENTION_FREE_ROWS[size]
    cfg = DkmConfig(bits=12, temperature=0.05, epsilon=0.0, max_iterations=1)
    w = ad.constant(np.random.default_rng(12).standard_normal((m, 1)))
    tracemalloc.start()
    start = time.perf_counter()
    core.dkm_forward(w, config=cfg, seed=0, keep_attention=False)
    seconds = time.perf_counter() - start
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
    # internal: one compress, its argv as JSON on stdin (see compress_memory)
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
    passes = []
    for label, bits, dim, count, tau, scale in TILES[size]:
        for rule in RULES:
            row = {"layer": label, **tile_pass(bits, dim, count, tau, scale, rule, REPEATS[size])}
            passes.append(row)
            print(json.dumps(row), flush=True)
    compress = compress_memory(size)
    print(json.dumps({"compress": compress}), flush=True)
    free = attention_free(size)
    print(json.dumps({"attention_free": free}), flush=True)

    report = {
        "size": size,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": source_commit(ROOT),
            "source_sha256": source_digest(ROOT),
        },
        "iterations_per_call": ITERATIONS,
        "tile_passes": passes,
        "trainings": train,
        "compress": compress,
        "attention_free": free,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
