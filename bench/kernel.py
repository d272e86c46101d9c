"""Cost of the clustering loop's tile kernel, and of the battery trainings around it.

Two measurements, written to one JSON file (default ``BENCH_kernel.json``
at the repository root):

- ``tile_passes``: microseconds per tile pass of each assignment rule
  (soft ``dkm_forward``, Gumbel ``gumbel_forward``, hard ``hard_forward``)
  on layers that fill exactly one cluster-major tile: (k, rows) =
  (4, 4096) as in the acceptance battery, and (16, 8192) and (32, 4096) as
  in the ``cluster_large`` workload. Each call runs the iteration cap
  (epsilon 0), so it makes max_iterations + 1 passes; forward and backward
  time are each divided by that count. Hard mode has no loop backward.
- ``trainings``: CPU seconds and minor page faults (``ru_minflt``) of one
  warm 15-epoch training per mode on the battery configuration (blobs, MLP
  (2, 64, 64, 4), bits 2, dim 1, tau 0.002), after every mode has trained
  one epoch in the same process. Final loss and snapped accuracy are kept
  so two trees can be checked for identical results.

Usage, from anywhere (the script puts this repository's ``src`` first on
``sys.path`` and pins BLAS to one thread unless the environment says
otherwise)::

    python bench/kernel.py                 # full sizes, ~1 minute
    python bench/kernel.py --tiny --out /tmp/BENCH_kernel.json

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dkm import autodiff as ad  # noqa: E402
from dkm import baselines, core, harness  # noqa: E402
from dkm.core import DkmConfig, SubvectorMatrix  # noqa: E402

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
MODES = ("dkm", "hard", "gumbel", "none")
RULES = {
    "soft": core.dkm_forward,
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
    """CPU seconds and minor faults of one warm battery training per mode."""
    sizes = BATTERY[size]
    data = harness.make_dataset("blobs", sizes["n"], 4, 0.5, seed=1)
    dims = (2, *sizes["hidden"], 4)
    cfg = harness.TrainConfig(epochs=sizes["epochs"], seed=0)

    def model(mode):
        scheme = None if mode == "none" else SCHEME
        spec = harness.ModelSpec(dims, (scheme,) * (len(dims) - 1), seed=0, attention_mode=mode)
        return harness.ToyModel(spec)

    for mode in MODES:
        harness.train(model(mode), data, replace(cfg, epochs=1))
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
            "final_loss": log[-1].loss,
            "snapped_accuracy": harness.evaluate(m, data, snapped=True),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    args = parser.parse_args(argv)
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

    report = {
        "size": size,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "iterations_per_call": ITERATIONS,
        "tile_passes": passes,
        "trainings": train,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
