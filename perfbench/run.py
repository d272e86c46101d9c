"""Benchmark launcher for dkm.

Run from the repository root:

    python3 perfbench/run.py --workload train_battery --seed 0 --seconds 36 --trace 0

Workloads: train_battery, cluster_large, codec (see workloads.py for what
each runs and why). The launcher pins
BLAS/OpenMP to one thread, measures set-up time in several fresh worker
processes, runs the workload in one more, and prints two JSON lines: the
run's details (environment, per-variant timings, checks, the named
figures of each workload), then the result, which is always the last line.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the same run is measured untraced and then traced, and the
result holds the per-layer metrics. Only the standard library is used
here, so the launcher starts no numpy of its own.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train_battery", "cluster_large", "codec")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

HERE = Path(__file__).resolve().parent


def source_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(args, workdir: Path, env: dict, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "dkm" / "__init__.py").is_file():
        print("perfbench: no dkm sources at ./src/dkm; run from the repository root",
              file=sys.stderr)
        return 2

    build = root / ".bench_build"
    workdir = build / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    # never write bytecode into the checkout, so every set-up compiles the
    # same sources whatever the caller's environment
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"

    def probe_setup(count: int) -> list[float]:
        return [run_worker(args, workdir, env, deadline, ["--setup-only"])["setup_s"]
                for _ in range(count if args.trace == 0 else 0)]

    try:
        # probes before and after the run, so set-up samples span the run
        setups = probe_setup(SETUP_PROBES // 2)
        out = run_worker(args, workdir, env, deadline)
        setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = out["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    env_stamp = dict(out["environment"])
    env_stamp.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": source_commit(root),
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    })
    print(json.dumps({"perfbench": {
        "environment": env_stamp,
        "setup_samples_s": setups if args.trace == 0 else None,
        "rounds": out["rounds"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
        "figures": out["details"],
        "timings": out["timings"],
    }}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
