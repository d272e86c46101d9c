"""Run one benchmark workload in this process and print its result as one JSON line.

Started by run.py, which pins BLAS/OpenMP threads and puts ``src`` on the
import path before this process imports numpy. Set-up time counts from the
top of this file: imports, input and weight-file generation, model build.
With ``--setup-only`` the worker prints its set-up time and exits.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {"items_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def timing_summary(rec: workloads.Recorder) -> dict:
    """Per (path, variant): sample count, median and the highest percentile
    that has at least ten samples beyond it."""
    groups: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for call in rec.calls:
        if call.seconds is not None and not call.problems:
            key = f"{call.path}.{call.variant}"
            groups.setdefault(key, []).append(call.seconds)
            items[key] = call.items
    out = {}
    for key, values in sorted(groups.items()):
        values.sort()
        entry = {"samples": len(values), "items": items[key], "median_s": float(np.median(values))}
        if len(values) >= 20:
            pct = int(100 * (1 - 10 / len(values)))
            entry[f"p{pct}_s"] = _quantile(values, pct / 100)
        out[key] = entry
    return out


def rate(rec: workloads.Recorder, path: str, variant: str | None = None) -> float:
    """Items per second of busy time over every checked call on ``path``.

    A rate over the whole run, rather than a median of a few calls, averages
    the host's speed over the run's full length.
    """
    calls = [c for c in rec.calls if c.path == path and c.seconds is not None and not c.problems
             and variant in (None, c.variant)]
    seconds = sum(c.seconds for c in calls)
    return sum(c.items for c in calls) / seconds if seconds > 0 else float("nan")


def measure(workload, seconds: float, tracer=None) -> workloads.Recorder:
    """Closed loop of whole rounds for about ``seconds``.

    At least one round runs; another starts only if a round of average
    length still ends within ``seconds``.
    """
    rec = workloads.Recorder(tracer)
    start = time.perf_counter()
    while True:
        workload.round(rec)
        rec.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rec.rounds + 1) / rec.rounds > seconds:
            return rec


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.size, Path(args.workdir))
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = workloads.Recorder()
    workload.verify(checks)
    workload.warm_up()

    if args.trace == 0:
        rec = measure(workload, args.seconds)
        values = {
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": rate(rec, "write"),
        }
        units = END_TO_END
        recorders = [checks, rec]
    else:
        # untraced and traced halves of the same run; their ratio is the overhead
        base = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            rec = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.remove()
        overhead = (rec.timed_seconds() / rec.rounds) / (base.timed_seconds() / base.rounds)
        values = tracing.layer_metrics(tracer, rec.rounds, overhead)
        units = tracing.LAYER_METRICS
        tracer.write(Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.json")
        recorders = [checks, base, rec]

    details = {name: {"value": rate(rec, path, variant), "unit": "1/s"}
               for name, (path, variant) in workload.named_rates.items()}
    details.update(workload.details())
    calls = [c for r in recorders for c in r.calls]
    problems = sorted({p for c in calls for p in c.problems})
    print(json.dumps({
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.problems),
        "problems": problems[:20],
        "rounds": rec.rounds,
        "timings": timing_summary(rec),
        "details": details,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
