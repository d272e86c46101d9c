"""Smoke test for the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload in BENCHMARK.json runs for one second with tracing off and
on. The test checks that each run passes all of its output checks, that it
prints every end-to-end (or per-layer) metric named in BENCHMARK.json with
its unit, and that the details line carries the named figures of its
workload. It also checks that the benchmark fails, printing no result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Figures each workload names in its details line (name -> unit).
FIGURES = {
    "train_battery": {f"train.{mode}.{name}": unit for mode in ("dkm", "hard", "gumbel", "none")
                      for name, unit in (("samples_per_s", "1/s"), ("snapped_accuracy", "ratio"))},
    "cluster_large": {"cluster.weights_per_s": "1/s", "cluster.b4d1.forward_s": "s",
                      "cluster.b4d1.backward_s": "s"},
    "codec": {"compress.weights_per_s": "1/s", "decompress.weights_per_s": "1/s",
              "compress.reconstruction_rmse": "1"},
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, lines[-2]

    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), metric["name"]

    details = json.loads(lines[-2])["perfbench"]
    assert details["environment"]["seed"] == 0
    assert details["environment"]["blas_threads"] in (1, None)
    for name, unit in FIGURES[workload].items():
        assert details["figures"][name]["unit"] == unit, name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
