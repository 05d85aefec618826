"""Tests of the benchmark itself (not collected by the package's test suite):

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark as the command line does, from the root of the
checkout, and take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_corpus", "decide_sweep", "oracle")  # as in BENCHMARK.json
SEED = 7

sys.path.insert(0, BENCH_DIR)


def bench(workload: str, trace: int, cwd: str = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_section(workload: str, section: str) -> dict:
    with open(os.path.join(BENCH_DIR, "results", f"{workload}-seed{SEED}.json"), encoding="utf-8") as f:
        return json.load(f)[section]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_repeat_outputs_and_counts(workload):
    """Two traced runs of one seed give identical output digests and
    per-layer counts, and a timed run serves the same outputs first."""
    traced = []
    for _ in range(2):
        line = last_line(bench(workload, trace=1))
        assert line["correct"] and line["failed"] == 0
        record = result_section(workload, "traced")
        counts = {k: v["value"] for k, v in record["metrics"].items() if v["unit"] in ("count", "ratio")}
        traced.append((record["outputs_digest"], counts))
    assert traced[0] == traced[1]

    line = last_line(bench(workload, trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 100
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = {m["name"] for m in json.load(f)["end_to_end"]}
    assert set(line["metrics"]) == names
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result_section(workload, "timed")["outputs_digest"] == traced[0][0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("decide_sweep", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sweep_closed_forms():
    import sweep

    assert sweep.torus_bundle_status(((2, 1), (1, 1))) == sweep.ICC
    assert sweep.torus_bundle_status(((1, 1), (0, 1))) == sweep.NOT_ICC
    assert sweep.torus_bundle_status(((0, -1), (1, 0))) == sweep.NOT_ICC
    assert sweep.torus_bundle_status(((-1, 0), (0, -1))) == sweep.NOT_ICC
    import random

    rng = random.Random(0)
    for _ in range(200):
        m = sweep.random_sl2z(rng)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
