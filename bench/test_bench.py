"""Smoke tests of the benchmark runner: ``python3 -m pytest bench``.

Every workload runs in ``--smoke`` mode (tiny sizes) in both trace modes and
must print, as its last line, a correct result naming exactly the metrics
BENCHMARK.json lists.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5",
                      "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sync_edgelist", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_summary_counts_nested_spans_once_and_splits_self_time():
    # cli.main > cli.parse > cli.parse (nested) and cli.main > experiment.ensemble
    # > dynamics.run; times in ns.
    run = {"scheme": "synchronous", "steps": 10, "infections": 4,
           "entries": 11, "tail": 0, "bytes": 88}
    spans = [["cli.main", -1, 0, 1000, None],
             ["cli.parse", 0, 0, 100, None],
             ["cli.parse", 1, 10, 60, None],
             ["experiment.ensemble", 0, 100, 900, None],
             ["dynamics.run", 3, 200, 800, run]]
    values = summarize([spans], parallel_wall_s=1.0, workers=1)
    assert values["cli.parse.busy_s"][0] == pytest.approx(100e-9)
    assert values["dynamics.sync.busy_s"][0] == pytest.approx(600e-9)
    assert values["dynamics.sync.steps"][0] == 10
    assert values["experiment.self_s"][0] == pytest.approx(200e-9)
    assert values["cli.self_s"][0] == pytest.approx(200e-9)
    assert values["dynamics.traj_bytes"][0] == 88
