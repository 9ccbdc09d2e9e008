"""The public surface: the README example, the exported names, and the
permissions of the files the CLI writes."""
from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import diffusim
from diffusim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_without_warnings():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start")[1].split("```python")[1].split("```")[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    label, mean, cv = proc.stdout.split()
    assert label == "time_to_0.01"
    assert float(mean) >= 0 and float(cv) >= 0


def test_every_exported_name_resolves():
    missing = [name for name in diffusim.__all__ if not hasattr(diffusim, name)]
    assert missing == []
    assert len(set(diffusim.__all__)) == len(diffusim.__all__)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_cli_outputs_follow_the_umask(tmp_path, umask, mode):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"model": "group", "master_seed": 5, "runs": 2,
         "graph": {"type": "directed_cycle", "n": 12}}), encoding="utf-8")
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["gen-graph", "--config", str(config), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    for name in ("runs.csv", "summary.csv", "graph.edges"):
        assert stat.S_IMODE((out / name).stat().st_mode) == mode, name
