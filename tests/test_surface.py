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


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_readme_quick_start_runs_without_warnings():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start")[1].split("```python")[1].split("```")[0]
    proc = run_python("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stderr
    label, mean, cv = proc.stdout.split()
    assert label == "time_to_0.01"
    assert float(mean) >= 0 and float(cv) >= 0


def test_the_cli_loads_no_module_that_only_hashing_or_a_pool_needs():
    # a process maps OpenSSL with its first draw or fingerprint, and starts a
    # pool only for a pooled run; importing the CLI does neither
    proc = run_python("-c", "import sys, numpy; before = set(sys.modules); "
                      "import diffusim.cli; print(*set(sys.modules) - before)")
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "diffusim.cli" in added
    assert not {"hashlib", "_hashlib", "concurrent.futures"} & set(added)


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
