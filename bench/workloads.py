"""The benchmark's workloads: seeded inputs, one iteration each, output checks.

A workload iteration is a short script of ``diffusim`` CLI commands, passed
to a ``cli`` callable that runs one command (``cli(argv) -> exit code``).
The runner supplies either an untraced child-process launcher or a traced
one, so both modes execute exactly the same commands on the same inputs.
Benchmark-side work between commands (turning a curve into an observed
series) happens outside the command timings.

This module imports only the standard library, so the runner stays small
while it measures child processes; checks that need numpy import it lazily.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

COMMITTED_SEED = 31415
SWEEP_CONFIG = Path("configs/onset_spread_sweep.json")
SWEEP_REPORT = Path("reports/onset_spread_sweep_summary.csv")


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def digest(out: Path, names) -> str:
    """SHA-256 over the named output files (absent ones hash as absent)."""
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<absent>")
        h.update(b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Check:
    """Outcome of one output check; a failure counts toward error_rate."""

    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Base class; subclasses fill in the sizes and the command script."""

    name = ""
    workers = 1  # DIFFUSIM_THREADS for the untraced measured run
    outputs: tuple = ()

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root, self.work, self.seed, self.smoke = root, work, seed, smoke

    def prepare(self) -> None:
        """Write the seeded input files into ``self.work``."""

    def setup_probe_args(self) -> list:
        """Arguments of the set-up probe: ``[kind, config, *overrides]``,
        where kind "sweep" parses a sweep config's base."""
        raise NotImplementedError

    def iteration(self, cli, out: Path) -> None:
        """Run the workload's CLI commands once, writing into ``out``."""
        raise NotImplementedError

    @property
    def runs_per_iteration(self) -> int:
        raise NotImplementedError

    def sweep_cells(self, out: Path) -> tuple:
        """(attempted, failed) sweep cells of one iteration."""
        return 0, 0

    def check(self, out: Path) -> list:
        """Correctness checks of one iteration's outputs."""
        raise NotImplementedError


# -- calibration_sweep ---------------------------------------------------------


class CalibrationSweep(Workload):
    """The committed 32-cell reference sweep: graph building dominates, and it
    is the only workload through the process pool."""

    name = "calibration_sweep"
    workers = 2
    outputs = ("sweep_summary.csv", "sweep_errors.csv")
    cells = 32

    def prepare(self):
        if not self.smoke:
            self.config = self.root / SWEEP_CONFIG
            return
        doc = json.loads((self.root / SWEEP_CONFIG).read_text(encoding="utf-8"))
        doc["base"]["runs"] = 3
        doc["axes"]["graph.n"] = [40, 60]
        self.config = _write_json(self.work / "sweep.json", doc)

    def _overrides(self) -> list:
        if self.seed == COMMITTED_SEED:
            return []
        return [f"base.master_seed={self.seed}"]

    def setup_probe_args(self):
        return ["sweep", str(self.config)] + self._overrides()

    @property
    def runs_per_iteration(self):
        doc = json.loads(self.config.read_text(encoding="utf-8"))
        return doc["base"]["runs"] * self.cells

    def iteration(self, cli, out):
        argv = ["sweep", "--config", str(self.config), "--out", str(out)]
        for item in self._overrides():
            argv += ["--set", item]
        cli(argv)

    def sweep_cells(self, out):
        errors = out / "sweep_errors.csv"
        if not errors.exists():
            return self.cells, 0
        with open(errors, newline="", encoding="utf-8") as handle:
            return self.cells, sum(1 for _ in csv.reader(handle)) - 1

    def check(self, out):
        summary = out / "sweep_summary.csv"
        if not summary.exists():
            return [Check("sweep_summary.csv written", False)]
        with open(summary, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        checks = [Check("two metric rows per cell", len(rows) == 2 * self.cells,
                        f"{len(rows)} rows")]
        if self.seed == COMMITTED_SEED and not self.smoke:
            same = summary.read_bytes() == (self.root / SWEEP_REPORT).read_bytes()
            checks.append(Check(f"byte-equal to {SWEEP_REPORT}", same))
        return checks


# -- curve_classify ------------------------------------------------------------


class CurveClassify(Workload):
    """Async kernel on a shared BA graph: curve accumulation, a ~40k-row curve
    CSV, dense trajectories held in memory, and the curve fit."""

    name = "curve_classify"
    outputs = ("curve.csv", "fit.csv")
    stride = 4
    noise = 0.01

    def prepare(self):
        n, runs = (150, 8) if self.smoke else (2000, 100)
        base = {"model": "global", "scheme": "async_single_node",
                "master_seed": self.seed, "runs": runs, "seed_count": 1,
                "regenerate_graph_per_run": False,
                "metrics": [0.01, [0.01, 0.99]],
                "graph": {"type": "barabasi_albert", "n": n, "m_attach": 3}}
        self.runs = runs
        self.report_config = _write_json(self.work / "report.json", base)
        reference = dict(base, model="fixed", transmission_prob=0.1)
        self.fit_config = _write_json(self.work / "reference.json", reference)

    def setup_probe_args(self):
        return ["run", str(self.report_config)]

    @property
    def runs_per_iteration(self):
        return 4 * self.runs  # report, then fit's three reference ensembles

    def write_series(self, out: Path) -> Path:
        """Every ``stride``-th mean-curve point plus seeded N(0, noise) noise,
        clipped at 0 (the CLI rejects negative observations)."""
        rnd = random.Random(f"curve_classify:{self.seed}")
        series = out / "series.csv"
        with open(out / "curve.csv", newline="", encoding="utf-8") as src, \
                open(series, "w", newline="", encoding="utf-8") as dst:
            reader = csv.DictReader(src)
            dst.write("t,value\n")
            for i, row in enumerate(reader):
                if i % self.stride == 0:
                    value = max(0.0, float(row["mean_fraction"])
                                + rnd.gauss(0.0, self.noise))
                    dst.write(f"{i // self.stride},{value!r}\n")
        return series

    def iteration(self, cli, out):
        if cli(["report", "--config", str(self.report_config),
                "--out", str(out)]) != 0:
            return
        series = self.write_series(out)
        cli(["fit", "--series", str(series), "--config", str(self.fit_config),
             "--out", str(out)])

    def check(self, out):
        fit = out / "fit.csv"
        if not fit.exists():
            return [Check("fit.csv written", False)]
        with open(fit, newline="", encoding="utf-8") as handle:
            best = [row["model"] for row in csv.DictReader(handle)
                    if row["best"] == "1"]
        return [Check("fit names global", best == ["global"], f"best={best}")]


# -- sync_edgelist -------------------------------------------------------------


class SyncEdgeList(Workload):
    """Synchronous kernel on a loaded edge list: every run absorbs early and
    is padded to 200*n+1 counts."""

    name = "sync_edgelist"
    outputs = ("runs.csv", "summary.csv")
    out_degree = 5
    q = 0.05

    def prepare(self):
        self.n, self.runs = (300, 6) if self.smoke else (20000, 100)
        self.edges = self.work / "graph.edges"
        rnd = random.Random(f"sync_edgelist:{self.seed}")
        lines = [str(self.n)]
        for v in range(self.n):
            targets = set()
            while len(targets) < self.out_degree:
                u = rnd.randrange(self.n)
                if u != v:
                    targets.add(u)
            lines.extend(f"{v} {u}" for u in sorted(targets))
        self.edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.config = _write_json(self.work / "run.json", {
            "model": "fixed", "transmission_prob": self.q,
            "scheme": "synchronous", "master_seed": self.seed,
            "runs": self.runs, "seed_count": 1,
            "regenerate_graph_per_run": False,
            "metrics": [0.01, [0.01, 0.99]],
            "graph": {"type": "file", "path": str(self.edges)}})

    def setup_probe_args(self):
        return ["run", str(self.config)]

    @property
    def runs_per_iteration(self):
        return self.runs

    def iteration(self, cli, out):
        cli(["run", "--config", str(self.config), "--out", str(out)])

    def check(self, out):
        """final_infected of each run equals the size of the set reachable
        from its seed node.  The seed follows from the stream contract:
        run i's stream is PCG64(SeedSequence(master_seed, spawn_key=(0, i)))
        and one seed costs one ``integers(n)`` draw."""
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        runs_csv = out / "runs.csv"
        if not runs_csv.exists():
            return [Check("runs.csv written", False)]
        with open(runs_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        arcs = np.loadtxt(self.edges, dtype=np.int64, skiprows=1, ndmin=2)
        adj = csr_matrix((np.ones(len(arcs), dtype=np.int8),
                          (arcs[:, 0], arcs[:, 1])), shape=(self.n, self.n))
        bad = []
        for row in rows:
            i = int(row["run_index"])
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(self.seed, spawn_key=(0, i))))
            source = int(rng.integers(self.n))
            reach = breadth_first_order(adj, source, directed=True,
                                        return_predecessors=False).size
            if int(row["final_infected"]) != reach:
                bad.append(i)
        return [Check("one row per run", len(rows) == self.runs,
                      f"{len(rows)} rows"),
                Check("final_infected == reachable set size", not bad,
                      f"runs {bad[:5]}" if bad else "")]


WORKLOADS = {w.name: w for w in (CalibrationSweep, CurveClassify, SyncEdgeList)}
