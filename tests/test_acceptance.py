"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
guarantee.  Tolerances are part of each contract and are stated inline.
"""
from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from diffusim import dynamics
from diffusim.curvefit import (REFERENCE_CONFIG, build_reference_curves,
                               fit_series, normalize_series)
from diffusim.dynamics import GLOBAL, GROUP, SeedSet, fixed
from diffusim.experiment import SimConfig, run_ensemble
from diffusim.graph import Graph, GraphSpec
from diffusim.metrics import Trajectory
from diffusim.cli import main, parse_config

from conftest import make_random_instance, rng_for
from kernel_reference import infection_probability
from markov_oracle import global_count_distribution

ROOT = Path(__file__).resolve().parents[1]


class TestAcceptance:
    def test_focal_node_probabilities_match_hand_computation(self, focal_fixture):
        """Group: 2 infected of 5 in-neighbors -> 2/5.  Global: 2 infected
        of 13 nodes -> 2/13.  Tolerance 1e-12."""
        g, state = focal_fixture
        assert infection_probability(GROUP, g, state, 0) == \
            pytest.approx(2 / 5, abs=1e-12)
        assert infection_probability(GLOBAL, g, state, 0) == \
            pytest.approx(2 / 13, abs=1e-12)

    def test_infected_sets_only_grow_across_random_instances(self):
        """200 random (graph, model, scheme, seeding) instances, n <= 100:
        per-node infection never reverts and counts never decrease."""
        rng = rng_for(777)
        for _ in range(200):
            g, model, scheme, seeds = make_random_instance(rng)
            state = Trajectory.from_seeds(g.n, seeds.nodes)
            previous_count = state.final_infected
            for _ in range(25):
                state_next = dynamics.step(model, g, state, scheme, rng)
                assert np.all((state_next.infection_time >= 0)
                              >= (state.infection_time >= 0))
                assert state_next.final_infected >= previous_count
                previous_count = state_next.final_infected
                state = state_next

    def test_global_ensemble_mean_matches_exact_markov_curve(self):
        """n=200, two seeds, synchronous global, 2000 runs: the Monte Carlo
        mean infected count stays within 3 standard errors of the exact
        one-dimensional Markov chain expectation at every t <= 20."""
        n, seed_count, steps, runs = 200, 2, 20, 2000
        cfg = SimConfig(graph=GraphSpec("directed_cycle", n=n), model=GLOBAL,
                        master_seed=42, runs=runs, seed_count=seed_count,
                        max_steps=steps, metrics=(1.0,))
        result = run_ensemble(cfg, collect_curves=True)
        dist = global_count_distribution(n, seed_count, steps)
        support = np.arange(n + 1, dtype=np.float64)
        exact_mean = dist @ support
        exact_var = dist @ (support ** 2) - exact_mean ** 2
        observed = result.curve.mean_fraction * n
        if observed.size < steps + 1:  # every run absorbed early; extend
            observed = np.pad(observed, (0, steps + 1 - observed.size),
                              mode="edge")
        standard_error = np.sqrt(exact_var / runs)
        gap = np.abs(observed[:steps + 1] - exact_mean)
        assert np.all(gap <= 3 * standard_error + 1e-12)

    def test_global_time_to_half_ignores_topology(self):
        """n=500, one seed, synchronous global, 400 runs on a rewired ring
        versus a directed cycle (independent master seeds): 95% confidence
        intervals for mean time-to-50% overlap."""
        intervals = []
        cases = ((1234, GraphSpec("watts_strogatz", n=500, k=10, beta=0.05)),
                 (5678, GraphSpec("directed_cycle", n=500)))
        for master_seed, gspec in cases:
            cfg = SimConfig(graph=gspec, model=GLOBAL,
                            master_seed=master_seed, runs=400, metrics=(0.5,))
            _, stats = run_ensemble(cfg).stats[0]
            assert stats.censored_count == 0
            sample_sd = stats.std * np.sqrt(400 / 399)
            intervals.append((stats.mean, 1.96 * sample_sd / np.sqrt(400)))
        (m1, h1), (m2, h2) = intervals
        assert abs(m1 - m2) <= h1 + h2

    def test_single_in_neighbor_chain_is_fully_deterministic(self):
        """Group rule on a 50-node directed cycle: the unique in-neighbor
        forces probability 1, so time-to-100% is exactly 49 in all 10 runs
        and the ensemble standard deviation is exactly zero."""
        cfg = SimConfig(graph=GraphSpec("directed_cycle", n=50), model=GROUP,
                        master_seed=7, runs=10, metrics=(1.0,))
        result = run_ensemble(cfg)
        assert all(rec.metric("time_to_1") == 49 for rec in result.records)
        _, stats = result.stats[0]
        assert stats.mean == 49.0 and stats.std == 0.0

    def test_fixed_transmission_time_is_geometric(self):
        """Arc v -> u with v seeded and transmission probability 0.25: the
        infection time of u is geometric with mean 4; the empirical mean
        over 10^4 runs must land within 5% of 4.0."""
        g = Graph(2, [(1, 0)])
        seeds = SeedSet(nodes=(1,))
        rng = np.random.default_rng(2718)
        times = np.empty(10_000)
        for i in range(times.size):
            traj = dynamics.run(fixed(0.25), g, seeds, "synchronous",
                                2000, rng)
            assert traj.infection_time[0] > 0
            times[i] = traj.infection_time[0]
        assert abs(times.mean() - 4.0) <= 0.2

    def test_calibration_sweep_reproduces_and_outcome_is_recorded(self, tmp_path):
        """The committed onset-vs-spread sweep report regenerates byte for
        byte from its config.  If some cell had shown a >= 3x onset gap
        with mid-course spread within 2x, that satisfies the calibration
        directly; otherwise the committed report plus the notes recording
        the negative outcome are the deliverable."""
        out = tmp_path / "calibration"
        code = main(["sweep", "--config",
                     str(ROOT / "configs" / "onset_spread_sweep.json"),
                     "--out", str(out)])
        assert code == 0
        regenerated = (out / "sweep_summary.csv").read_bytes()
        committed = (ROOT / "reports" /
                     "onset_spread_sweep_summary.csv").read_bytes()
        assert regenerated == committed
        assert not (out / "sweep_errors.csv").exists()

        with open(out / "sweep_summary.csv", newline="",
                  encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        cells = {}
        for row in rows:
            key = (row["graph.n"], row["graph.k"], row["graph.beta"],
                   row["scheme"])
            cells.setdefault(key, {}).setdefault(
                row["model"], {})[row["metric"]] = row
        assert len(cells) == 16
        satisfied = []
        for key, by_model in cells.items():
            onset_global = float(by_model["global"]["time_to_0.01"]["mean"])
            onset_group = float(by_model["group"]["time_to_0.01"]["mean"])
            spread_global = float(by_model["global"]["spread_0.01_0.99"]["mean"])
            spread_group = float(by_model["group"]["spread_0.01_0.99"]["mean"])
            onset_ratio = onset_global / onset_group
            spread_ratio = spread_global / spread_group
            if onset_ratio >= 3.0 and 0.5 <= spread_ratio <= 2.0:
                satisfied.append(key)
        if not satisfied:
            notes = (ROOT / "reports" / "onset_spread_notes.md").read_text(
                encoding="utf-8")
            assert "no cell" in notes.lower()

    def test_calibration_notes_table_follows_from_the_committed_csv(self):
        """Each row of the notes' table, and both ratio ranges they state,
        are recomputed from the committed sweep summary by one rounding
        rule: a mean as format(mean, ".1f"), a ratio of the unrounded means
        (global/group) as format(ratio, ".2f")."""
        with open(ROOT / "reports" / "onset_spread_sweep_summary.csv",
                  newline="", encoding="utf-8") as handle:
            means = {tuple(row[k] for k in ("graph.n", "graph.k", "graph.beta",
                                            "scheme", "model", "metric")):
                     float(row["mean"]) for row in csv.DictReader(handle)}
        short = {"synchronous": "sync", "async_single_node": "async"}
        cells = sorted({key[:4] for key in means},
                       key=lambda c: (int(c[0]), int(c[1]), float(c[2]), short[c[3]]))
        rows, ratios = [], {"onset": [], "spread": []}
        for cell in cells:
            row = [*cell[:3], short[cell[3]]]
            for name, metric in (("onset", "time_to_0.01"),
                                 ("spread", "spread_0.01_0.99")):
                gl, gr = (means[(*cell, model, metric)] for model in ("global", "group"))
                ratios[name].append(gl / gr)
                row += [format(gl, ".1f"), format(gr, ".1f"), format(gl / gr, ".2f")]
            rows.append("| " + " | ".join(row) + " |")
        notes = (ROOT / "reports" / "onset_spread_notes.md").read_text(encoding="utf-8")
        assert [line for line in notes.splitlines() if re.match(r"\| [0-9]", line)] == rows
        prose = " ".join(notes.split())
        for name, values in ratios.items():
            stated = f"{name.capitalize()} ratios sit in [{min(values):.2f}, {max(values):.2f}]"
            assert stated in prose

    def test_run_command_bytes_ignore_worker_count(self, tmp_path):
        """Identical config and master seed produce byte-identical runs.csv
        whatever DIFFUSIM_THREADS says."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "model": "group", "master_seed": 99, "runs": 10,
            "scheme": "async_single_node",
            "graph": {"type": "watts_strogatz", "n": 80, "k": 6,
                      "beta": 0.05}}), encoding="utf-8")
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, DIFFUSIM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "diffusim.cli", "run",
                            "--config", str(config), "--out", str(out)],
                           check=True, env=env)
            outputs.append((out / "runs.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_noisy_reference_curves_recover_their_model(self):
        """Reference curves from the packaged config, 2% Gaussian noise,
        100 trials per model: the generating model must win at least 95
        classifications per model."""
        refs = tuple(build_reference_curves(parse_config(REFERENCE_CONFIG)))
        rng = np.random.default_rng(777)
        for ref in refs:
            hits = 0
            for _ in range(100):
                noisy = np.clip(ref.curve + rng.normal(0.0, 0.02,
                                                       ref.curve.size),
                                0.0, None)
                fit = fit_series(normalize_series(noisy), refs)
                if fit.best_model == ref.model:
                    hits += 1
            assert hits >= 95, f"{ref.model}: {hits}/100"

    def test_outputs_are_synthetic_only(self):
        """The package ships no empirical measurements: simulator output is
        the only data source, the sole packaged data file is the reference
        config, and the README states the exclusion."""
        data_dir = resources.files("diffusim").joinpath("data")
        names = sorted(entry.name for entry in data_dir.iterdir())
        assert names == ["reference_config.json"]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "no empirical measurements" in readme
