"""Stream derivation, ensembles, sweeps, and the exact count oracle."""
from __future__ import annotations

import numpy as np
import pytest

from diffusim import experiment
from diffusim.dynamics import GLOBAL, GROUP, fixed
from diffusim.graph import GraphSpec, directed_cycle, save_edge_list
from diffusim.experiment import (SimConfig, SweepCell, config_from_dict,
                                 config_to_dict,
                                 config_fingerprint, derive_graph_rng,
                                 derive_run_rng, global_count_distribution,
                                 global_count_dp, run_ensemble, set_dotted,
                                 sweep, worker_count)


def cycle_config(**kw):
    base = dict(graph=GraphSpec("directed_cycle", n=50), model=GROUP,
                master_seed=404, runs=10, metrics=(1.0,))
    base.update(kw)
    return SimConfig(**base)


class TestStreamDerivation:
    def test_same_index_reproduces(self):
        a = derive_run_rng(123, 0).random(1000)
        b = derive_run_rng(123, 0).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = derive_run_rng(123, 0).random(100)
        b = derive_run_rng(123, 1).random(100)
        assert not np.array_equal(a, b)

    def test_run_and_graph_streams_differ(self):
        a = derive_run_rng(123, 0).random(100)
        b = derive_graph_rng(123, 0).random(100)
        assert not np.array_equal(a, b)

    def test_uniformity_of_derived_streams(self):
        for index in (0, 1, 17):
            draws = derive_run_rng(2024, index).random(100_000)
            assert 0.49 < draws.mean() < 0.51


class TestSimConfig:
    def test_validation_messages_name_fields(self):
        with pytest.raises(ValueError, match="runs"):
            cycle_config(runs=0)
        with pytest.raises(ValueError, match="seed_count"):
            cycle_config(seed_count=0)
        with pytest.raises(ValueError, match="seed_count"):
            cycle_config(seed_count=51)
        with pytest.raises(ValueError, match="max_steps"):
            cycle_config(max_steps=0)
        with pytest.raises(ValueError, match="master_seed"):
            cycle_config(master_seed=-1)
        with pytest.raises(ValueError, match="scheme"):
            cycle_config(scheme="sideways")
        with pytest.raises(ValueError, match="metrics"):
            cycle_config(metrics=())
        with pytest.raises(ValueError, match="metrics"):
            cycle_config(metrics=(1.5,))
        with pytest.raises(ValueError, match="spread"):
            cycle_config(metrics=((0.9, 0.2),))
        with pytest.raises(ValueError, match="metrics: spread pair"):
            cycle_config(metrics=((0.1,),))

    def test_metrics_sharing_a_label_rejected(self):
        with pytest.raises(ValueError, match="metrics: 0.1234561 and 0.1234564 "
                                             "share the label 'time_to_0.123456'"):
            cycle_config(metrics=(0.1234561, 0.1234564))
        with pytest.raises(ValueError, match="share the label"):
            cycle_config(metrics=((0.1, 0.9), (0.1, 0.9)))

    def test_default_step_cap_scales_with_n(self):
        assert cycle_config().effective_max_steps(50) == 10_000
        assert cycle_config(max_steps=7).effective_max_steps(50) == 7

    def test_dict_round_trip(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=60, k=6, beta=0.1),
                        model=fixed(0.3), master_seed=9,
                        scheme="async_single_node", seed_count=2, runs=4,
                        max_steps=300, regenerate_graph_per_run=False,
                        metrics=(0.5, (0.1, 0.9)))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_config_from_dict_defaults(self):
        cfg = config_from_dict({"model": "group", "master_seed": 7,
                                "graph": {"type": "ws", "n": 100, "k": 4,
                                          "beta": 0.1}})
        assert cfg.runs == 1 and cfg.seed_count == 1
        assert cfg.scheme == "synchronous"
        assert cfg.regenerate_graph_per_run is True
        assert cfg.metrics == (0.01, (0.01, 0.99))

    def test_config_from_dict_rejections(self):
        base = {"model": "group", "master_seed": 7,
                "graph": {"type": "ws", "n": 100, "k": 4, "beta": 0.1}}
        with pytest.raises(ValueError, match="extra"):
            config_from_dict(dict(base, extra=1))
        with pytest.raises(ValueError, match="k"):
            config_from_dict(dict(base, graph={"type": "ws", "n": 100,
                                               "k": 5, "beta": 0.1}))
        with pytest.raises(ValueError, match="graph.rewire"):
            config_from_dict(dict(base, graph={"type": "ws", "n": 100, "k": 4,
                                               "beta": 0.1, "rewire": 2}))
        with pytest.raises(ValueError, match="master_seed"):
            config_from_dict({k: v for k, v in base.items()
                              if k != "master_seed"})
        with pytest.raises(ValueError, match="model"):
            config_from_dict(dict(base, model="fixed"))
        with pytest.raises(ValueError, match="graph.type"):
            config_from_dict(dict(base, graph={"n": 100}))

    def test_fingerprint_tracks_content(self):
        assert config_fingerprint(cycle_config()) == config_fingerprint(cycle_config())
        assert config_fingerprint(cycle_config()) != config_fingerprint(cycle_config(runs=11))

    def test_set_dotted(self):
        doc = {"graph": {"n": 10}}
        set_dotted(doc, "graph.n", 20)
        set_dotted(doc, "model", "group")
        set_dotted(doc, "a.b.c", 1)
        assert doc == {"graph": {"n": 20}, "model": "group",
                       "a": {"b": {"c": 1}}}


class TestRunEnsemble:
    def test_deterministic_cycle_ensemble(self):
        result = run_ensemble(cycle_config())
        assert len(result.records) == 10
        for rec in result.records:
            assert rec.metric("time_to_1").steps == 49
            assert not rec.metric("time_to_1").censored
        label, stats = result.stats[0]
        assert label == "time_to_1"
        assert stats.mean == 49.0 and stats.std == 0.0
        assert stats.censored_count == 0 and stats.runs == 10
        assert result.n == 50

    def test_single_run_stats(self):
        _, stats = run_ensemble(cycle_config(runs=1)).stats[0]
        assert stats.mean == 49.0 and stats.std == 0.0 and stats.runs == 1

    def test_global_two_node_geometric_mean(self):
        cfg = SimConfig(graph=GraphSpec("directed_cycle", n=2), model=GLOBAL,
                        master_seed=11, runs=10_000, metrics=(1.0,))
        _, stats = run_ensemble(cfg).stats[0]
        assert stats.censored_count == 0
        assert abs(stats.mean - 2.0) < 0.1  # within 5% of the geometric mean

    def test_records_are_pure_function_of_config(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=60, k=6, beta=0.1),
                        model=GLOBAL, master_seed=21, runs=12,
                        metrics=(0.5, 1.0))
        a = run_ensemble(cfg, workers=1)
        b = run_ensemble(cfg, workers=3)
        assert a.records == b.records
        assert a.stats == b.stats

    def test_censored_runs_excluded_from_means(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=50, k=4, beta=0.1),
                        model=GLOBAL, master_seed=33, runs=20, max_steps=8,
                        metrics=(0.9,))
        result = run_ensemble(cfg)
        _, stats = result.stats[0]
        raw = [rec.metric("time_to_0.9") for rec in result.records]
        done = [r.steps for r in raw if not r.censored]
        censored = sum(1 for r in raw if r.censored)
        assert 0 < censored < 20  # the cap was tuned to split the ensemble
        assert stats.censored_count == censored
        assert stats.runs == 20
        assert stats.mean == pytest.approx(np.mean(done))
        assert stats.std == pytest.approx(np.std(done))
        assert stats.min == min(done) and stats.max == max(done)

    def test_all_censored_gives_empty_stats(self):
        cfg = cycle_config(max_steps=3)  # cycle needs 49 steps; all censor
        _, stats = run_ensemble(cfg).stats[0]
        assert stats.mean is None and stats.std is None and stats.cv is None
        assert stats.censored_count == 10

    def test_fixed_graph_reuse_vs_regeneration(self):
        base = dict(graph=GraphSpec("watts_strogatz", n=40, k=4, beta=0.3),
                    model=GLOBAL, master_seed=5, runs=6, metrics=(0.5,))
        reused = run_ensemble(SimConfig(regenerate_graph_per_run=False, **base))
        assert len({rec.graph_fingerprint for rec in reused.records}) == 1
        fresh = run_ensemble(SimConfig(regenerate_graph_per_run=True, **base))
        assert len({rec.graph_fingerprint for rec in fresh.records}) > 1

    def test_file_graph_ensemble(self, tmp_path):
        path = tmp_path / "ring.edges"
        save_edge_list(directed_cycle(30), path)
        cfg = SimConfig(graph=GraphSpec("file", path=str(path)), model=GROUP,
                        master_seed=2, runs=3, metrics=(1.0,))
        result = run_ensemble(cfg)
        assert result.n == 30
        assert all(rec.metric("time_to_1").steps == 29
                   for rec in result.records)

    def test_seed_count_exceeding_file_graph_detected(self, tmp_path):
        path = tmp_path / "tiny.edges"
        save_edge_list(directed_cycle(3), path)
        cfg = SimConfig(graph=GraphSpec("file", path=str(path)), model=GROUP,
                        master_seed=2, seed_count=5, metrics=(1.0,))
        with pytest.raises(ValueError, match="seed count"):
            run_ensemble(cfg)

    def test_curve_collection_matches_naive_padding(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=40, k=6, beta=0.1),
                        model=GLOBAL, master_seed=8, runs=7, metrics=(1.0,))
        result = run_ensemble(cfg, collect_curves=True)
        # rebuild the expected mean/std from the individual trajectories
        from diffusim import dynamics
        from diffusim.graph import build_graph
        counts = []
        for i in range(7):
            g = build_graph(cfg.graph, derive_graph_rng(8, i))
            rng = derive_run_rng(8, i)
            seeds = dynamics.seed_random(g, 1, rng)
            traj = dynamics.run(GLOBAL, g, seeds, "synchronous",
                                cfg.effective_max_steps(40), rng)
            counts.append(traj.counts)
        width = max(c.size for c in counts)
        padded = np.stack([np.concatenate([c, np.full(width - c.size, c[-1])])
                           for c in counts])
        assert np.array_equal(result.curve.mean_fraction,
                              padded.mean(axis=0) / 40)
        assert np.allclose(result.curve.std_fraction,
                           padded.std(axis=0) / 40, atol=1e-12)

    def test_curve_bytes_identical_across_workers(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=40, k=6, beta=0.1),
                        model=GROUP, master_seed=8, runs=9, metrics=(1.0,))
        a = run_ensemble(cfg, workers=1, collect_curves=True)
        b = run_ensemble(cfg, workers=4, collect_curves=True)
        assert a.curve.mean_fraction.tobytes() == b.curve.mean_fraction.tobytes()
        assert a.curve.std_fraction.tobytes() == b.curve.std_fraction.tobytes()

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("DIFFUSIM_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("DIFFUSIM_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("DIFFUSIM_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.setenv("DIFFUSIM_THREADS", "lots")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("DIFFUSIM_THREADS", "-2")
        with pytest.raises(ValueError):
            worker_count()


class TestSweep:
    def base(self):
        return SimConfig(graph=GraphSpec("watts_strogatz", n=40, k=4, beta=0.1),
                         model=GROUP, master_seed=3, runs=2, metrics=(0.5,))

    def test_two_by_two_grid_lexicographic(self):
        cells = sweep(self.base(), [("graph.n", [40, 60]),
                                    ("model", ["group", "global"])])
        assert len(cells) == 4
        combos = [tuple(v for _, v in cell.assignments) for cell in cells]
        assert combos == [(40, "group"), (40, "global"),
                          (60, "group"), (60, "global")]
        assert all(cell.error is None for cell in cells)
        assert all(cell.runs == 2 for cell in cells)

    def test_single_axis_two_models(self):
        cells = sweep(self.base(), [("model", ["group", "global"])])
        assert len(cells) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(self.base(), [("graph.n", [])])
        with pytest.raises(ValueError, match="at least one axis"):
            sweep(self.base(), [])

    def test_failing_cell_recorded_and_sweep_continues(self):
        cells = sweep(self.base(), [("graph.k", [4, 5])])
        assert cells[0].error is None
        assert cells[1].error is not None and "k" in cells[1].error
        assert cells[1].stats is None

    def test_transmission_prob_axis(self):
        base = SimConfig(graph=GraphSpec("directed_cycle", n=10),
                         model=fixed(0.5), master_seed=3, runs=2,
                         metrics=(0.5,))
        cells = sweep(base, [("transmission_prob", [0.2, 0.8])])
        assert len(cells) == 2 and all(c.error is None for c in cells)


class TestGroupedSweep:
    """A sweep runs cells that share a graph key together; each cell must
    still get exactly what run_ensemble gives it alone."""

    @staticmethod
    def alone(base, assignments):
        doc = config_to_dict(base)
        for key, value in assignments:
            set_dotted(doc, key, value)
        try:
            config = config_from_dict(doc)
        except ValueError as exc:
            return SweepCell(assignments, None, 0, str(exc))
        try:
            result = run_ensemble(config)
        except (ValueError, OSError) as exc:
            return SweepCell(assignments, None, 0, str(exc))
        return SweepCell(assignments, result.stats, config.runs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_each_cell_run_alone(self, tmp_path, workers):
        edges = tmp_path / "small.edges"
        save_edge_list(directed_cycle(20), str(edges))
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GROUP, master_seed=5, runs=3,
                         metrics=(0.5, (0.1, 0.9)))
        graphs = [{"type": "watts_strogatz", "n": 30, "k": 4, "beta": 0.2},
                  {"type": "watts_strogatz", "n": 30, "k": 5, "beta": 0.2},
                  {"type": "file", "path": str(tmp_path / "missing.edges")},
                  {"type": "file", "path": str(edges)}]
        axes = [("graph", graphs), ("regenerate_graph_per_run", [True, False]),
                ("runs", [2, 3]), ("model", ["group", "global"]),
                ("seed_count", [1, 25])]
        cells = sweep(base, axes, workers=workers)
        assert cells == [self.alone(base, cell.assignments) for cell in cells]

        def cells_on(graph_doc):
            return [c for c in cells if dict(c.assignments)["graph"] == graph_doc]

        assert all(c.error is None for c in cells_on(graphs[0]))
        assert all("k" in c.error for c in cells_on(graphs[1]))
        missing = {c.error for c in cells_on(graphs[2])}
        assert len(missing) == 1 and "missing.edges" in missing.pop()
        # seed_count=25 fails at run time on the 20-node file graph only;
        # the seed_count=1 cells sharing that graph still succeed
        assert all((c.error is None) == (dict(c.assignments)["seed_count"] == 1)
                   for c in cells_on(graphs[3]))

    def test_each_graph_is_built_once_per_run(self, monkeypatch):
        calls = []

        def counting_build(spec, rng=None):
            calls.append(spec)
            return build(spec, rng)

        build = experiment.build_graph
        monkeypatch.setattr(experiment, "build_graph", counting_build)
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GROUP, master_seed=5, runs=3, metrics=(0.5,))
        cells = sweep(base, [("graph.beta", [0.1, 0.3]), ("runs", [2, 4]),
                             ("scheme", ["synchronous", "async_single_node"]),
                             ("model", ["group", "global"])])
        assert all(cell.error is None for cell in cells)
        assert len(calls) == 2 * 4  # distinct graph keys x most runs in the key
        calls.clear()
        sweep(base, [("regenerate_graph_per_run", [False]),
                     ("model", ["group", "global"])])
        assert len(calls) == 1


class TestGlobalCountOracle:
    def test_absorbing_boundaries(self):
        assert np.all(global_count_dp(10, 0, 5) == 0.0)
        assert np.all(global_count_dp(10, 10, 5) == 10.0)

    def test_distribution_conserves_mass(self):
        dist = global_count_distribution(30, 2, 15)
        sums = dist.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            global_count_dp(10, 11, 5)
        with pytest.raises(ValueError):
            global_count_dp(10, -1, 5)

    def test_one_step_expectation_is_exact(self):
        # E[I_1] = i0 + (n - i0) * i0 / n, directly from the binomial mean
        n, i0 = 25, 3
        curve = global_count_dp(n, i0, 1)
        assert curve[0] == pytest.approx(i0)
        assert curve[1] == pytest.approx(i0 + (n - i0) * i0 / n)

    def test_monte_carlo_agrees_on_small_chain(self):
        n, i0, steps, runs = 30, 2, 10, 1500
        dist = global_count_distribution(n, i0, steps)
        support = np.arange(n + 1, dtype=np.float64)
        exact_mean = dist @ support
        exact_var = dist @ (support ** 2) - exact_mean ** 2
        cfg = SimConfig(graph=GraphSpec("directed_cycle", n=n), model=GLOBAL,
                        master_seed=60, runs=runs, seed_count=i0,
                        max_steps=steps, metrics=(1.0,))
        result = run_ensemble(cfg, collect_curves=True)
        mc_mean = result.curve.mean_fraction * n
        se = np.sqrt(exact_var / runs)
        for t in range(steps + 1):
            assert abs(mc_mean[t] - exact_mean[t]) <= 3 * se[t] + 1e-12
