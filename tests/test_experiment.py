"""Stream derivation, ensembles, sweeps, and the exact count oracle."""
from __future__ import annotations

import concurrent.futures
import json
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from diffusim import experiment
from diffusim.dynamics import (ASYNC_SINGLE_NODE, GLOBAL, GROUP, SCHEMES,
                               ModelKind, fixed)
from diffusim.graph import Graph, GraphSpec, build_graph, directed_cycle, save_edge_list
from diffusim.metrics import fraction_threshold
from diffusim.experiment import (SimConfig, SweepCell, config_from_dict,
                                 config_to_dict,
                                 config_fingerprint, derive_graph_rng,
                                 derive_run_rng, run_ensemble, set_dotted,
                                 sweep, worker_count)

from markov_oracle import (async_global_time_to, global_count_distribution,
                           global_count_dp, local_time_to_all)


ROOT = Path(__file__).resolve().parents[1]


def curve_arrays(curve) -> tuple:
    """(mean, std) of a CurveStats, each one array joined from its blocks."""
    _, mean, std = zip(*curve.blocks(std=True))
    return np.concatenate(mean), np.concatenate(std)


def readme_configuration_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration")[1].split("\n## ")[0]


def shipped_config_documents() -> dict:
    readme = readme_configuration_section()
    return {
        "sweep base": json.loads((ROOT / "configs/onset_spread_sweep.json")
                                 .read_text(encoding="utf-8"))["base"],
        "reference config": json.loads(
            (ROOT / "src/diffusim/data/reference_config.json")
            .read_text(encoding="utf-8")),
        "README example": json.loads(readme.split("```json")[1].split("```")[0]),
    }


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

    def test_strict_field_types(self):
        with pytest.raises(ValueError, match=r"^runs: expected an integer, got 2\.0$"):
            cycle_config(runs=2.0)
        with pytest.raises(ValueError, match="regenerate_graph_per_run: expected true or false"):
            cycle_config(regenerate_graph_per_run=1)
        with pytest.raises(ValueError, match="scheme: expected a string"):
            cycle_config(scheme=None)
        with pytest.raises(ValueError, match="metrics: expected a list"):
            cycle_config(metrics=0.5)
        with pytest.raises(ValueError, match="type: expected a string"):
            GraphSpec(["ws"])
        with pytest.raises(ValueError, match="transmission_prob: expected a number"):
            fixed("0.5")
        # an integer passes for a float and is stored as one
        spec = GraphSpec("ws", n=np.int64(20), k=4, beta=0)
        assert spec.beta == 0.0 and isinstance(spec.beta, float)
        assert type(spec.n) is int and spec.generator == "watts_strogatz"
        assert fixed(1).transmission_prob == 1.0
        assert cycle_config(metrics=[1, [0.5, 1]]).metrics == (1.0, (0.5, 1.0))

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
        for doc, message in [(5, "config: expected an object"),
                             (dict(base, graph=[]), "graph: expected an object"),
                             (dict(base, model="fixed"),
                              "transmission_prob: required by model 'fixed'"),
                             (dict(base, seed_count=101),
                              "seed_count: must not exceed graph n (100)")]:
            with pytest.raises(ValueError) as info:
                config_from_dict(doc)
            assert str(info.value) == message

    @pytest.mark.parametrize("name, fingerprint", [
        ("sweep base", "bfe906b866443ed5"),
        ("reference config", "b154e5cdcac99407"),
        ("README example", "94708fe74773c37f"),
    ])
    def test_canonical_form_of_shipped_configs(self, name, fingerprint):
        # pinned digests of the canonical form: a fingerprint recorded from
        # a shipped config must never change
        doc = shipped_config_documents()[name]
        cfg = config_from_dict(doc)
        canonical = config_to_dict(cfg)
        assert config_fingerprint(cfg) == fingerprint
        assert config_from_dict(canonical) == cfg
        assert all(canonical.get(key) == value for key, value in doc.items())

    def test_readme_key_table_lists_the_schema(self):
        def keys(cls):
            return {f.metadata.get("key", f.name) for f in fields(cls)}

        schema = ((keys(SimConfig) | keys(ModelKind)) - {"graph"}) | \
            {f"graph.{key}" for key in keys(GraphSpec)}
        table = re.findall(r"^\| `([\w.]+)` \|", readme_configuration_section(),
                           re.M)
        assert sorted(table) == sorted(schema)
        assert len(table) == len(set(table))

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
        # a level that holds a scalar is named, never replaced
        for key, message in [("model.x", "model.x: 'model' is not an object"),
                             ("a.b.c.d", "a.b.c.d: 'c' is not an object")]:
            with pytest.raises(ValueError) as info:
                set_dotted(doc, key, 2)
            assert str(info.value) == message
        assert doc["model"] == "group" and doc["a"] == {"b": {"c": 1}}


class TestRunEnsemble:
    def test_deterministic_cycle_ensemble(self):
        result = run_ensemble(cycle_config())
        assert len(result.records) == 10
        for rec in result.records:
            assert rec.metric("time_to_1") == 49
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
        done = [r for r in raw if r is not None]
        censored = raw.count(None)
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

    def test_fixed_graph_reuse_vs_regeneration(self, built_graphs):
        base = dict(graph=GraphSpec("watts_strogatz", n=40, k=4, beta=0.3),
                    model=GROUP, master_seed=5, runs=6, metrics=(0.5,))
        shared_config = SimConfig(regenerate_graph_per_run=False, **base)
        run_ensemble(shared_config)
        [shared] = built_graphs
        assert experiment.run_graph(shared_config, 5) == shared
        built_graphs.clear()
        run_ensemble(SimConfig(regenerate_graph_per_run=True, **base))
        assert len(built_graphs) == 6
        assert built_graphs[0] == shared  # a shared graph is run 0's
        assert any(g != shared for g in built_graphs[1:])

    def test_file_graph_ensemble(self, tmp_path):
        path = tmp_path / "ring.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(30), handle)
        cfg = SimConfig(graph=GraphSpec("file", path=str(path)), model=GROUP,
                        master_seed=2, runs=3, metrics=(1.0,))
        result = run_ensemble(cfg)
        assert result.n == 30
        assert all(rec.metric("time_to_1") == 29 for rec in result.records)

    def test_seed_count_exceeding_file_graph_detected(self, tmp_path):
        path = tmp_path / "tiny.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(3), handle)
        cfg = SimConfig(graph=GraphSpec("file", path=str(path)), model=GROUP,
                        master_seed=2, seed_count=5, metrics=(1.0,))
        with pytest.raises(ValueError, match=r"^seed_count: must not exceed "
                                             r"graph n \(3\)$"):
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
        mean, std = curve_arrays(result.curve)
        assert np.array_equal(mean, padded.mean(axis=0) / 40)
        assert np.array_equal(result.curve.mean_fraction, mean)
        assert np.allclose(std, padded.std(axis=0) / 40, atol=1e-12)

    def test_early_stop_memory_does_not_grow_with_the_cap(self):
        # every run is absorbed at once; without curves nothing may be
        # sized by the 2,000,000-step cap
        for scheme in SCHEMES:
            cfg = SimConfig(graph=GraphSpec("directed_cycle", n=2000),
                            model=fixed(0.0), scheme=scheme, master_seed=6,
                            runs=3, max_steps=2_000_000)
            # warm up: the first run makes one-off lazy imports
            run_ensemble(replace(cfg, max_steps=1))
            tracemalloc.start()
            try:
                result = run_ensemble(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert [r.steps_executed for r in result.records] == [2_000_000] * 3

    @staticmethod
    def sums_then_quotients(histories, n):
        """The curve as the expression the package used before it read
        each step's sums from the runs' infection times."""
        horizon = max(steps for _, steps in histories) + 1
        sums, sumsq = np.zeros((2, horizon), dtype=np.int64)
        for times, _ in histories:
            np.add.at(sums, times, 1)
            np.add.at(sumsq, times, 2 * np.arange(1, times.size + 1, dtype=np.int64) - 1)
        mean_counts = np.cumsum(sums) / len(histories)
        var = np.cumsum(sumsq) / len(histories) - mean_counts * mean_counts
        std_counts = np.sqrt(np.clip(var, 0.0, None))
        return mean_counts / n, std_counts / n

    @staticmethod
    def random_histories(rng, runs, top):
        """``runs`` (sorted int64 times, last step) pairs of mixed lengths, with
        last steps up to ``top``; some infect no one."""
        histories = []
        n = int(rng.integers(1, 60))
        for _ in range(runs):
            steps = int(rng.integers(0, top + 1))
            size = int(rng.integers(0, n + 1))
            histories.append((np.sort(rng.integers(0, steps + 1, size)), steps))
        return histories, n

    @pytest.mark.parametrize("runs", [1, 2, 5])
    def test_block_curve_is_bit_equal_to_the_sums_expression(self, runs):
        rng = np.random.default_rng(runs)
        for _ in range(60):
            histories, n = self.random_histories(rng, runs, 399)
            curve = experiment.CurveStats(tuple(histories), n)
            mean, std = self.sums_then_quotients(histories, n)
            assert [a.tobytes() for a in curve_arrays(curve)] == [mean.tobytes(), std.tobytes()]
            assert all(s is None for _, _, s in curve.blocks())
            assert curve.mean_fraction.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocked_quotients_are_bit_equal_at_a_block_edge(self, offset):
        horizon = experiment._CURVE_BLOCK + offset
        rng = np.random.default_rng(horizon)
        histories = [(np.sort(rng.integers(0, steps + 1, 50)), steps)
                     for steps in (horizon - 1, horizon // 3)]
        mean, std = self.sums_then_quotients(histories, 50)
        curve = experiment.CurveStats(tuple(histories), 50)
        block = experiment._CURVE_BLOCK
        assert [(lo, m.size) for lo, m, _ in curve.blocks(std=True)] == \
            {-1: [(0, block - 1)], 0: [(0, block)], 1: [(0, block), (block, 1)]}[offset]
        assert [a.tobytes() for a in curve_arrays(curve)] == [mean.tobytes(), std.tobytes()]
        assert curve.mean_fraction.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_narrow_histories_give_the_int64_curve_bit_for_bit(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        top = min(int(np.iinfo(dtype).max), 70_000)  # uint32 past 65,535 steps
        for runs in (1, 2, 5):
            for _ in range(10):
                wide, n = self.random_histories(rng, runs, top)
                narrow = [(times.astype(dtype), steps) for times, steps in wide]
                a = curve_arrays(experiment.CurveStats(tuple(wide), n))
                b = curve_arrays(experiment.CurveStats(tuple(narrow), n))
                assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_a_uint16_run_beside_a_uint32_run_past_65535_steps(self):
        # the uint16 run's step queries are clamped at its last step before
        # they take its type; past 65,535 they would wrap round to 0
        rng = np.random.default_rng(16)
        wide = [(np.sort(rng.integers(0, 60_001, 40)), 60_000),
                (np.sort(rng.integers(0, 140_001, 40)), 140_000)]
        narrow = [(times.astype(np.min_scalar_type(steps)), steps) for times, steps in wide]
        assert [times.dtype for times, _ in narrow] == [np.uint16, np.uint32]
        mean, std = self.sums_then_quotients(wide, 40)
        curve = experiment.CurveStats(tuple(narrow), 40)
        assert [a.tobytes() for a in curve_arrays(curve)] == [mean.tobytes(), std.tobytes()]

    @pytest.mark.parametrize("max_steps, dtype", [
        (200, np.uint8), (60_000, np.uint16), (70_000, np.uint32)])
    def test_history_is_the_smallest_unsigned_type_of_the_last_step(self, max_steps, dtype):
        # fixed(0.0) spreads to no one, so each run ends at the cap
        cfg = cycle_config(model=fixed(0.0), seed_count=3, max_steps=max_steps)
        g = experiment.run_graph(cfg, 0)
        record, (times, steps), _ = experiment._execute_run(cfg, g, 0, True)
        assert steps == record.steps_executed == max_steps
        assert times.dtype == dtype and times.tolist() == [0, 0, 0]

    def test_curve_bytes_identical_across_workers(self):
        cfg = SimConfig(graph=GraphSpec("watts_strogatz", n=40, k=6, beta=0.1),
                        model=GROUP, master_seed=8, runs=9, metrics=(1.0,))
        a = curve_arrays(run_ensemble(cfg, workers=1, collect_curves=True).curve)
        b = curve_arrays(run_ensemble(cfg, workers=4, collect_curves=True).curve)
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_pool_never_exceeds_the_task_count(self, monkeypatch):
        requested = []

        class SerialExecutor:  # records the pool size; starts no process
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
        cfg = cycle_config(runs=2)
        assert run_ensemble(cfg, workers=64) == run_ensemble(cfg)
        assert requested == [2]

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
        assert all(cell.stats[0][1].runs == 2 for cell in cells)

    def test_single_axis_two_models(self):
        cells = sweep(self.base(), [("model", ["group", "global"])])
        assert len(cells) == 2

    def test_empty_axis_rejected(self):
        for axes, message in [([], "axes: needs at least one axis"),
                              ([("graph.n", [])], "axes.graph.n: empty sweep range"),
                              ([("runs", (1, 2))], "axes.runs: expected a list"),
                              ([("runs", [1]), ("seed_count", 2)],
                               "axes.seed_count: expected a list")]:
            with pytest.raises(ValueError) as info:
                sweep(self.base(), axes)
            assert str(info.value) == message

    def test_failing_cell_recorded_and_sweep_continues(self):
        cells = sweep(self.base(), [("graph.k", [4, 5])])
        assert cells[0].error is None
        assert cells[1].error is not None and "k" in cells[1].error
        assert cells[1].stats is None

    def test_axis_through_a_scalar_fails_its_cell_only(self):
        cycle = {"type": "cycle", "n": 5}
        cells = sweep(self.base(), [("graph", [cycle, 5]), ("graph.n", [6, 7])])
        assert [cell.error for cell in cells] == [
            None, None] + ["graph.n: 'graph' is not an object"] * 2
        # each cell reports, and leaves, the axis values as declared
        assert [cell.assignments[0][1] for cell in cells[:2]] == [cycle] * 2
        assert cycle == {"type": "cycle", "n": 5}

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
            return SweepCell(assignments, None, str(exc))
        try:
            result = run_ensemble(config)
        except (ValueError, OSError) as exc:
            return SweepCell(assignments, None, str(exc))
        return SweepCell(assignments, result.stats)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_each_cell_run_alone(self, tmp_path, workers):
        edges = tmp_path / "small.edges"
        with edges.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(20), handle)
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GROUP, master_seed=5, runs=3,
                         metrics=(0.5, (0.1, 0.9)))
        graphs = [{"type": "watts_strogatz", "n": 30, "k": 4, "beta": 0.2},
                  {"type": "watts_strogatz", "n": 30, "k": 5, "beta": 0.2},
                  {"type": "file", "path": str(tmp_path / "missing.edges")},
                  {"type": "file", "path": str(edges)},
                  {"type": "watts_strogatz", "n": 30, "k": 6, "beta": 0.5}]
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
        # global cells on the two valid 30-node graphs share their ensembles
        global_on = [[c for c in cells_on(doc) if dict(c.assignments)["model"] == "global"]
                     for doc in (graphs[0], graphs[4])]
        assert all(c.error is None for c in global_on[1])
        assert [c.stats for c in global_on[0]] == [c.stats for c in global_on[1]]

    def test_each_graph_is_built_once_per_run(self, built_graphs):
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GROUP, master_seed=5, runs=3, metrics=(0.5,))
        cells = sweep(base, [("graph.beta", [0.1, 0.3]), ("runs", [2, 4]),
                             ("scheme", ["synchronous", "async_single_node"]),
                             ("model", ["group", "global"])])
        assert all(cell.error is None for cell in cells)
        assert len(built_graphs) == 2 * 4  # distinct graph keys x most runs in the key
        built_graphs.clear()
        sweep(base, [("regenerate_graph_per_run", [False]),
                     ("model", ["group", "global"])])
        assert len(built_graphs) == 1

    def test_global_cells_run_once_per_dynamics_key(self, monkeypatch,
                                                     built_graphs):
        executed = []
        execute_run = experiment._execute_run

        def counting_run(config, g, run_index, collect_curves):
            executed.append(config.model.kind)
            return execute_run(config, g, run_index, collect_curves)

        monkeypatch.setattr(experiment, "_execute_run", counting_run)
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GLOBAL, master_seed=5, runs=3, metrics=(0.5,))
        grid = [("graph.k", [4, 6]), ("graph.beta", [0.1, 0.3])]
        cells = sweep(base, grid)
        assert executed == ["global"] * 3  # runs, not 4 x runs
        assert all(cell.stats == cells[0].stats for cell in cells)
        assert cells[0].error is None
        assert built_graphs == []  # a global group runs on n arc-free nodes
        executed.clear()
        built_graphs.clear()
        sweep(base, grid + [("model", ["group", "global"])])
        assert executed.count("global") == 3 and executed.count("group") == 4 * 3
        assert len(built_graphs) == 4 * 3
        executed.clear()
        # the default cap is 200 * n, and a global run reads no graph draws
        sweep(base, [("max_steps", [None, 200 * 30]),
                     ("regenerate_graph_per_run", [True, False])])
        assert executed == ["global"] * 3

    @pytest.mark.parametrize("regenerate", [True, False])
    def test_global_groups_build_no_graph(self, built_graphs, tmp_path, regenerate):
        base = SimConfig(graph=GraphSpec("barabasi_albert", n=40, m_attach=2),
                         model=GLOBAL, master_seed=3, runs=4, metrics=(0.5, 1.0),
                         regenerate_graph_per_run=regenerate)
        configs = [replace(base, scheme=scheme) for scheme in SCHEMES]
        results = dict(experiment._execute(configs, workers=1))
        assert built_graphs == []
        for position, config in enumerate(configs):  # the records a built graph gives
            assert results[position].records == tuple(
                experiment._execute_run(config, experiment.run_graph(config, i), i, False)[0]
                for i in range(config.runs))
        built_graphs.clear()
        path = tmp_path / "g.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(40), handle)
        run_ensemble(replace(base, graph=GraphSpec("file", path=str(path))))
        assert len(built_graphs) == 1  # a file graph is still loaded, once

    @pytest.mark.parametrize("key,values", [
        ("graph.n", [30, 40]), ("scheme", list(SCHEMES)), ("seed_count", [1, 2]),
        ("max_steps", [None, 6000, 5]), ("master_seed", [5, 6]), ("runs", [3, 4]),
        ("metrics", [[0.5], [0.5, 0.9]])])
    def test_global_cells_differing_in_a_key_field_run_apart(self, key, values):
        base = SimConfig(graph=GraphSpec("watts_strogatz", n=30, k=4, beta=0.2),
                         model=GLOBAL, master_seed=5, runs=3, metrics=(0.5,))
        cells = sweep(base, [("graph.beta", [0.1, 0.3]), (key, values)])
        assert cells == [self.alone(base, cell.assignments) for cell in cells]


class TestAsyncGlobalOracle:
    def test_one_wait_is_geometric(self):
        # from 1 of 2 infected, p_1 = 1/4: mean 4, variance (1 - p) / p^2 = 12
        assert async_global_time_to(2, 1, 2) == (4.0, 12.0)
        assert async_global_time_to(5, 3, 3) == (0.0, 0.0)

    def test_rejects_bad_counts(self):
        for i0, k in [(0, 3), (3, 2), (1, 6)]:
            with pytest.raises(ValueError):
                async_global_time_to(5, i0, k)

    @pytest.mark.parametrize("n, runs", [(60, 400), (10_000, 40)])
    def test_ensemble_means_match_the_exact_waits(self, n, runs):
        # at n = 10^4 a run takes about 2 * 10^5 steps, many of the async
        # kernel's blocks, and its last block usually hands doubles back
        cfg = SimConfig(graph=GraphSpec("directed_cycle", n=n), model=GLOBAL,
                        scheme=ASYNC_SINGLE_NODE, master_seed=61, runs=runs,
                        metrics=(0.5, 1.0))
        stats = dict(run_ensemble(cfg).stats)
        for f, label in [(0.5, "time_to_0.5"), (1.0, "time_to_1")]:
            mean, var = async_global_time_to(n, 1, fraction_threshold(n, f))
            got = stats[label]
            assert got.censored_count == 0 and got.runs == runs
            assert abs(got.mean - mean) <= 3 * np.sqrt(var / runs), (label, got.mean, mean)


# strongly connected, and in-degree differs from out-degree at every node:
# (in, out) = (1, 4), (1, 2), (2, 1), (3, 1), (2, 1)
HAND_ARCS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3), (0, 4), (1, 3)]


class TestLocalRuleOracle:
    def test_cycle_waits_are_geometric(self):
        # on a directed cycle each of the n - 1 waits has the same p
        g = directed_cycle(5)
        for model, scheme, p in [(fixed(0.3), "synchronous", 0.3),
                                 (fixed(0.3), ASYNC_SINGLE_NODE, 0.3 / 5),
                                 (GROUP, ASYNC_SINGLE_NODE, 1 / 5)]:
            mean, var = local_time_to_all(g, model, scheme)
            assert mean == pytest.approx(4 / p)
            assert var == pytest.approx(4 * (1 - p) / p ** 2)
        assert local_time_to_all(g, GROUP, "synchronous") == (4.0, 0.0)

    def test_rejects_a_set_that_never_grows(self):
        with pytest.raises(ValueError, match="never grow"):
            local_time_to_all(Graph(3, [(0, 1), (1, 0), (2, 0)]), GROUP,
                              "synchronous")

    def test_seed_count_averages_over_uniform_subsets(self):
        # two seeds on a 5-cycle under fixed(1.0): of the 10 pairs, the 5
        # adjacent ones finish in 3 steps and the other 5 in 2
        g = directed_cycle(5)
        assert local_time_to_all(g, fixed(1.0), "synchronous", 2) == (2.5, 0.25)
        assert local_time_to_all(g, fixed(1.0), "synchronous", 5) == (0.0, 0.0)
        for count in (0, 6):
            with pytest.raises(ValueError, match="seed_count"):
                local_time_to_all(g, GROUP, "synchronous", count)

    @staticmethod
    def gate(graph, model, scheme, tmp_path, seed_count=1, max_steps=None):
        if graph == "hand":
            path = tmp_path / "hand.edges"
            with path.open("w", encoding="utf-8") as handle:
                save_edge_list(Graph(5, HAND_ARCS), handle)
            spec = GraphSpec("file", path=str(path))
        else:
            spec = GraphSpec(graph, n=5 if graph == "directed_cycle" else 4)
        runs = 400
        cfg = SimConfig(graph=spec, model=model, scheme=scheme, master_seed=62,
                        runs=runs, metrics=(1.0,), seed_count=seed_count,
                        max_steps=max_steps)
        got = dict(run_ensemble(cfg).stats)["time_to_1"]
        mean, var = local_time_to_all(build_graph(spec, None), model, scheme,
                                      seed_count)
        assert got.censored_count == 0 and got.runs == runs
        if var == 0.0:  # one outcome: every run must hit it
            assert got.min == got.max == mean, (got.min, got.max, mean)
        else:
            assert abs(got.mean - mean) <= 3 * np.sqrt(var / runs), (got.mean, mean)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", [fixed(0.3), GROUP], ids=["fixed", "group"])
    @pytest.mark.parametrize("graph", ["directed_cycle", "complete", "hand"])
    def test_ensemble_mean_matches_the_exact_chain(self, graph, model, scheme,
                                                   tmp_path):
        self.gate(graph, model, scheme, tmp_path)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model,seed_count", [
        (fixed(0.05), 1), (fixed(1.0), 1), (GROUP, 2)],
        ids=["fixed0.05", "fixed1", "group-2-seeds"])
    @pytest.mark.parametrize("graph", ["directed_cycle", "complete", "hand"])
    def test_more_rules_and_seed_counts_match_the_exact_chain(
            self, graph, model, seed_count, scheme, tmp_path):
        # fixed(0.05) async on the cycle takes 400 steps on average, and the
        # default cap of 200 n = 1000 steps would censor some runs
        self.gate(graph, model, scheme, tmp_path, seed_count, max_steps=10 ** 5)


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
