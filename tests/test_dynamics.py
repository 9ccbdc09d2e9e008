"""Infection probabilities, stepping schemes, and whole runs."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import make_random_instance, rng_for
from diffusim import dynamics
from diffusim.dynamics import (ASYNC_SINGLE_NODE, GLOBAL, GROUP, ModelKind,
                               SCHEMES, SYNCHRONOUS, SeedSet, fixed, run,
                               seed_random, step)
from diffusim.graph import Graph, complete_graph, directed_cycle, watts_strogatz
from diffusim.metrics import Trajectory
from kernel_reference import infection_probability


class TestModelKind:
    def test_fixed_requires_probability(self):
        with pytest.raises(ValueError, match="transmission_prob"):
            ModelKind("fixed")
        with pytest.raises(ValueError):
            fixed(1.5)
        assert fixed(0.25).transmission_prob == 0.25

    def test_parameterless_models_reject_probability(self):
        with pytest.raises(ValueError):
            ModelKind("group", 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelKind("viral")


class TestSeedSet:
    def test_sorted_and_deduplicated_input_rejected(self):
        assert SeedSet((3, 1, 2)).nodes == (1, 2, 3)
        with pytest.raises(ValueError, match="duplicate"):
            SeedSet((1, 1))
        with pytest.raises(ValueError, match="non-empty"):
            SeedSet(())
        with pytest.raises(ValueError):
            SeedSet((-1,))

    def test_seed_random_full_cover(self):
        g = directed_cycle(7)
        assert seed_random(g, 7, rng_for(30)).nodes == tuple(range(7))

    def test_seed_random_determinism(self):
        g = complete_graph(1000)
        a = seed_random(g, 1, np.random.default_rng(5))
        b = seed_random(g, 1, np.random.default_rng(5))
        assert a.nodes == b.nodes

    def test_seed_random_distinct_count(self):
        g = complete_graph(100)
        seeds = seed_random(g, 10, rng_for(31))
        assert len(seeds.nodes) == 10 == len(set(seeds.nodes))

    def test_seed_random_rejects_bad_count(self):
        g = directed_cycle(5)
        with pytest.raises(ValueError):
            seed_random(g, 0, rng_for(32))
        with pytest.raises(ValueError):
            seed_random(g, 6, rng_for(33))

    def test_seed_random_is_roughly_uniform(self):
        g = directed_cycle(10)
        hits = np.zeros(10)
        rng = rng_for(34)
        for _ in range(4000):
            hits[list(seed_random(g, 1, rng).nodes)] += 1
        assert hits.min() > 300 and hits.max() < 500  # 400 +- 5 sigma


class FirstDecision:
    """Generator stand-in for one synchronous step: the first double drawn
    is ``decision``, every later one 1.0."""

    def __init__(self, decision: float):
        self.decision = decision

    def random(self, size: int) -> np.ndarray:
        out = np.ones(size)
        out[0] = self.decision
        return out


class TestInfectionProbability:
    def test_focal_fixture_group(self, focal_fixture):
        g, s = focal_fixture
        assert infection_probability(GROUP, g, s, 0) == pytest.approx(2 / 5, abs=1e-15)

    def test_focal_fixture_global(self, focal_fixture):
        g, s = focal_fixture
        assert infection_probability(GLOBAL, g, s, 0) == pytest.approx(2 / 13, abs=1e-15)

    def test_fixed_boundaries(self, focal_fixture):
        g, s = focal_fixture
        assert infection_probability(fixed(0.0), g, s, 0) == 0.0
        assert infection_probability(fixed(1.0), g, s, 0) == 1.0

    def test_fixed_collapse_matches_per_arc_oracle(self, focal_fixture):
        # node 0 has two infected in-neighbors; the collapsed probability
        # must match independent per-arc Bernoulli(0.5) transmission
        g, s = focal_fixture
        p = infection_probability(fixed(0.5), g, s, 0)
        assert p == pytest.approx(0.75, abs=1e-15)
        rng = rng_for(35)
        trials = 40000
        hits = int(np.any(rng.random((trials, 2)) < 0.5, axis=1).sum())
        se = np.sqrt(0.75 * 0.25 / trials)
        assert abs(hits / trials - p) < 4 * se

    @pytest.mark.parametrize("model, p", [(GROUP, 2 / 5), (GLOBAL, 2 / 13),
                                          (fixed(0.5), 0.75)])
    def test_production_step_compares_the_hand_computed_probability(
            self, focal_fixture, model, p):
        # node 0 is the first susceptible node, so it takes the first
        # decision double; every other node draws 1.0 and stays susceptible
        g, s = focal_fixture
        for decision, infected in ((p, False), (np.nextafter(p, 0), True)):
            after = step(model, g, s, SYNCHRONOUS, FirstDecision(decision))
            assert (after.infection_time[0] == 1) == infected
            assert after.final_infected == 2 + infected

    def test_rejects_infected_node(self, focal_fixture):
        g, s = focal_fixture
        with pytest.raises(ValueError, match="already infected"):
            infection_probability(GROUP, g, s, 1)

    def test_rejects_out_of_range_node(self, focal_fixture):
        g, s = focal_fixture
        with pytest.raises(ValueError, match="out of range"):
            infection_probability(GROUP, g, s, 13)

    def test_group_zero_in_degree_is_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])  # node 0 has no in-arcs
        s = Trajectory.from_seeds(3, [1, 2])
        assert infection_probability(GROUP, g, s, 0) == 0.0

    def test_global_topology_independence(self):
        for build in (lambda: complete_graph(12),
                      lambda: directed_cycle(12),
                      lambda: watts_strogatz(12, 4, 0.3, rng_for(36))):
            g = build()
            s = Trajectory.from_seeds(12, [0, 5, 7])
            for u in range(12):
                if s.infection_time[u] < 0:
                    assert infection_probability(GLOBAL, g, s, u) == 3 / 12

    def test_complete_graph_bridge(self):
        n, infected = 20, [2, 4, 6, 8, 10]
        g = complete_graph(n)
        s = Trajectory.from_seeds(n, infected)
        assert infection_probability(GROUP, g, s, 0) == len(infected) / (n - 1)
        assert infection_probability(GLOBAL, g, s, 0) == len(infected) / n

    def test_probability_always_within_unit_interval(self):
        rng = rng_for(37)
        for _ in range(40):
            g, model, _, seeds = make_random_instance(rng)
            s = Trajectory.from_seeds(g.n, seeds.nodes)
            for u in range(g.n):
                if s.infection_time[u] < 0:
                    p = infection_probability(model, g, s, u)
                    assert 0.0 <= p <= 1.0


class TestStep:
    def test_cycle_group_one_infection_per_step(self):
        g = directed_cycle(10)
        s = Trajectory.from_seeds(10, [0])
        rng = rng_for(38)
        for t in range(1, 10):
            s = step(GROUP, g, s, SYNCHRONOUS, rng)
            assert s.final_infected == 1 + t
            assert s.steps_executed == t

    def test_zero_infected_is_absorbing(self):
        g = complete_graph(6)
        s = Trajectory.from_seeds(6, [])
        rng = rng_for(39)
        for _ in range(50):
            s = step(GLOBAL, g, s, SYNCHRONOUS, rng)
        assert s.final_infected == 0 and s.steps_executed == 50

    def test_infected_stay_infected(self):
        rng = rng_for(40)
        g, model, scheme, seeds = make_random_instance(rng)
        s = Trajectory.from_seeds(g.n, seeds.nodes)
        for _ in range(30):
            before = s.infection_time >= 0
            s = step(model, g, s, scheme, rng)
            assert np.all(s.infection_time[before] >= 0)  # none reverts

    def test_unknown_scheme_rejected(self):
        g = directed_cycle(3)
        s = Trajectory.from_seeds(3, [0])
        with pytest.raises(ValueError, match="scheme"):
            step(GROUP, g, s, "waves", rng_for(41))

    def test_global_two_node_geometric(self):
        # susceptible node infects with p = 1/2 each sync step; the
        # infection time is geometric with mean 2
        g = directed_cycle(2)
        rng = rng_for(42)
        times = []
        for _ in range(2000):
            traj = run(GLOBAL, g, SeedSet((0,)), SYNCHRONOUS, 500, rng)
            times.append(int(traj.infection_time[1]))
        mean = float(np.mean(times))
        se = np.sqrt(2.0 / len(times))  # geometric(1/2) variance is 2
        assert abs(mean - 2.0) < 3 * se


class TestRun:
    def test_cycle_50_deterministic_front(self):
        traj = run(GROUP, directed_cycle(50), SeedSet((7,)), SYNCHRONOUS,
                   10_000, rng_for(43))
        assert traj.counts.tolist() == list(range(1, 51))
        assert traj.steps_executed == 49
        assert traj.final_infected == 50

    def test_all_seeded_run_ends_immediately(self):
        g = complete_graph(5)
        traj = run(GLOBAL, g, SeedSet(tuple(range(5))), SYNCHRONOUS, 100,
                   rng_for(44))
        assert traj.counts.tolist() == [5]
        assert traj.steps_executed == 0

    def test_path_graph_deterministic_times(self):
        g = Graph(3, [(0, 1), (1, 2)])
        traj = run(GROUP, g, SeedSet((0,)), SYNCHRONOUS, 100, rng_for(45))
        assert traj.infection_time.tolist() == [0, 1, 2]

    def test_unreachable_component_censors_with_padding(self):
        # two disjoint directed triangles; group infection cannot jump
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = Graph(6, arcs)
        traj = run(GROUP, g, SeedSet((0,)), SYNCHRONOUS, 40, rng_for(46))
        assert traj.final_infected == 3
        assert traj.counts.size == 41  # padded out to max_steps + 1
        assert traj.counts[-1] == 3
        assert traj.infection_time[3:].tolist() == [-1, -1, -1]

    def test_fixed_zero_probability_never_spreads(self):
        g = complete_graph(8)
        traj = run(fixed(0.0), g, SeedSet((0,)), SYNCHRONOUS, 25, rng_for(47))
        assert traj.final_infected == 1
        assert traj.counts.size == 26
        traj = run(fixed(0.0), g, SeedSet((0,)), ASYNC_SINGLE_NODE, 25, rng_for(48))
        assert traj.final_infected == 1 and traj.counts.size == 26

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fixed_probability_rounding_to_zero_draws_nothing(self, scheme):
        # fl(1 - 1e-17) = 1, so every fixed(1e-17) probability is exactly 0
        # and the state is absorbed before the first draw
        rng = rng_for(51)
        state = rng.bit_generator.state
        traj = run(fixed(1e-17), directed_cycle(50), SeedSet((0,)), scheme,
                   2_000_000, rng)
        assert traj.final_infected == 1 and traj.steps_executed == 2_000_000
        assert rng.bit_generator.state == state

    def test_async_increments_at_most_one(self):
        g = watts_strogatz(40, 6, 0.1, rng_for(49))
        traj = run(GLOBAL, g, SeedSet((3,)), ASYNC_SINGLE_NODE, 5000, rng_for(50))
        diffs = np.diff(traj.counts)
        assert set(diffs.tolist()) <= {0, 1}
        assert traj.counts[0] == 1

    def test_run_validates_arguments(self):
        g = directed_cycle(4)
        with pytest.raises(ValueError, match="max_steps"):
            run(GROUP, g, SeedSet((0,)), SYNCHRONOUS, 0, rng_for(51))
        with pytest.raises(ValueError, match="out of range"):
            run(GROUP, g, SeedSet((4,)), SYNCHRONOUS, 10, rng_for(52))
        with pytest.raises(ValueError, match="scheme"):
            run(GROUP, g, SeedSet((0,)), "diagonal", 10, rng_for(53))

    def test_run_matches_repeated_step_exactly(self):
        # run() must consume the stream in the documented order, bit for
        # bit equal to the public step(), and leave it just past its last
        # draw (the async kernel's read-ahead is handed back)
        g = watts_strogatz(30, 4, 0.2, rng_for(54))
        seeds = SeedSet((3, 11))
        for scheme in SCHEMES:
            for model in (GROUP, GLOBAL, fixed(0.3)):
                rng_run = np.random.default_rng(77)
                rng_step = np.random.default_rng(77)
                traj = run(model, g, seeds, scheme, 400, rng_run)
                s = Trajectory.from_seeds(30, seeds.nodes)
                counts = [s.final_infected]
                while s.final_infected < 30 and s.steps_executed < 400:
                    s = step(model, g, s, scheme, rng_step)
                    counts.append(s.final_infected)
                assert traj.counts.tolist() == counts[:traj.counts.size]
                assert traj.infection_time.tolist() == s.infection_time.tolist()
                assert rng_run.random() == rng_step.random()

    def test_monotone_counts_property(self):
        rng = rng_for(55)
        for _ in range(40):
            g, model, scheme, seeds = make_random_instance(rng)
            cap = 4 * g.n if scheme == SYNCHRONOUS else 12 * g.n
            traj = run(model, g, seeds, scheme, cap, rng)
            assert np.all(np.diff(traj.counts) >= 0)
            assert traj.counts[0] == len(seeds.nodes)
            infected_at_end = traj.infection_time >= 0
            assert infected_at_end.sum() == traj.final_infected

    def test_early_stop_memory_does_not_grow_with_the_cap(self):
        # fixed(0) is absorbed at once; the trajectory still ends at the
        # cap, but nothing may be sized by it (a dense count series of
        # 2,000,001 int64s would take 16 MB)
        g = directed_cycle(2000)
        for scheme in SCHEMES:
            # warm up: the first run makes one-off lazy imports
            run(fixed(0.0), g, SeedSet((0,)), scheme, 1, rng_for(56))
            tracemalloc.start()
            try:
                traj = run(fixed(0.0), g, SeedSet((0,)), scheme, 2_000_000,
                           rng_for(56))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert traj.steps_executed == 2_000_000
            assert traj.final_infected == 1
