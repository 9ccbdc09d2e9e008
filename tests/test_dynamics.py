"""Infection probabilities, stepping schemes, and whole runs."""
from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_random_instance, rng_for
from diffusim import dynamics
from diffusim.dynamics import (ASYNC_SINGLE_NODE, GLOBAL, GROUP, ModelKind,
                               SCHEMES, SYNCHRONOUS, SeedSet, fixed, run,
                               seed_random, step)
from diffusim.experiment import SimConfig
from diffusim.graph import (Graph, GraphSpec, build_graph, complete_graph,
                            directed_cycle, watts_strogatz)
from diffusim.metrics import Trajectory
import kernel_reference
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

    def test_rejects_node_ids_that_are_not_integers(self):
        for bad in (2.7, 3.0, "3", True, np.bool_(False), None):
            with pytest.raises(ValueError, match="seed node id: expected an "
                                                 f"integer, got {bad!r}"):
                SeedSet((1, bad))
        assert SeedSet((np.int64(4), np.uint8(2))).nodes == (2, 4)
        assert all(type(u) is int for u in SeedSet((np.int64(4),)).nodes)

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

    @pytest.mark.parametrize("count, message", [
        (0, "seed_count: must be >= 1"),
        (6, "seed_count: must not exceed graph n (5)"),
    ])
    def test_seed_random_gives_the_config_messages(self, count, message):
        with pytest.raises(ValueError) as sampled:
            seed_random(directed_cycle(5), count, rng_for(57))
        with pytest.raises(ValueError) as configured:
            SimConfig(graph=GraphSpec("cycle", n=5), model=GROUP, master_seed=1,
                      seed_count=count)
        assert str(sampled.value) == str(configured.value) == message

    def test_seed_random_matches_the_list_reference(self):
        # 540 cases, on the sample and on the whole generator state after it
        cases = 0
        for n in (1, 2, 3, 7, 50, 1000):
            for count in sorted({1, 2, n // 2, n} & set(range(1, n + 1))):
                for seed in range(30):
                    ours, theirs = rng_for(seed), rng_for(seed)
                    sample = seed_random(SimpleNamespace(n=n), count, ours)
                    expected = kernel_reference.seed_random(n, count, theirs)
                    assert sample.nodes == tuple(sorted(expected))
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    cases += 1
        assert cases == 540

    def test_seed_random_memory_follows_the_count_not_n(self):
        g = SimpleNamespace(n=10 ** 6)  # only n is read
        seed_random(g, 8, rng_for(35))  # warm up
        tracemalloc.start()
        try:
            seed_random(g, 8, rng_for(35))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000  # the list 0..n-1 took 40 MB

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


def graphs_of_every_generator(tmp_path) -> list:
    """One small graph per generator, and two edge-list files whose graphs
    have nodes of in-degree 0 (in the second, every node)."""
    (tmp_path / "a.edges").write_text("7\n0 1\n0 2\n1 2\n3 2\n2 4\n5 4\n",
                                      encoding="utf-8")
    (tmp_path / "b.edges").write_text("4\n", encoding="utf-8")
    specs = [GraphSpec("watts_strogatz", n=30, k=4, beta=0.3),
             GraphSpec("barabasi_albert", n=40, m_attach=3),
             GraphSpec("complete", n=9), GraphSpec("directed_cycle", n=6),
             GraphSpec("file", path=str(tmp_path / "a.edges")),
             GraphSpec("file", path=str(tmp_path / "b.edges"))]
    return [build_graph(spec, rng_for(40 + i)) for i, spec in enumerate(specs)]


class TestRuleTable:
    @pytest.mark.parametrize("model", [fixed(0.0), fixed(1e-17), fixed(0.05),
                                       fixed(0.3), fixed(1.0), GROUP],
                             ids=["q0", "q1e-17", "q0.05", "q0.3", "q1", "group"])
    def test_every_entry_is_the_reference_probability(self, tmp_path, model):
        # table[slot[u]], where slot[u] is u's slot with no infected
        # in-neighbor plus d, for every d up to u's in-degree, most of which
        # runs seldom reach, is the p that kernel_reference writes out
        for g in graphs_of_every_generator(tmp_path):
            arcs = g.arcs
            _, base = dynamics._rule_state(model, g, np.zeros(g.n, dtype=bool))
            for u in range(g.n):
                neigh = arcs[arcs[:, 1] == u, 0]
                for d in range(neigh.size + 1):
                    times = np.full(g.n, -1)
                    times[neigh[:d]] = 0
                    table, slot = dynamics._rule_state(model, g, times >= 0)
                    expected = infection_probability(model, g, Trajectory(g.n, times, 0), u)
                    assert slot[u] == base[u] + d and table[slot[u]] == expected, (g, u, d)


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

    def test_unknown_scheme_gives_the_configs_message(self):
        # one owner for the scheme rule: step, run and SimConfig say the same
        g, message = directed_cycle(3), "^scheme: unknown value 'waves'$"
        with pytest.raises(ValueError, match=message):
            step(GROUP, g, Trajectory.from_seeds(3, [0]), "waves", rng_for(41))
        with pytest.raises(ValueError, match=message):
            run(GROUP, g, SeedSet((0,)), "waves", 10, rng_for(41))
        with pytest.raises(ValueError, match=message):
            SimConfig(graph=GraphSpec("directed_cycle", n=3), model=GROUP,
                      master_seed=1, scheme="waves")

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", [fixed(0.3), GROUP, GLOBAL],
                             ids=["fixed", "group", "global"])
    def test_trajectory_of_another_graph_rejected_before_any_draw(self, model,
                                                                  scheme):
        rng = rng_for(42)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            step(model, directed_cycle(5), Trajectory.from_seeds(10, [0]), scheme, rng)
        assert str(info.value) == "trajectory n (10) does not match graph n (5)"
        assert rng.bit_generator.state == state

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

    def test_async_run_holds_under_4_bytes_per_arc(self):
        # the kernel walks the graph's own arc array; a list copy of every arc
        # took 42 bytes an arc here, and a list of the CSR offsets another 2
        g = watts_strogatz(10_000, 20, 0.05, rng_for(57))
        run(fixed(0.5), g, SeedSet((0, 1)), ASYNC_SINGLE_NODE, 10, rng_for(58))  # warm up
        tracemalloc.start()
        try:
            run(fixed(0.5), g, SeedSet((0, 1)), ASYNC_SINGLE_NODE, 10, rng_for(58))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.arc_count


def through_package(model, g, seeds, scheme, cap, label, stepwise):
    """End step, infection times and bit-generator state of ``run``, or of a
    loop of ``step`` to the cap, on ``default_rng(label)``."""
    rng = np.random.default_rng(label)
    if stepwise:
        traj = Trajectory.from_seeds(g.n, seeds.nodes)
        for _ in range(cap):
            traj = step(model, g, traj, scheme, rng)
    else:
        traj = run(model, g, seeds, scheme, cap, rng)
    return traj.steps_executed, traj.infection_time.tolist(), rng.bit_generator.state


def through_reference(model, g, seeds, scheme, cap, label, stepwise):
    """The same through the kernel_reference copy of the scheme's kernel."""
    rng = np.random.default_rng(label)
    kernel = kernel_reference.KERNELS[scheme]
    times = Trajectory.from_seeds(g.n, seeds.nodes).infection_time
    if stepwise:
        for t in range(cap):
            kernel(model, g, times, t, t + 1, rng)
        end = cap
    else:
        end = kernel(model, g, times, 0, cap, rng)
    return end, times.tolist(), rng.bit_generator.state


@pytest.mark.parametrize("stepwise", [False, True], ids=["run", "step"])
@pytest.mark.parametrize("scheme", SCHEMES)
class TestAbsorptionEdges:
    """A state is absorbed when no susceptible p is positive, at the edges
    of the fixed and group rules."""

    def test_fixed_p_rounding_to_zero_is_absorbed_before_its_first_draw(
            self, scheme, stepwise):
        # fl(1 - 2**-54) = 1.0, so every fixed(2**-54) p is exactly 0
        g, seeds, label = complete_graph(6), SeedSet((0,)), 61
        ours = through_package(fixed(2.0**-54), g, seeds, scheme, 200, label, stepwise)
        theirs = through_reference(fixed(2.0**-54), g, seeds, scheme, 200, label, stepwise)
        assert ours[:2] == theirs[:2] == (200, [0, -1, -1, -1, -1, -1])
        # the async reference absorbs fixed only at q = 0, so here it draws
        # picks to the cap; both copies absorb fixed(0), whose ps are the same
        assert ours == through_reference(fixed(0.0), g, seeds, scheme, 200, label,
                                         stepwise)
        assert ours[2] == np.random.default_rng(label).bit_generator.state

    def test_fixed_smallest_positive_p_runs_to_the_cap(self, scheme, stepwise):
        # fl(1 - 2**-53) < 1.0, so p(1) = 2**-53 > 0 and nothing is absorbed
        g, seeds, label = complete_graph(6), SeedSet((0,)), 62
        ours = through_package(fixed(2.0**-53), g, seeds, scheme, 200, label, stepwise)
        assert ours == through_reference(fixed(2.0**-53), g, seeds, scheme, 200,
                                         label, stepwise)
        assert ours[2] != np.random.default_rng(label).bit_generator.state

    def test_group_with_source_nodes_beside_infected_in_neighbors(
            self, scheme, stepwise):
        # 5 and 6 have in-degree 0, so their p stays 0, as does 7's, which
        # only 6 reaches; 1 and 4 start with an infected in-neighbor; 2's and
        # 3's p leave 0 when 1 is infected, and the first of them infected
        # raises the other's from 1/2 to 1
        g = Graph(8, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2), (0, 4), (5, 4), (6, 7)])
        for label in range(63, 68):
            ours = through_package(GROUP, g, SeedSet((0,)), scheme, 300, label, stepwise)
            assert ours == through_reference(GROUP, g, SeedSet((0,)), scheme, 300,
                                             label, stepwise)
            assert ours[1][5:] == [-1, -1, -1]
