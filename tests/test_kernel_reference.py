"""The run kernels against their reference copies, draw for draw.

Each instance runs a production kernel and its copy in
``kernel_reference`` from the same state on two equal generators, then
compares the infection times, the end step and the stream after the run
(the full bit-generator state, then the next ``integers(2**32)`` and
``random()``).  360 random instances cover every generator, the models
fixed(q) for q in {0, 0.05, 0.3, 1}, group and global, both schemes, caps
from 1 to 6n², resumed starts, seed counts up to 4 and generators holding
a cached 32-bit half.  180 more run the async kernel with blocks of 1, 2
and 5 doubles, so that its block boundaries fall everywhere.  A scripted
stream adds the edge values a real generator never or almost never
yields: 1.0 as a pick and decisions equal to p.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import rng_for
from diffusim import dynamics, graph
from diffusim.dynamics import GLOBAL, GROUP, SCHEMES, fixed
from diffusim.metrics import Trajectory

from kernel_reference import KERNELS

GENERATORS = ("watts_strogatz", "barabasi_albert", "directed_cycle",
              "complete", "file")
MODELS = {"fixed0": fixed(0.0), "fixed0.05": fixed(0.05),
          "fixed0.3": fixed(0.3), "fixed1": fixed(1.0),
          "group": GROUP, "global": GLOBAL}
PER_CELL = 6  # instances per (generator, model, scheme)


def random_graph(generator: str, rng: np.random.Generator, tmp_path):
    if generator == "watts_strogatz":
        n = int(rng.integers(3, 61))
        k = 2 * int(rng.integers(1, (n - 1) // 2 + 1))
        return graph.watts_strogatz(n, k, float(rng.random()), rng)
    if generator == "barabasi_albert":
        n = int(rng.integers(2, 61))
        return graph.barabasi_albert(n, int(rng.integers(1, min(n, 4))), rng)
    if generator == "directed_cycle":
        return graph.directed_cycle(int(rng.integers(2, 61)))
    if generator == "complete":
        return graph.complete_graph(int(rng.integers(2, 25)))
    # a sparse random digraph: isolated nodes and sources included
    n = int(rng.integers(1, 61))
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))
    arcs = sorted({(v, u) for v, u in pairs.tolist() if v != u})
    path = tmp_path / "instance.edges"
    with path.open("w", encoding="utf-8") as handle:
        graph.save_edge_list(graph.Graph(n, arcs), handle)
    return graph.load_edge_list(path)


def random_cap(n: int, rng: np.random.Generator) -> int:
    return int(rng.choice([1, int(rng.integers(1, 2 * n + 1)),
                           int(rng.integers(1, 6 * n * n + 1)), 6 * n * n]))


def twin_streams(label: int, cached_half: bool):
    """Two generators in the same state; optionally holding a cached half."""
    pair = [np.random.default_rng(label), np.random.default_rng(label)]
    if cached_half:
        for rng in pair:
            rng.integers(7)
            assert rng.bit_generator.state["has_uint32"] == 1
    return pair


def assert_same_run(kernel, reference, model, g, times, t0, cap, streams):
    mine, theirs = times.copy(), times.copy()
    ours, ref = streams
    end = kernel(model, g, mine, t0, cap, ours)
    ref_end = reference(model, g, theirs, t0, cap, ref)
    assert end == ref_end
    np.testing.assert_array_equal(mine, theirs)
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.integers(2**32) == ref.integers(2**32)
    assert ours.random() == ref.random()


def check_random_instances(label, generator, model, schemes, count, tmp_path):
    rng = rng_for(label)
    for scheme, i in itertools.product(schemes, range(count)):
        g = random_graph(generator, rng, tmp_path)
        seeds = dynamics.seed_random(g, int(rng.integers(1, min(g.n, 4) + 1)), rng)
        times = Trajectory.from_seeds(g.n, seeds.nodes).infection_time
        cap = random_cap(g.n, rng)
        t0 = int(rng.integers(0, cap)) if rng.random() < 0.25 else 0
        streams = twin_streams(label * 100 + i, cached_half=bool(i % 2))
        assert_same_run(dynamics._kernel(scheme), KERNELS[scheme], model, g,
                        times, t0, cap, streams)


@pytest.mark.parametrize("generator,model_name",
                         itertools.product(GENERATORS, MODELS))
def test_kernels_match_reference(generator, model_name, tmp_path):
    label = 9000 + 100 * GENERATORS.index(generator) + list(MODELS).index(model_name)
    check_random_instances(label, generator, MODELS[model_name], SCHEMES,
                           PER_CELL, tmp_path)


@pytest.mark.parametrize("read_ahead", [1, 2, 5])
def test_async_read_ahead_size_is_invisible(read_ahead, monkeypatch, tmp_path):
    """Tiny blocks put a block boundary before nearly every pick and
    decision; the draws, and so the results, must not notice."""
    monkeypatch.setattr(dynamics, "_READ_AHEAD", read_ahead)
    for (j, generator), (k, model) in itertools.product(
            enumerate(GENERATORS), enumerate(MODELS.values())):
        check_random_instances(9700 + 10 * j + k, generator, model,
                               [dynamics.ASYNC_SINGLE_NODE], 2, tmp_path)


class ScriptedStream:
    """Generator stand-in serving doubles from the grid {k/60}: 1.0 included,
    and ties with every d/deg for deg <= 6 and i/n for n dividing 60.  Its
    ``bit_generator.state`` is the read position."""

    def __init__(self, label: int):
        self._grid = np.random.default_rng(label)
        self._doubles = np.zeros(0)
        self.state = 0
        self.bit_generator = self

    def random(self, size: int) -> np.ndarray:
        end = self.state + size
        while self._doubles.size < end:
            more = self._grid.integers(0, 61, size=4096) / 60
            self._doubles = np.concatenate([self._doubles, more])
        out = self._doubles[self.state:end].copy()
        self.state = end
        return out


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model_name", MODELS)
def test_kernels_match_reference_on_edge_doubles(scheme, model_name):
    model = MODELS[model_name]
    rng = rng_for(9900)
    graphs = [graph.directed_cycle(5), graph.complete_graph(6),
              graph.watts_strogatz(12, 4, 0.3, rng),
              graph.barabasi_albert(20, 2, rng),
              graph.Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 4)])]
    for j, g in enumerate(graphs):
        times = Trajectory.from_seeds(g.n, [0]).infection_time
        streams = (ScriptedStream(j), ScriptedStream(j))
        mine, theirs = times.copy(), times.copy()
        cap = 6 * g.n * g.n
        end = dynamics._kernel(scheme)(model, g, mine, 0, cap, streams[0])
        assert end == KERNELS[scheme](model, g, theirs, 0, cap, streams[1])
        np.testing.assert_array_equal(mine, theirs)
        assert streams[0].state == streams[1].state


ASYNC_REFERENCE = KERNELS[dynamics.ASYNC_SINGLE_NODE]


@pytest.mark.parametrize("read_ahead", [1, 2, 5, 4096])
def test_async_caps_at_block_edges(read_ahead, monkeypatch):
    """A cap one double inside the first block, at its end and one past it,
    run from step 0 and resumed one step before the cap."""
    monkeypatch.setattr(dynamics, "_READ_AHEAD", read_ahead)
    rng = rng_for(9800 + read_ahead)
    graphs = [graph.directed_cycle(60), graph.barabasi_albert(40, 2, rng),
              graph.complete_graph(8)]
    caps = [cap for cap in (read_ahead - 1, read_ahead, read_ahead + 1) if cap >= 1]
    for (j, g), (k, model), cap in itertools.product(
            enumerate(graphs), enumerate(MODELS.values()), caps):
        times = Trajectory.from_seeds(g.n, [0]).infection_time
        for t0 in (0, cap - 1):
            streams = twin_streams(100 * j + 10 * k + t0, cached_half=bool(k % 2))
            assert_same_run(dynamics._run_async, ASYNC_REFERENCE, model, g,
                            times, t0, cap, streams)


@pytest.mark.parametrize("read_ahead", [1, 2, 5])
def test_async_late_phase_starts(read_ahead, monkeypatch, tmp_path):
    """At least 3/4 of the nodes infected at t0, so that blocks whose marked
    doubles are the minority, walked alone, come from the first block on."""
    monkeypatch.setattr(dynamics, "_READ_AHEAD", read_ahead)
    rng = rng_for(9850 + read_ahead)
    for (j, generator), (k, model), i in itertools.product(
            enumerate(GENERATORS), enumerate(MODELS.values()), range(2)):
        g = random_graph(generator, rng, tmp_path)
        t0 = int(rng.integers(0, 3 * g.n))
        late = rng.permutation(g.n)[g.n // 4:]
        times = np.full(g.n, -1, dtype=np.int64)
        times[late] = rng.integers(0, t0 + 1, size=late.size)
        cap = t0 + random_cap(g.n, rng)
        streams = twin_streams(1000 * j + 10 * k + i, cached_half=bool(i))
        assert_same_run(dynamics._run_async, ASYNC_REFERENCE, model, g, times,
                        t0, cap, streams)


@pytest.mark.parametrize("model_name", MODELS)
def test_async_pick_as_a_blocks_last_double(model_name, monkeypatch):
    """Blocks of 3: the two infected picks 0.1 and 0.1 of node 0, then the
    susceptible pick 0.6 of node 3, whose decision 0.0 follows the block."""
    monkeypatch.setattr(dynamics, "_READ_AHEAD", 3)
    model, g = MODELS[model_name], graph.complete_graph(5)
    times = Trajectory.from_seeds(g.n, [0]).infection_time
    streams = (ScriptedStream(1), ScriptedStream(1))
    for stream in streams:
        stream._doubles = np.array([0.1, 0.1, 0.6, 0.0])
    mine, theirs = times.copy(), times.copy()
    cap = 6 * g.n * g.n
    end = dynamics._run_async(model, g, mine, 0, cap, streams[0])
    assert end == ASYNC_REFERENCE(model, g, theirs, 0, cap, streams[1])
    np.testing.assert_array_equal(mine, theirs)
    assert streams[0].state == streams[1].state
    if model_name != "fixed0":  # fixed(0) is absorbed before its first draw
        assert mine[3] == 3


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_leaves_the_stream_where_a_one_step_run_does(scheme, tmp_path):
    rng = rng_for(9950 + SCHEMES.index(scheme))
    for (j, generator), (k, model) in itertools.product(
            enumerate(GENERATORS), enumerate(MODELS.values())):
        g = random_graph(generator, rng, tmp_path)
        seeds = dynamics.seed_random(g, int(rng.integers(1, min(g.n, 4) + 1)), rng)
        t0 = int(rng.integers(0, 2 * g.n))
        traj = Trajectory(n=g.n, infection_time=Trajectory.from_seeds(
            g.n, seeds.nodes).infection_time, steps_executed=t0)
        ours, ref = twin_streams(100 * j + k, cached_half=bool(k % 2))
        times = traj.infection_time.copy()
        for t in range(t0, t0 + 3):
            traj = dynamics.step(model, g, traj, scheme, ours)
            KERNELS[scheme](model, g, times, t, t + 1, ref)
            assert traj.steps_executed == t + 1
            np.testing.assert_array_equal(traj.infection_time, times)
            assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(2**32) == ref.integers(2**32)
        assert ours.random() == ref.random()
