"""Shared fixtures for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from diffusim import dynamics, experiment
from diffusim.graph import Graph
from diffusim.metrics import Trajectory


@pytest.fixture
def focal_fixture():
    """13-node fixture: node 0 is susceptible with five in-neighbors
    (nodes 1..5), of which nodes 1 and 2 are infected; nobody else is.

    The remaining nodes form a directed cycle so the graph has no
    isolated vertices; they carry no arcs into node 0.
    """
    arcs = [(v, 0) for v in (1, 2, 3, 4, 5)]
    ring = list(range(6, 13))
    arcs += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    g = Graph(13, arcs)
    state = Trajectory.from_seeds(13, [1, 2])
    return g, state


@pytest.fixture
def built_graphs(monkeypatch):
    """Every graph the in-process executor builds, in build order."""
    built = []
    build = experiment.build_graph

    def recording_build(spec, rng=None):
        built.append(build(spec, rng))
        return built[-1]

    monkeypatch.setattr(experiment, "build_graph", recording_build)
    return built


def rng_for(label: int) -> np.random.Generator:
    """Fresh deterministic stream for a test, independent per label."""
    return np.random.default_rng(np.random.SeedSequence(99991, spawn_key=(label,)))


def make_random_instance(rng: np.random.Generator):
    """Random (graph, model, scheme, seeds) tuple for property tests, n <= 100."""
    from diffusim import graph

    kind = rng.choice(["ws", "ba", "complete", "cycle"])
    if kind == "ws":
        n = int(rng.integers(6, 101))
        k = 2 * int(rng.integers(1, min(n // 2, 6)))
        g = graph.watts_strogatz(n, k, float(rng.random()), rng)
    elif kind == "ba":
        n = int(rng.integers(5, 101))
        m = int(rng.integers(1, 4))
        g = graph.barabasi_albert(n, m, rng)
    elif kind == "complete":
        g = graph.complete_graph(int(rng.integers(2, 40)))
    else:
        g = graph.directed_cycle(int(rng.integers(2, 101)))

    which = rng.choice(["fixed", "group", "global"])
    model = dynamics.fixed(float(rng.random())) if which == "fixed" \
        else dynamics.ModelKind(which)
    scheme = str(rng.choice(list(dynamics.SCHEMES)))
    count = int(rng.integers(1, g.n + 1))
    seeds = dynamics.seed_random(g, count, rng)
    return g, model, scheme, seeds
