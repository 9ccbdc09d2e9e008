"""Exact laws of the kernels that hold at any n.

Under synchronous fixed(1.0) every decision passes (r < 1), so a node is
infected on the step after its first in-neighbour is: its infection time is
its BFS distance along out-arcs from the seed set, or -1 when it is past the
cap or cannot be reached.  ``steps_executed`` is the largest distance when
every node is reached, else the cap.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import rng_for
from diffusim import dynamics
from diffusim.experiment import MAX_STEPS_PER_NODE
from diffusim.graph import (barabasi_albert, complete_graph, load_edge_list,
                            save_edge_list, watts_strogatz)

GRAPHS = ("ws", "ba", "ws-file", "complete")
CAPS = (1, 5, None)  # None: the default cap, MAX_STEPS_PER_NODE * n
SEED_COUNTS = (1, 8)


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    ws = watts_strogatz(100_000, 10, 0.05, rng_for(150))
    path = tmp_path_factory.mktemp("laws") / "ws.edges"
    with path.open("w", encoding="utf-8") as handle:
        save_edge_list(watts_strogatz(100_000, 10, 0.05, rng_for(151)), handle)
    return {"ws": ws, "ba": barabasi_albert(100_000, 3, rng_for(152)),
            "ws-file": load_edge_list(path), "complete": complete_graph(500)}


def bfs_distances(g, seeds) -> np.ndarray:
    """Each node's out-BFS distance from ``seeds``, -1 where it is unreachable."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.asarray(seeds, dtype=np.int64)
    dist[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        reached = g._out_neighbors_of(frontier)
        frontier = np.unique(reached[dist[reached] < 0])
        dist[frontier] = depth
    return dist


@pytest.fixture(scope="module")
def seeded(graphs):
    """(graph, seeds, BFS distances) per graph name and seed count."""
    out = {}
    for i, (name, g) in enumerate(graphs.items()):
        for count in SEED_COUNTS:
            seeds = dynamics.seed_random(g, count, rng_for(160 + 2 * i + count))
            out[name, count] = g, seeds, bfs_distances(g, seeds.nodes)
    return out


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("count", SEED_COUNTS)
@pytest.mark.parametrize("name", GRAPHS)
def test_sync_fixed_one_infects_at_bfs_distance(seeded, name, count, cap):
    g, seeds, dist = seeded[name, count]
    cap = cap or MAX_STEPS_PER_NODE * g.n
    traj = dynamics.run(dynamics.fixed(1.0), g, seeds, dynamics.SYNCHRONOUS, cap,
                        rng_for(170 + count))
    expected = np.where(dist <= cap, dist, -1)
    assert np.array_equal(traj.infection_time, expected)
    every = bool(np.all(expected >= 0))
    assert traj.steps_executed == (int(dist.max()) if every else cap)


def test_the_uncapped_cases_reach_every_node_in_a_few_steps(seeded):
    # so the caps of 1 and 5 cut most of these runs short
    for (name, _), (g, _, dist) in seeded.items():
        assert dist.min() == 0 and 1 <= dist.max() <= 20, name
        assert (dist.max() > 5) == (name != "complete"), name
