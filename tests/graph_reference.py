"""Reference copy of the Barabási-Albert builder, kept as its stream contract.

``barabasi_albert`` is the list-based builder the package shipped before
its endpoints moved into one int64 array: a list of edge tuples beside a
list of endpoints, one scalar ``rng.integers`` per pick.  The production
builder must give the same arcs and leave the generator in the same state,
the cached 32-bit half included.
"""
from __future__ import annotations

import numpy as np

from diffusim.graph import Graph


def barabasi_albert(n: int, m_attach: int, rng: np.random.Generator,
                    m0: int | None = None) -> Graph:
    """Growth from an m0-clique; each new node takes m_attach distinct
    targets drawn uniformly from the endpoint list (degree-weighted), with
    the smallest unused node as the fallback when the list is empty or
    after 1,000 picks."""
    if m0 is None:
        m0 = m_attach
    edges = [(a, b) for a in range(m0) for b in range(a + 1, m0)]
    endpoints = [v for e in edges for v in e]
    for v in range(m0, n):
        targets = set()
        attempts = 0
        while len(targets) < m_attach:
            if endpoints and attempts < 1000:
                t = endpoints[int(rng.integers(len(endpoints)))]
                attempts += 1
            else:
                t = next(x for x in range(v) if x not in targets)
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v))
            endpoints.extend((t, v))
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return Graph(n, np.concatenate([pairs, pairs[:, ::-1]]))
