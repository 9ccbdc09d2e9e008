"""Reference copies of the two run kernels, kept as the stream contract,
and the per-node infection probability written out from its definition.

``run_synchronous`` and ``run_async`` are the straightforward kernels the
package shipped before its kernels were tuned: one slice per newly
infected node, probabilities recomputed from the infected in-neighbour
counts at every decision.  The production kernels must consume the same
doubles in the same order and leave the same infection times, end step and
stream position.  Both take ``(model, g, times, t, max_steps, rng)``,
advance ``times`` in place and return the end step.
"""
from __future__ import annotations

import numpy as np

from diffusim.dynamics import ModelKind
from diffusim.graph import Graph
from diffusim.metrics import Trajectory


def _fixed_prob_table(transmission_prob: float, max_degree: int) -> list:
    q = 1.0 - transmission_prob
    return [1.0 - q ** d for d in range(max_degree + 1)]


def infection_probability(model: ModelKind, g: Graph, traj: Trajectory,
                          u: int) -> float:
    """Probability that susceptible node u becomes infected in the step
    after ``traj``'s last one.

    Raises if u is out of range or already infected (contract violation).
    """
    u = int(u)
    if not 0 <= u < g.n:
        raise ValueError(f"node id {u} out of range [0, {g.n})")
    infected = traj.infection_time >= 0
    if infected[u]:
        raise ValueError(f"node {u} is already infected")
    if model.kind == "global":
        return int(np.count_nonzero(infected)) / g.n
    neigh = g.in_neighbors(u)
    d = int(np.count_nonzero(infected[neigh]))
    if model.kind == "group":
        return d / neigh.size if neigh.size else 0.0
    return 1.0 - (1.0 - model.transmission_prob) ** d


def _sync_probs(model: ModelKind, n: int, infected_count: int,
                inf_in: np.ndarray, in_deg: np.ndarray,
                susceptible: np.ndarray) -> np.ndarray:
    """Vectorized probabilities for the susceptible nodes, ascending order."""
    if model.kind == "global":
        return np.full(susceptible.size, infected_count / n)
    d = inf_in[susceptible]
    if model.kind == "group":
        deg = in_deg[susceptible]
        p = np.zeros(susceptible.size)
        np.divide(d, deg, out=p, where=deg > 0)
        return p
    table = np.asarray(_fixed_prob_table(model.transmission_prob, int(d.max(initial=0))))
    return table[d]


def _infected_in_counts(g: Graph, infected: np.ndarray) -> np.ndarray:
    """inf_in[u] = number of infected in-neighbors of u."""
    src = g.arcs[:, 0]
    dst = g.arcs[:, 1]
    mask = infected[src]
    return np.bincount(dst[mask], minlength=g.n).astype(np.int64)


def run_synchronous(model, g, times, t, max_steps, rng):
    n = g.n
    infected = times >= 0
    inf_in = _infected_in_counts(g, infected)
    in_deg = g.in_degrees
    i_count = int(np.count_nonzero(infected))
    out_indptr = g._out_indptr
    out_indices = g._arc_dst

    while i_count < n and t < max_steps:
        susceptible = np.flatnonzero(~infected)
        p = _sync_probs(model, n, i_count, inf_in, in_deg, susceptible)
        if model.kind != "global" and not np.any(p > 0.0):
            break  # absorbing: no probability can ever become positive again
        draws = rng.random(susceptible.size)
        new = susceptible[draws < p]
        t += 1
        if new.size:
            infected[new] = True
            times[new] = t
            i_count += int(new.size)
            touched = np.concatenate(
                [out_indices[out_indptr[v]:out_indptr[v + 1]] for v in new])
            if touched.size:
                inf_in += np.bincount(touched, minlength=n)
    return t if i_count == n else max_steps


_READ_AHEAD = 4096  # doubles drawn per block by the async kernel


def run_async(model, g, times, t, max_steps, rng):
    n = g.n
    infected_mask = times >= 0
    infected = bytearray(infected_mask.tobytes())
    i_count = int(np.count_nonzero(infected_mask))
    indptr = g._out_indptr.tolist()
    flat = g._arc_dst.tolist()
    in_deg = g.in_degrees.tolist()
    inf_in_arr = _infected_in_counts(g, infected_mask)
    boundary = int(inf_in_arr[~infected_mask].sum())
    inf_in = inf_in_arr.tolist()
    kind = model.kind
    table = None
    if kind == "fixed":
        table = _fixed_prob_table(model.transmission_prob, max(in_deg, default=0))

    bits = rng.bit_generator
    start = None  # stream state before the current block was drawn
    buf: list = []
    bi = 0
    absorbed = (kind != "global" and (boundary == 0 or (
        kind == "fixed" and model.transmission_prob == 0.0)))
    while not absorbed and i_count < n and t < max_steps:
        if bi == len(buf):
            start = bits.state
            buf = rng.random(_READ_AHEAD).tolist()
            bi = 0
        u0 = buf[bi]
        bi += 1
        w = int(u0 * n)
        if w == n:
            w = n - 1
        t += 1
        if infected[w]:
            continue
        if bi == len(buf):
            start = bits.state
            buf = rng.random(_READ_AHEAD).tolist()
            bi = 0
        r = buf[bi]
        bi += 1
        if kind == "group":
            deg = in_deg[w]
            p = inf_in[w] / deg if deg else 0.0
        elif kind == "fixed":
            p = table[inf_in[w]]
        else:
            p = i_count / n
        if r < p:
            infected[w] = 1
            i_count += 1
            times[w] = t
            boundary -= inf_in[w]
            for x in flat[indptr[w]:indptr[w + 1]]:
                inf_in[x] += 1
                if not infected[x]:
                    boundary += 1
            if kind != "global" and boundary == 0:
                absorbed = True
    if bi < len(buf):  # hand back the doubles read ahead but not used
        bits.state = start
        rng.random(bi)
    return t if i_count == n else max_steps


KERNELS = {"synchronous": run_synchronous, "async_single_node": run_async}
