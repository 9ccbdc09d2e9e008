"""Infection state machine: per-node infection probabilities and stepping.

Three probability rules are supported for a susceptible node u:

* fixed(q):  p = 1 - (1-q)^d, where d counts u's infected in-neighbors.
  Each infected in-neighbor independently passes the infection with
  probability q; the d attempts are collapsed into one equivalent draw.
* group:     p = d / |in-neighbors of u|, and exactly 0 when u has no
  in-neighbors.
* global:    p = (total infected) / n, regardless of topology.

Infection is monotone; there is no recovery, so a state is a Trajectory:
per-node infection times (-1 while susceptible) and the step reached.  The
state at t+1 is computed from the state at t.  Two update schemes exist,
each implemented by one kernel that advances the infection times in place:

* synchronous: every susceptible node u draws r_u ~ U(0,1) in ascending
  node-id order and becomes infected iff r_u < p_u, with all p_u computed
  from the current state.
* async_single_node: one uniform draw u0 picks node w = floor(u0 * n)
  (clamped to n-1); if w is susceptible a second draw r decides infection
  by the same strict r < p rule.  t advances by 1 either way.

A state is absorbed once every node is infected or, under the fixed and
group rules, no susceptible node can ever gain positive probability.  An
absorbed state draws nothing more; unless every node is infected, its
trajectory is taken to the step cap, exactly as if stepping had continued.

All draws come from an explicit numpy Generator in exactly the order
documented above, so trajectories are bit-reproducible from (graph, seeds,
scheme, stream).  A run leaves its generator just past its last draw.
``step`` is one step of the same kernel that ``run`` uses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, check_field_types
from .metrics import Trajectory

SYNCHRONOUS = "synchronous"
ASYNC_SINGLE_NODE = "async_single_node"
SCHEMES = (SYNCHRONOUS, ASYNC_SINGLE_NODE)

MODEL_KINDS = ("fixed", "group", "global")


@dataclass(frozen=True)
class ModelKind:
    """Infection rule tag; ``transmission_prob`` only applies to fixed.

    In a config document the kind is the ``model`` key.
    """

    kind: str = field(metadata={"key": "model"})
    transmission_prob: float | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        check_field_types(self)
        if self.kind == "fixed":
            if self.transmission_prob is None:
                raise ValueError("fixed model requires transmission_prob")
            if not 0.0 <= self.transmission_prob <= 1.0:
                raise ValueError("transmission_prob must be within [0, 1]")
        elif self.transmission_prob is not None:
            raise ValueError(f"{self.kind} model takes no transmission_prob")


GROUP = ModelKind("group")
GLOBAL = ModelKind("global")


def fixed(transmission_prob: float) -> ModelKind:
    """Fixed-threshold model: each infected in-neighbor transmits i.i.d."""
    return ModelKind("fixed", transmission_prob)


@dataclass(frozen=True)
class SeedSet:
    """Initially infected nodes (non-empty, distinct, sorted)."""

    nodes: tuple

    def __post_init__(self):
        nodes = tuple(sorted(int(u) for u in self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ValueError("seed set must be non-empty")
        if len(set(nodes)) != len(nodes):
            raise ValueError("seed set has duplicate nodes")
        if nodes[0] < 0:
            raise ValueError("seed node ids must be >= 0")


def seed_random(g: Graph, count: int, rng: np.random.Generator) -> SeedSet:
    """Uniform sample of ``count`` distinct nodes (partial Fisher-Yates).

    Consumes exactly ``count`` integer draws from the stream.
    """
    n = g.n
    if not 1 <= count <= n:
        raise ValueError(f"seed count must be within [1, {n}]")
    pool = list(range(n))
    for i in range(count):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return SeedSet(tuple(pool[:count]))


def _fixed_prob_table(transmission_prob: float, max_degree: int) -> list:
    """p(d) = 1 - (1-q)^d for d = 0..max_degree, built with scalar arithmetic
    so every code path sees bit-identical values."""
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


def _kernel(scheme: str):
    if scheme == SYNCHRONOUS:
        return _run_synchronous
    if scheme == ASYNC_SINGLE_NODE:
        return _run_async
    raise ValueError(f"unknown update scheme {scheme!r}")


def step(model: ModelKind, g: Graph, traj: Trajectory, scheme: str,
         rng: np.random.Generator) -> Trajectory:
    """Advance one step under the given scheme: one step of the kernel
    ``run`` uses, from ``traj.steps_executed``.  Returns a new trajectory
    one step longer; ``traj`` is left as it is."""
    kernel = _kernel(scheme)
    times = traj.infection_time.copy()
    t = traj.steps_executed
    kernel(model, g, times, t, t + 1, rng)
    return Trajectory(n=g.n, infection_time=times, steps_executed=t + 1)


def run(model: ModelKind, g: Graph, seeds: SeedSet, scheme: str,
        max_steps: int, rng: np.random.Generator) -> Trajectory:
    """Simulate until every node is infected or ``max_steps`` is reached.

    Returns the per-node first-infection times (0 for seeds, -1 for nodes
    never infected) and the last step: the step of the last infection when
    every node is infected, else ``max_steps``.  An absorbed run stops
    drawing at once but still ends at ``max_steps``, identical to stepping
    all the way to the cap.
    """
    kernel = _kernel(scheme)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    n = g.n
    if seeds.nodes[-1] >= n:
        raise ValueError(f"seed node {seeds.nodes[-1]} out of range [0, {n})")
    times = Trajectory.from_seeds(n, seeds.nodes).infection_time
    end = kernel(model, g, times, 0, max_steps, rng)
    return Trajectory(n=n, infection_time=times, steps_executed=end)


# Each kernel advances ``times`` in place from step t toward max_steps and
# returns the last step: the step of the last infection when every node is
# infected, else max_steps.


def _run_synchronous(model, g, times, t, max_steps, rng):
    n = g.n
    infected = times >= 0
    inf_in = _infected_in_counts(g, infected)
    in_deg = g.in_degrees
    i_count = int(np.count_nonzero(infected))
    out_indptr = g._out_indptr
    out_indices = g._out_indices

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


def _run_async(model, g, times, t, max_steps, rng):
    n = g.n
    infected_mask = times >= 0
    infected = bytearray(infected_mask.tobytes())
    i_count = int(np.count_nonzero(infected_mask))
    indptr = g._out_indptr.tolist()
    flat = g._out_indices.tolist()
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
