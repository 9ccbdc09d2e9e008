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
The async kernel computes floor(u * n) for a whole block of doubles at once,
and both kernels keep each susceptible node's p, refreshed when one of its
in-neighbors is infected.  Neither changes which double is a pick or a
decision, or the p a decision is compared with.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, check_field_types, config_value
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
    """Initially infected nodes (non-empty, distinct, sorted integers)."""

    nodes: tuple

    def __post_init__(self):
        nodes = tuple(sorted(config_value("seed node id", "int", u)
                             for u in self.nodes))
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


def _infected_in_counts(g: Graph, infected: np.ndarray) -> np.ndarray:
    """inf_in[u] = number of infected in-neighbors of u."""
    return np.bincount(g._arc_dst[infected[g._arc_src]], minlength=g.n).astype(np.int64)


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
    kind = model.kind
    susceptible = np.flatnonzero(times < 0)  # ascending node ids
    i_count = n - susceptible.size
    if kind != "global":
        inf_in = _infected_in_counts(g, times >= 0)
        in_deg, indptr, indices = g.in_degrees, g._out_indptr, g._arc_dst
        out_deg = g.out_degrees
        if kind == "fixed":
            table = np.asarray(_fixed_prob_table(model.transmission_prob,
                                                 int(in_deg.max())))
            prob = table[inf_in]
        else:
            prob = np.zeros(n)
            np.divide(inf_in, in_deg, out=prob, where=in_deg > 0)

    while i_count < n and t < max_steps:
        if kind == "global":
            p = i_count / n
        else:
            p = prob[susceptible]
            if not p.any():
                break  # absorbing: no probability can ever become positive again
        hit = rng.random(susceptible.size) < p
        new = susceptible[hit]
        t += 1
        if new.size:
            susceptible = susceptible[~hit]
            times[new] = t
            i_count += int(new.size)
            if kind != "global":
                # one CSR gather of the new nodes' out-arcs
                counts = out_deg[new]
                arcs = np.repeat(indptr[new] - counts.cumsum() + counts, counts)
                arcs += np.arange(arcs.size)
                touched = indices[arcs]
                np.add.at(inf_in, touched, 1)
                d = inf_in[touched]
                prob[touched] = table[d] if kind == "fixed" else d / in_deg[touched]
    return t if i_count == n else max_steps


_READ_AHEAD = 4096  # doubles drawn per block by the async kernel


def _run_async(model, g, times, t, max_steps, rng):
    n = g.n
    local = model.kind != "global"
    infected = times >= 0
    i_count = int(np.count_nonzero(infected))
    limit = max_steps if i_count < n else t
    # prob[u]: susceptible u's probability (unused under global), None once infected
    prob = [0.0] * n
    if local:
        inf_in = _infected_in_counts(g, infected)
        boundary = int(inf_in[~infected].sum())  # infected -> susceptible arcs
        in_deg = g.in_degrees.tolist()
        # rows[u][d]: u's probability with d infected in-neighbors
        if model.kind == "group":
            by_deg = {deg: [d / max(deg, 1) for d in range(deg + 1)]
                      for deg in set(in_deg)}
            rows = [by_deg[deg] for deg in in_deg]
        else:
            rows = [_fixed_prob_table(model.transmission_prob, max(in_deg))] * n
        inf_in = inf_in.tolist()
        prob = [row[d] for row, d in zip(rows, inf_in)]
        indptr, flat = g._out_indptr.tolist(), g._arc_dst.tolist()
        # absorbed before the first draw; fixed(q) has p(1) = 0 iff every p is 0
        if boundary == 0 or model.kind == "fixed" and rows[0][1] == 0.0:
            limit = t
    for u in np.flatnonzero(infected).tolist():
        prob[u] = None

    bits = rng.bit_generator

    def block():  # the stream state before a block, each double's pick, the doubles
        state, u = bits.state, rng.random(_READ_AHEAD)
        return state, np.minimum((u * n).astype(np.int64), n - 1).tolist(), u.tolist()

    start, picks, buf, bi = None, [], [], 0
    # Reading past the end of a block raises IndexError, which draws the
    # next block, so the loop itself makes no length checks.
    while t < limit:
        try:
            w = picks[bi]
        except IndexError:
            (start, picks, buf), bi = block(), 0
            w = picks[0]
        bi += 1
        t += 1
        p = prob[w]
        if p is None:
            continue
        try:
            r = buf[bi]
        except IndexError:
            (start, picks, buf), bi = block(), 0
            r = buf[0]
        bi += 1
        if r < (p if local else i_count / n):
            prob[w] = None
            i_count += 1
            times[w] = t
            if i_count == n:
                break
            if local:
                boundary -= inf_in[w]
                for x in flat[indptr[w]:indptr[w + 1]]:
                    if prob[x] is not None:
                        inf_in[x] += 1
                        prob[x] = rows[x][inf_in[x]]
                        boundary += 1
                if boundary == 0:
                    break  # absorbed
    if bi < len(buf):  # hand back the doubles read ahead but not used
        bits.state = start
        rng.random(bi)
    return t if i_count == n else max_steps
