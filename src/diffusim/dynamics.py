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
group rules, no susceptible node has a positive p; only an infection raises
a p, so such a state stays absorbed, and both kernels test this one rule.
An absorbed state draws nothing more; unless every node is infected, its
trajectory is taken to the step cap, exactly as if stepping had continued.

All draws come from an explicit numpy Generator in exactly the order
documented above, so trajectories are bit-reproducible from (graph, seeds,
scheme, stream).  A run leaves its generator just past its last draw.
``step`` is one step of the same kernel that ``run`` uses.
The async kernel draws doubles in blocks that stop at the step cap, so it
hands doubles back only when a run ends early, and computes floor(u * n)
for a whole block at once.  When a block's last double is a susceptible
node's pick, its decision is drawn alone.  Picks of nodes infected at a
block's start are skipped unseen: such a double can only be a pick that
draws no decision.  Both kernels read the fixed and group p from one
per-degree table, keep it for each susceptible node, and refresh it when
one of its in-neighbors is infected.  None of this changes which double is
a pick or a decision, or the p a decision is compared with.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _RawDraws, check_field_types, config_value
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
            raise ValueError(f"model: unknown model kind {self.kind!r}")
        check_field_types(self)
        if self.kind == "fixed":
            if self.transmission_prob is None:
                raise ValueError("transmission_prob: required by model 'fixed'")
            if not 0.0 <= self.transmission_prob <= 1.0:
                raise ValueError("transmission_prob: must be within [0, 1]")
        elif self.transmission_prob is not None:
            raise ValueError(f"transmission_prob: not applicable to model {self.kind!r}")


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


def check_seed_count(count: int, n: int | None) -> None:
    """The seed-count rule: 1 <= count <= n, where n is None while a
    ``file`` graph is not loaded yet."""
    if count < 1:
        raise ValueError("seed_count: must be >= 1")
    if n is not None and count > n:
        raise ValueError(f"seed_count: must not exceed graph n ({n})")


def seed_random(g: Graph, count: int, rng: np.random.Generator) -> SeedSet:
    """Uniform sample of ``count`` distinct nodes (partial Fisher-Yates over a
    dict of the positions a swap moved, so memory follows ``count``, not n).

    Consumes exactly ``count`` integer draws from the stream, which must be PCG64.
    """
    n = g.n
    check_seed_count(count, n)
    draws, moved, nodes = _RawDraws(rng), {}, []
    for i in range(count):
        j = i + draws.integers(n - i)
        nodes.append(moved.get(j, j))  # swap positions i and j; i is final
        moved[j] = moved.get(i, i)
    draws.close()
    return SeedSet(tuple(nodes))


def _rule_state(model: ModelKind, g: Graph, infected: np.ndarray) -> tuple:
    """The fixed or group rule as one flat table: a susceptible node u with d
    infected in-neighbors has p = table[slot[u]], where slot[u] is u's row
    start plus d.  Fixed has one row, for d = 0..max in-degree; group one per
    distinct in-degree.  Entries come from scalar arithmetic, so both kernels
    see bit-identical values."""
    in_deg = g.in_degrees
    if model.kind == "fixed":
        q = model.transmission_prob
        table = [1.0 - (1 - q) ** d for d in range(in_deg.max() + 1)]
        row = np.zeros_like(in_deg)
    else:
        degs, which = np.unique(in_deg, return_inverse=True)
        table = [d / deg if deg else 0.0 for deg in degs.tolist() for d in range(deg + 1)]
        row = (np.cumsum(degs + 1) - degs - 1)[which]
    slot = row + np.bincount(g._out_neighbors_of(np.flatnonzero(infected)), minlength=g.n)
    return np.array(table), slot


def _kernel(scheme: str):
    if scheme not in SCHEMES:
        raise ValueError(f"scheme: unknown value {scheme!r}")
    return _run_synchronous if scheme == SYNCHRONOUS else _run_async


def step(model: ModelKind, g: Graph, traj: Trajectory, scheme: str,
         rng: np.random.Generator) -> Trajectory:
    """Advance one step under the given scheme: one step of the kernel
    ``run`` uses, from ``traj.steps_executed``.  Returns a new trajectory
    one step longer; ``traj`` is left as it is.  A trajectory whose n is
    not the graph's is rejected before any draw."""
    kernel = _kernel(scheme)
    if traj.n != g.n:
        raise ValueError(f"trajectory n ({traj.n}) does not match graph n ({g.n})")
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
    if kind != "global":
        table, slot = _rule_state(model, g, times >= 0)  # u's p is table[slot[u]]
        prob = table[slot]

    while susceptible.size and t < max_steps:
        if kind == "global":
            p = (n - susceptible.size) / n
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
            if kind != "global":
                touched = g._out_neighbors_of(new)
                np.add.at(slot, touched, 1)
                prob[touched] = table[slot[touched]]
    return max_steps if susceptible.size else t


_READ_AHEAD = 4096  # doubles drawn per block by the async kernel


def _run_async(model, g, times, t, max_steps, rng):
    n = g.n
    local = model.kind != "global"
    infected = times >= 0
    # prob[u]: susceptible u's probability (0.0 under global), None once infected
    prob = [0.0] * n
    live = n - int(np.count_nonzero(infected))  # susceptible nodes with p > 0
    if local:
        table, slot = _rule_state(model, g, infected)
        live = int(np.count_nonzero(table[slot][~infected]))
        table, slot = table.tolist(), slot.tolist()
        prob = [table[s] for s in slot]  # a few shared floats, not n new ones
        indptr, flat = memoryview(g._out_indptr), memoryview(g._arc_dst)
    limit = max_steps if live else t  # absorbed before the first draw
    for u in np.flatnonzero(infected).tolist():
        prob[u] = None

    bits = rng.bit_generator
    pg = 0.0 if local else (n - live) / n  # the global rule's p; 0.0 under the others
    while t < limit:
        # A block holds no more doubles than the steps left.  A double whose
        # pick was infected at the block's start is always an infected pick,
        # so when they are most of the block only the others are walked:
        # each pick of a node then susceptible and the double after it.
        size = min(_READ_AHEAD, limit - t)
        start, u = bits.state, rng.random(size)
        picks = np.minimum((u * n).astype(np.int64), n - 1)
        at = range(size)  # the block position of each walked double
        marked = times[picks] < 0
        marked[1:] |= marked[:-1]
        if 2 * np.count_nonzero(marked) < size:
            at = np.flatnonzero(marked)
            picks, u = picks[at], u[at]
            at = at.tolist()
        after = np.append(u[1:], -1.0)  # the next walked double; -1.0 past the block
        walk = iter(picks.tolist())
        steps = zip(walk, memoryview(after))
        last, drawn, dec = len(at) - 1, size, 0
        for w, r in steps:
            p = prob[w]
            if p is None:
                continue  # an infected node's pick: one double, one step
            dec += 1
            if r < 0.0:  # the block is spent: this pick's decision is drawn alone
                r, drawn = rng.random(1)[0], drawn + 1
            if r < p + pg:
                j = at[last - walk.__length_hint__()]
                now = t + j + 2 - dec
                prob[w] = None
                live -= 1  # w's p was positive, since r < p
                times[w] = now
                if local:
                    for x in flat[indptr[w]:indptr[w + 1]]:
                        old = prob[x]
                        if old is not None:
                            slot[x] += 1
                            prob[x] = table[slot[x]]
                            live += old == 0.0  # x's p leaves 0.0; no p falls back to it
                else:  # every susceptible node is live
                    pg = (n - live) / n
                if live == 0:  # done, or absorbed
                    if j + 2 < drawn:  # hand back the doubles read ahead but not used
                        bits.state = start
                        rng.random(j + 2)
                    return now if times.min() >= 0 else max_steps
            next(steps, None)  # skip the decision: it is no pick
        t += drawn - dec
    return t if times.min() >= 0 else max_steps
