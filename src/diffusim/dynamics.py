"""Infection state machine: per-node infection probabilities and stepping.

Three probability rules are supported for a susceptible node u:

* fixed(q):  p = 1 - (1-q)^d, where d counts u's infected in-neighbors.
  Each infected in-neighbor independently passes the infection with
  probability q; the d attempts are collapsed into one equivalent draw.
* group:     p = d / |in-neighbors of u|, and exactly 0 when u has no
  in-neighbors.
* global:    p = (total infected) / n, regardless of topology.

States are advanced with a uniform convention: the state at t+1 is computed
from the state at t.  Infection is monotone; there is no recovery.  Two
update schemes exist:

* synchronous: every susceptible node u draws r_u ~ U(0,1) in ascending
  node-id order and becomes infected iff r_u < p_u, with all p_u computed
  from the current state.
* async_single_node: one uniform draw u0 picks node w = floor(u0 * n)
  (clamped to n-1); if w is susceptible a second draw r decides infection
  by the same strict r < p rule.  t advances by 1 either way.

All draws come from an explicit numpy Generator, and ``run`` consumes the
stream in exactly the order documented above, so trajectories are
bit-reproducible from (graph, seeds, scheme, stream).
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
class StateVector:
    """Immutable infection state at one step."""

    infected: np.ndarray
    t: int
    infected_count: int

    def __post_init__(self):
        arr = np.asarray(self.infected, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "infected", arr)
        if self.infected_count != int(arr.sum()):
            raise ValueError("infected_count does not match the bit vector")

    @classmethod
    def from_seeds(cls, n: int, seed_nodes) -> "StateVector":
        arr = np.zeros(n, dtype=bool)
        arr[list(seed_nodes)] = True
        return cls(arr, 0, int(arr.sum()))

    def with_new_infections(self, nodes) -> "StateVector":
        arr = self.infected.copy()
        arr[list(nodes)] = True
        return StateVector(arr, self.t + 1, int(arr.sum()))


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


def infection_probability(model: ModelKind, g: Graph, s: StateVector, u: int) -> float:
    """Probability that susceptible node u becomes infected this step.

    Raises if u is out of range or already infected (contract violation).
    """
    u = int(u)
    if not 0 <= u < g.n:
        raise ValueError(f"node id {u} out of range [0, {g.n})")
    if s.infected[u]:
        raise ValueError(f"node {u} is already infected")
    if model.kind == "global":
        return s.infected_count / g.n
    neigh = g.in_neighbors(u)
    d = int(np.count_nonzero(s.infected[neigh]))
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


def step(model: ModelKind, g: Graph, s: StateVector, scheme: str,
         rng: np.random.Generator) -> StateVector:
    """Advance one step under the given scheme.  See the module docstring
    for the exact draw order."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown update scheme {scheme!r}")
    n = g.n
    if scheme == SYNCHRONOUS:
        susceptible = np.flatnonzero(~s.infected)
        if susceptible.size == 0:
            return StateVector(s.infected, s.t + 1, s.infected_count)
        inf_in = _infected_in_counts(g, s.infected)
        p = _sync_probs(model, n, s.infected_count, inf_in, g.in_degrees, susceptible)
        draws = rng.random(susceptible.size)
        return s.with_new_infections(susceptible[draws < p])

    u0 = rng.random()
    w = min(int(u0 * n), n - 1)
    if s.infected[w]:
        return StateVector(s.infected, s.t + 1, s.infected_count)
    r = rng.random()
    if r < infection_probability(model, g, s, w):
        return s.with_new_infections([w])
    return StateVector(s.infected, s.t + 1, s.infected_count)


def run(model: ModelKind, g: Graph, seeds: SeedSet, scheme: str,
        max_steps: int, rng: np.random.Generator) -> Trajectory:
    """Simulate until every node is infected or ``max_steps`` is reached.

    Returns the full per-step infected-count series (length steps+1, index 0
    counting the seeds) plus per-node first-infection times, -1 for nodes
    never infected.  Once no susceptible node can ever gain positive
    probability the remaining steps are skipped and the count series is
    padded with its final value; the returned trajectory is identical to one
    from stepping all the way to the cap.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown update scheme {scheme!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    n = g.n
    if seeds.nodes[-1] >= n:
        raise ValueError(f"seed node {seeds.nodes[-1]} out of range [0, {n})")

    if scheme == SYNCHRONOUS:
        counts, times = _run_synchronous(model, g, seeds, max_steps, rng)
    else:
        counts, times = _run_async(model, g, seeds, max_steps, rng)
    return Trajectory(n=n, counts=counts, infection_time=times)


def _run_synchronous(model, g, seeds, max_steps, rng):
    n = g.n
    infected = np.zeros(n, dtype=bool)
    infected[list(seeds.nodes)] = True
    times = np.full(n, -1, dtype=np.int64)
    times[list(seeds.nodes)] = 0
    inf_in = _infected_in_counts(g, infected)
    in_deg = g.in_degrees
    i_count = int(infected.sum())
    counts = [i_count]
    out_indptr = g._out_indptr
    out_indices = g._out_indices

    t = 0
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
        counts.append(i_count)

    arr = np.asarray(counts, dtype=np.int64)
    if i_count < n and arr.size < max_steps + 1:
        arr = np.concatenate([arr, np.full(max_steps + 1 - arr.size, i_count,
                                           dtype=np.int64)])
    return arr, times


def _run_async(model, g, seeds, max_steps, rng):
    n = g.n
    infected = bytearray(n)
    for v in seeds.nodes:
        infected[v] = 1
    times = [-1] * n
    for v in seeds.nodes:
        times[v] = 0
    indptr = g._out_indptr.tolist()
    flat = g._out_indices.tolist()
    in_deg = g.in_degrees.tolist()
    inf_in = [0] * n
    for v in seeds.nodes:
        for x in flat[indptr[v]:indptr[v + 1]]:
            inf_in[x] += 1
    boundary = sum(inf_in[u] for u in range(n) if not infected[u])
    i_count = len(seeds.nodes)
    kind = model.kind
    table = None
    if kind == "fixed":
        table = _fixed_prob_table(model.transmission_prob, max(in_deg, default=0))

    event_times: list = []
    buf: list = []
    bi = 0
    t = 0
    absorbed = (kind != "global" and (boundary == 0 or (
        kind == "fixed" and model.transmission_prob == 0.0)))
    while not absorbed and i_count < n and t < max_steps:
        if bi == len(buf):
            buf = rng.random(4096).tolist()
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
            buf = rng.random(4096).tolist()
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
            event_times.append(t)
            boundary -= inf_in[w]
            for x in flat[indptr[w]:indptr[w + 1]]:
                inf_in[x] += 1
                if not infected[x]:
                    boundary += 1
            if kind != "global" and boundary == 0:
                absorbed = True

    steps = t if i_count == n else max_steps
    increments = np.bincount(np.asarray(event_times, dtype=np.int64),
                             minlength=steps + 1) if event_times else \
        np.zeros(steps + 1, dtype=np.int64)
    counts = len(seeds.nodes) + np.cumsum(increments[:steps + 1])
    return counts.astype(np.int64), np.asarray(times, dtype=np.int64)
