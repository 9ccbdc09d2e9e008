"""Exact oracles for the infection process, to check the simulator's
ensemble means against.

Under the global rule every susceptible node is infected with probability
I_t / n each step, whatever the topology, so the infected count is a
one-dimensional Markov chain under either scheme.  Under the fixed and
group rules the chain runs over infected sets instead, which is small
enough to solve exactly for n <= 6.
"""
from __future__ import annotations

import itertools

import numpy as np

from diffusim.dynamics import SYNCHRONOUS


def global_count_distribution(n: int, i0: int, steps: int) -> np.ndarray:
    """Exact distribution of the synchronous global-model infected count.

    Row t holds P(I_t = i) for i = 0..n, propagated through
    I_{t+1} = I_t + Binomial(n - I_t, I_t / n).  O(steps * n^2); intended
    for desk-scale n as a test oracle.
    """
    from scipy.stats import binom

    if not 0 <= i0 <= n:
        raise ValueError("i0 must be within [0, n]")
    dist = np.zeros(n + 1)
    dist[i0] = 1.0
    out = np.empty((steps + 1, n + 1))
    out[0] = dist
    for t in range(1, steps + 1):
        nxt = np.zeros(n + 1)
        nxt[0] = dist[0]
        nxt[n] = dist[n]
        for i in range(1, n):
            mass = dist[i]
            if mass == 0.0:
                continue
            pmf = binom.pmf(np.arange(n - i + 1), n - i, i / n)
            nxt[i:] += mass * pmf
        dist = nxt
        out[t] = dist
    return out


def global_count_dp(n: int, i0: int, steps: int) -> np.ndarray:
    """E[I_t] for t = 0..steps under the exact global-count chain."""
    dist = global_count_distribution(n, i0, steps)
    return dist @ np.arange(n + 1, dtype=np.float64)


def async_global_time_to(n: int, i0: int, k: int) -> tuple:
    """Exact mean and variance of the first step with k infected under the
    async global rule, from i0 infected at step 0.

    A step picks a susceptible node with probability (n - i)/n, which then
    joins with probability i/n, so the wait from i to i + 1 infected is
    geometric with p_i = (n - i) * i / n^2.  The waits are independent:
    mean sum 1/p_i, variance sum (1 - p_i)/p_i^2, over i = i0 .. k - 1.
    """
    if not 1 <= i0 <= k <= n:
        raise ValueError("need 1 <= i0 <= k <= n")
    i = np.arange(i0, k, dtype=np.float64)
    p = (n - i) * i / n ** 2
    return float(np.sum(1.0 / p)), float(np.sum((1.0 - p) / p ** 2))


def local_time_to_all(g, model, scheme: str, seed_count: int = 1) -> tuple:
    """Exact mean and variance of ``time_to_1`` under the fixed or group
    rule on a graph of n <= 6 nodes, from ``seed_count`` seed nodes drawn
    as a uniform subset.

    The chain runs over infected sets S, with p_u(S) read off the rule's
    definition: 1 - (1 - q)^d for fixed(q), d / in-degree for group, where
    d counts u's in-neighbors in S.  Synchronous: each susceptible u joins
    independently with p_u(S).  Async: a uniformly picked node that is
    susceptible joins with p_u(S).  Sets only grow, so the moments of the
    hitting time of the full set are solved superset first.  A set that
    can never grow, short of n, is rejected: its time_to_1 is censored.
    """
    n = g.n
    if not 1 <= n <= 6 or model.kind == "global" or not 1 <= seed_count <= n:
        raise ValueError("need n <= 6, the fixed or group rule, "
                         "and 1 <= seed_count <= n")
    in_mask = [0] * n
    for v, u in g.arcs.tolist():
        in_mask[u] |= 1 << v

    def p(u, s):
        d, deg = bin(s & in_mask[u]).count("1"), bin(in_mask[u]).count("1")
        if model.kind == "fixed":
            return 1.0 - (1.0 - model.transmission_prob) ** d
        return d / deg if deg else 0.0

    full = (1 << n) - 1
    m1, m2 = {full: 0.0}, {full: 0.0}  # E[T], E[T^2] from each set
    for s in sorted(range(1, full), key=lambda s: -bin(s).count("1")):
        joins = [(1 << u, p(u, s)) for u in range(n) if not s >> u & 1]
        if scheme == SYNCHRONOUS:
            moves = {}
            for hits in itertools.product((False, True), repeat=len(joins)):
                prob, new = 1.0, s
                for hit, (bit, pu) in zip(hits, joins):
                    prob *= pu if hit else 1.0 - pu
                    new |= bit if hit else 0
                moves[new] = moves.get(new, 0.0) + prob
            stay = moves.pop(s)
        else:
            moves = {s | bit: pu / n for bit, pu in joins}
            stay = 1.0 - sum(moves.values())
        if stay >= 1.0:
            raise ValueError(f"infected set {s:#b} can never grow")
        go = 1.0 - stay
        m1[s] = (1.0 + sum(q * m1[t] for t, q in moves.items())) / go
        m2[s] = (1.0 + 2.0 * stay * m1[s]
                 + sum(q * (2.0 * m1[t] + m2[t]) for t, q in moves.items())) / go
    starts = [s for s in m1 if bin(s).count("1") == seed_count]
    mean = sum(m1[s] for s in starts) / len(starts)
    return mean, sum(m2[s] for s in starts) / len(starts) - mean ** 2
