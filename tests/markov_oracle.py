"""Exact oracles for the global-model count process.

Under the global rule every susceptible node is infected with probability
I_t / n each step, whatever the topology, so the infected count is a
one-dimensional Markov chain under either scheme.  Its exact law checks the
simulator's ensemble means in the tests.
"""
from __future__ import annotations

import numpy as np


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
