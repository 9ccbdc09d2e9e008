"""Spreading-time measurements over recorded trajectories.

A Trajectory is what a single run leaves behind: per-node infection times
plus the step the run ended at.  Metrics either yield a step count or
``None``: the target fraction was never reached before the trajectory ended
(censored).  Censoring is kept explicit all the way up to the ensemble
statistics; it is never silently swapped for the step limit.

A metric target is a fraction f, 0 < f <= 1, or a pair of exactly two
fractions, 0 < lo < hi <= 1.  metric_target states this rule once, and
SimConfig, time_to_fraction and spread_time apply it with its messages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import config_value


@dataclass(frozen=True)
class Trajectory:
    """Infection history of one run.

    Infection is monotone, so the per-node infection times and the last
    step describe the whole run.

    Attributes:
        n: Node count of the substrate graph.
        infection_time: Per-node step at which the node became infected
            (0 for seeds), -1 for nodes still susceptible at the end.
        steps_executed: Number of update steps taken.
    """

    n: int
    infection_time: np.ndarray = field(repr=False)
    steps_executed: int

    def __post_init__(self):
        times = np.asarray(self.infection_time, dtype=np.int64)
        object.__setattr__(self, "infection_time", times)
        if self.steps_executed < 0:
            raise ValueError("steps_executed must be >= 0")
        if times.shape != (self.n,):
            raise ValueError("infection_time must have one entry per node")
        if times.size and (times.min() < -1 or times.max() > self.steps_executed):
            raise ValueError("infection times must lie within [-1, steps_executed]")

    @classmethod
    def from_seeds(cls, n: int, nodes) -> "Trajectory":
        """The state at step 0: ``nodes`` infected, possibly none."""
        times = np.full(n, -1, dtype=np.int64)
        times[list(nodes)] = 0
        return cls(n=n, infection_time=times, steps_executed=0)

    @cached_property
    def sorted_times(self) -> np.ndarray:
        """Infection times of the infected nodes, ascending."""
        times = self.infection_time
        return np.sort(times[times >= 0])

    @property
    def counts(self) -> np.ndarray:
        """Infected count per step, t = 0..steps_executed, built on each
        read; counts[0] counts the seeds."""
        times = self.infection_time
        return np.cumsum(np.bincount(times[times >= 0],
                                     minlength=self.steps_executed + 1))

    @property
    def final_infected(self) -> int:
        return int(np.count_nonzero(self.infection_time >= 0))


def metric_target(target):
    """``target`` checked as the rule above states; a pair comes back a tuple."""
    if isinstance(target, (tuple, list)):
        if len(target) != 2:
            raise ValueError(f"metrics: spread pair {list(target)} "
                             "needs exactly two fractions")
        lo, hi = (config_value("metrics", "float", f) for f in target)
        if not 0.0 < lo < hi <= 1.0:
            raise ValueError(f"metrics: bad spread pair ({lo}, {hi})")
        return lo, hi
    f = config_value("metrics", "float", target)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"metrics: fraction {f} outside (0, 1]")
    return f


def fraction_threshold(n: int, f: float) -> int:
    """Node count that realizes "a fraction f of the network".

    Ceiling of f*n so the threshold is a whole node count and f=1 demands
    every node.  The tiny back-off keeps exact products like 0.01*100 from
    rounding up one past the true ceiling.
    """
    return max(1, math.ceil(metric_target(f) * n - 1e-9))


def time_to_fraction(traj: Trajectory, f: float) -> int | None:
    """First step at which the infected count reaches ceil(f*n): the
    ceil(f*n)-th smallest infection time.

    Seeds count: a seed set already past the threshold yields 0.
    Returns None (censored) if the trajectory never gets there.
    """
    threshold = fraction_threshold(traj.n, f)
    times = traj.sorted_times
    return None if threshold > times.size else int(times[threshold - 1])


def spread_time(traj: Trajectory, f_lo: float, f_hi: float) -> int | None:
    """Steps between reaching fraction f_lo and fraction f_hi.

    None (censored) exactly when f_hi is never reached.  fraction_threshold
    is monotone in f, so f_lo is reached whenever f_hi is.
    """
    f_lo, f_hi = metric_target((f_lo, f_hi))
    hi = time_to_fraction(traj, f_hi)
    return None if hi is None else hi - time_to_fraction(traj, f_lo)


def metric_label(target) -> str:
    """Column-friendly name for a metric target.

    A bare fraction f labels as ``time_to_<f>``; a (f_lo, f_hi) pair labels
    as ``spread_<f_lo>_<f_hi>``.  Fractions are rendered with ``:g`` (six
    significant digits), so distinct targets can share a label; SimConfig
    rejects such a pair.
    """
    if isinstance(target, (tuple, list)):
        lo, hi = target
        return f"spread_{float(lo):g}_{float(hi):g}"
    return f"time_to_{float(target):g}"


def evaluate_metric(traj: Trajectory, target) -> int | None:
    """Dispatch a metric target (f or (f_lo, f_hi)) against a trajectory."""
    if isinstance(target, (tuple, list)):
        lo, hi = target
        return spread_time(traj, lo, hi)
    return time_to_fraction(traj, target)
