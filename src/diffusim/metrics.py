"""Spreading-time measurements over recorded trajectories.

A Trajectory is what a single run leaves behind: the infected count at each
step (counts[0] is the seed count) plus per-node infection times.  Metrics
either yield a step count (``value``) or report that the target fraction was
never reached before the trajectory ended (``censored``).  Censoring is kept
explicit all the way up to the ensemble statistics; it is never silently
swapped for the step limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """Infection history of one run.

    Attributes:
        n: Node count of the substrate graph.
        counts: Infected count per step; counts[0] counts the seeds and the
            series is non-decreasing.
        infection_time: Per-node step at which the node became infected,
            -1 for nodes still susceptible at the end.
    """

    n: int
    counts: np.ndarray
    infection_time: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        times = np.asarray(self.infection_time, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "infection_time", times)
        if counts.size == 0:
            raise ValueError("trajectory needs at least the t=0 observation")
        if times.shape != (self.n,):
            raise ValueError("infection_time must have one entry per node")
        if counts[0] < 1 or counts[-1] > self.n:
            raise ValueError("counts out of range for n")
        if np.any(np.diff(counts) < 0):
            raise ValueError("infected counts must be non-decreasing")

    @property
    def steps_executed(self) -> int:
        """Number of update steps taken (observations minus the t=0 one)."""
        return int(self.counts.size - 1)

    @property
    def final_infected(self) -> int:
        return int(self.counts[-1])


@dataclass(frozen=True)
class MetricResult:
    """Either a step count or a censoring marker.

    ``value(steps)`` means the target was reached after ``steps`` steps;
    ``censored(at)`` means the trajectory ended at step ``at`` without
    reaching it.
    """

    censored: bool
    steps: int

    @classmethod
    def value(cls, steps: int) -> "MetricResult":
        if steps < 0:
            raise ValueError("steps must be >= 0")
        return cls(censored=False, steps=int(steps))

    @classmethod
    def censored_at(cls, last_step: int) -> "MetricResult":
        return cls(censored=True, steps=int(last_step))

    def __repr__(self) -> str:
        if self.censored:
            return f"MetricResult.censored_at({self.steps})"
        return f"MetricResult.value({self.steps})"


def fraction_threshold(n: int, f: float) -> int:
    """Node count that realizes "a fraction f of the network".

    Ceiling of f*n so the threshold is a whole node count and f=1 demands
    every node.  The tiny back-off keeps exact products like 0.01*100 from
    rounding up one past the true ceiling.
    """
    if not 0.0 < f <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    return max(1, math.ceil(f * n - 1e-9))


def time_to_fraction(traj: Trajectory, f: float) -> MetricResult:
    """First step at which the infected count reaches ceil(f*n).

    Seeds count: a seed set already past the threshold yields value(0).
    Returns censored_at(last step) if the trajectory never gets there.
    """
    threshold = fraction_threshold(traj.n, f)
    # counts is non-decreasing, so the first index >= threshold is a bisect
    t = int(np.searchsorted(traj.counts, threshold, side="left"))
    if t == traj.counts.size:
        return MetricResult.censored_at(traj.steps_executed)
    return MetricResult.value(t)


def spread_time(traj: Trajectory, f_lo: float, f_hi: float) -> MetricResult:
    """Steps between reaching fraction f_lo and fraction f_hi.

    Censored whenever the upper target is censored (the lower one then is
    too, or the subtraction would be meaningless).
    """
    if not 0.0 < f_lo < f_hi <= 1.0:
        raise ValueError("fractions must satisfy 0 < f_lo < f_hi <= 1")
    lo = time_to_fraction(traj, f_lo)
    hi = time_to_fraction(traj, f_hi)
    if lo.censored or hi.censored:
        return MetricResult.censored_at(traj.steps_executed)
    return MetricResult.value(hi.steps - lo.steps)


def adoption_curve(traj: Trajectory) -> np.ndarray:
    """Infected fraction per step: counts[t]/n, same length as counts."""
    return traj.counts.astype(np.float64) / float(traj.n)


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


def evaluate_metric(traj: Trajectory, target) -> MetricResult:
    """Dispatch a metric target (f or (f_lo, f_hi)) against a trajectory."""
    if isinstance(target, (tuple, list)):
        lo, hi = target
        return spread_time(traj, float(lo), float(hi))
    return time_to_fraction(traj, float(target))
