"""Spreading-time measurements over recorded trajectories.

A Trajectory is what a single run leaves behind: per-node infection times
plus the step the run ended at.  Metrics either yield a step count
(``value``) or report that the target fraction was never reached before the
trajectory ended (``censored``).  Censoring is kept explicit all the way up
to the ensemble statistics; it is never silently swapped for the step
limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


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
    """First step at which the infected count reaches ceil(f*n): the
    ceil(f*n)-th smallest infection time.

    Seeds count: a seed set already past the threshold yields value(0).
    Returns censored_at(last step) if the trajectory never gets there.
    """
    threshold = fraction_threshold(traj.n, f)
    times = traj.sorted_times
    if threshold > times.size:
        return MetricResult.censored_at(traj.steps_executed)
    return MetricResult.value(times[threshold - 1])


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
