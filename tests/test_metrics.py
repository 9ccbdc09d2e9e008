"""Trajectory metrics: threshold times and spread times."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import rng_for
from diffusim.metrics import (MetricResult, Trajectory, evaluate_metric,
                              fraction_threshold, metric_label, spread_time,
                              time_to_fraction)


def traj_from_counts(counts, n):
    """Build the Trajectory whose infected count per step is ``counts``
    (non-decreasing, counts[-1] <= n), giving nodes infection times in
    node-id order."""
    counts = np.asarray(counts)
    times = np.full(n, -1, dtype=np.int64)
    filled = 0
    for t, c in enumerate(counts):
        times[filled:c] = t
        filled = c
    traj = Trajectory(n=n, infection_time=times, steps_executed=counts.size - 1)
    assert traj.counts.tolist() == counts.tolist()
    return traj


class TestTrajectoryType:
    def test_rejects_time_below_minus_one(self):
        with pytest.raises(ValueError, match="within"):
            Trajectory(n=3, infection_time=[0, -2, 1], steps_executed=2)

    def test_rejects_time_after_last_step(self):
        with pytest.raises(ValueError, match="within"):
            Trajectory(n=3, infection_time=[0, 3, -1], steps_executed=2)

    def test_rejects_negative_steps_executed(self):
        with pytest.raises(ValueError, match="steps_executed"):
            Trajectory(n=2, infection_time=[-1, -1], steps_executed=-1)

    def test_rejects_wrong_infection_time_shape(self):
        with pytest.raises(ValueError, match="per node"):
            Trajectory(n=5, infection_time=np.full(4, -1), steps_executed=0)

    def test_accessors(self):
        traj = traj_from_counts([2, 5, 9], 10)
        assert traj.steps_executed == 2
        assert traj.final_infected == 9

    def test_counts_derive_from_times(self):
        traj = Trajectory(n=5, infection_time=[2, 0, -1, 2, 1], steps_executed=4)
        assert traj.counts.tolist() == [1, 2, 4, 4, 4]
        assert traj.sorted_times.tolist() == [0, 1, 2, 2]
        assert traj.final_infected == 4
        empty = Trajectory.from_seeds(4, [])  # nobody infected is a state too
        assert empty.counts.tolist() == [0] and empty.final_infected == 0
        assert time_to_fraction(empty, 0.25) == MetricResult.censored_at(0)


class TestMetricResult:
    def test_value_and_censored_forms(self):
        v = MetricResult.value(3)
        c = MetricResult.censored_at(200)
        assert not v.censored and v.steps == 3
        assert c.censored and c.steps == 200
        assert v != c

    def test_value_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricResult.value(-1)


class TestFractionThreshold:
    def test_whole_counts(self):
        assert fraction_threshold(100, 0.01) == 1
        assert fraction_threshold(100, 0.05) == 5
        assert fraction_threshold(300, 0.01) == 3
        assert fraction_threshold(100, 1.0) == 100

    def test_rounds_up_fractional_targets(self):
        assert fraction_threshold(150, 0.01) == 2  # 1.5 nodes -> 2
        assert fraction_threshold(10, 0.95) == 10

    def test_float_noise_does_not_overshoot(self):
        # 0.07 * 100 = 7.000000000000001 in binary; must stay 7
        assert fraction_threshold(100, 0.07) == 7
        assert fraction_threshold(100, 0.29) == 29
        for n in (10, 100, 1000):
            for pct in range(1, 100):
                assert fraction_threshold(n, pct / 100) == -(-pct * n // 100)

    def test_tiny_fraction_still_needs_one_node(self):
        assert fraction_threshold(100, 1e-9) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fraction_threshold(100, 0.0)
        with pytest.raises(ValueError):
            fraction_threshold(100, 1.2)


class TestTimeToFraction:
    def test_seed_set_already_past_threshold(self):
        traj = traj_from_counts([1, 5, 12, 40], 100)
        assert time_to_fraction(traj, 0.01) == MetricResult.value(0)

    def test_first_crossing_step(self):
        traj = traj_from_counts([1, 5, 12], 100)
        assert time_to_fraction(traj, 0.05) == MetricResult.value(1)

    def test_censored_when_never_reached(self):
        traj = traj_from_counts([1, 2, 3], 100)
        result = time_to_fraction(traj, 0.99)
        assert result.censored and result.steps == 2

    def test_monotone_in_fraction(self):
        rng = rng_for(20)
        for _ in range(50):
            n = int(rng.integers(10, 200))
            steps = int(rng.integers(1, 30))
            inc = rng.integers(0, 4, size=steps)
            counts = np.minimum(1 + np.concatenate([[0], np.cumsum(inc)]), n)
            traj = traj_from_counts(counts, n)
            prev = MetricResult.value(0)
            for f in (0.01, 0.1, 0.25, 0.5, 0.75, 0.99, 1.0):
                cur = time_to_fraction(traj, f)
                if prev.censored:
                    assert cur.censored  # censored dominates any value
                elif not cur.censored:
                    assert cur.steps >= prev.steps
                prev = cur


class TestSpreadTime:
    def test_difference_of_crossings(self):
        counts = np.concatenate([
            np.linspace(1, 9, 120).astype(int),       # below 1% of 1000
            np.full(400, 10),                          # crosses 1% at t=120
            np.full(100, 990),                          # crosses 99% at t=520
        ])
        traj = traj_from_counts(counts, 1000)
        assert time_to_fraction(traj, 0.01) == MetricResult.value(120)
        assert time_to_fraction(traj, 0.99) == MetricResult.value(520)
        assert spread_time(traj, 0.01, 0.99) == MetricResult.value(400)

    def test_zero_when_seeds_cover_upper_target(self):
        traj = traj_from_counts([99, 100], 100)
        assert spread_time(traj, 0.01, 0.99) == MetricResult.value(0)

    def test_censored_upper_target(self):
        traj = traj_from_counts([1, 3, 5], 100)
        result = spread_time(traj, 0.01, 0.99)
        assert result.censored and result.steps == 2

    def test_non_negative_whenever_defined(self):
        rng = rng_for(21)
        for _ in range(30):
            counts = np.minimum(1 + np.cumsum(rng.integers(0, 5, 25)), 50)
            traj = traj_from_counts(np.concatenate([[1], counts]), 50)
            result = spread_time(traj, 0.1, 0.9)
            if not result.censored:
                assert result.steps >= 0

    def test_rejects_bad_ordering(self):
        traj = traj_from_counts([1, 2], 10)
        with pytest.raises(ValueError):
            spread_time(traj, 0.9, 0.1)
        with pytest.raises(ValueError):
            spread_time(traj, 0.5, 0.5)


class TestMetricDispatch:
    def test_labels(self):
        assert metric_label(0.01) == "time_to_0.01"
        assert metric_label((0.01, 0.99)) == "spread_0.01_0.99"
        assert metric_label(0.5) == "time_to_0.5"

    def test_evaluate_routes_by_shape(self):
        traj = traj_from_counts([1, 5, 12], 100)
        assert evaluate_metric(traj, 0.05) == time_to_fraction(traj, 0.05)
        assert evaluate_metric(traj, (0.01, 0.05)) == spread_time(traj, 0.01, 0.05)
