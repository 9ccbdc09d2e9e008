"""Classify an observed adoption series as fixed-, group-, or global-like.

The three model families leave different signatures in their mean adoption
curves (fraction infected over time).  An observed series is matched against
ensemble-mean reference curves by least squares under an affine time
reparameterization plus an amplitude:

    sse(model) = sum_t (obs[t] - c * curve(a*t + b))^2

with the reference curve linearly interpolated and clamped at its endpoints.
A coarse deterministic grid over (a, b, c) seeds a fixed three-pass
coordinate descent with step halving.  The best model is the smallest
refined sse; ties break in the order fixed < group < global.

Reference curves are regenerated from a shipped config rather than stored
as numbers, so the config fully defines them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import GLOBAL, GROUP, MODEL_KINDS
from .experiment import _CURVE_BLOCK, SimConfig, _execute

# The packaged config that reference curves regenerate from: fit's default --config.
REFERENCE_CONFIG = Path(__file__).with_name("data") / "reference_config.json"

# Deterministic starting lattice for the refinement: the time offsets are
# OFFSET_POINTS evenly spaced values spanning +-L/4 of the reference curve
# length L (always containing 0).
TIME_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
OFFSET_POINTS = 9
AMPLITUDES = (0.5, 0.75, 1.0)


def normalize_series(values) -> np.ndarray:
    """Scale a non-negative series by its maximum into [0, 1].

    Accepts any length >= 1; rejects an all-zero series.  (The length a fit
    needs is fit_input's rule, not this function's.)
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D series")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series must be finite")
    if np.any(arr < 0):
        raise ValueError("series must be non-negative")
    peak = arr.max()
    if peak == 0:
        raise ValueError("series is all zero")
    return arr / peak


@dataclass(frozen=True)
class ReferenceCurve:
    """Ensemble-mean adoption curve for one model under a stated config:
    finite, 1-D with at least 2 points, within [0, 1] and non-decreasing."""

    model: str
    curve: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.curve, dtype=np.float64).view()  # not the caller's array
        arr.setflags(write=False)
        object.__setattr__(self, "curve", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("reference curve must be finite")
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("reference curve needs a 1-D array of at least 2 points")
        if arr.min() < 0.0 or arr.max() > 1.0 + 1e-12:
            raise ValueError("reference curve must stay within [0, 1]")
        if any(np.any(np.diff(arr[lo:lo + _CURVE_BLOCK + 1]) < -1e-12)  # blocks share a step
               for lo in range(0, arr.size - 1, _CURVE_BLOCK)):
            raise ValueError("reference curve must be non-decreasing")


def build_reference_curves(config: SimConfig, workers: int = 1):
    """One mean adoption curve per model, all else equal, deterministic given
    master_seed.  The config must use the fixed model, which pins the
    transmission probability; group and global reuse every other field.  The
    three ensembles are one call of experiment's executor, so each run's graph
    is built once for all three.  Every run is done, and the first failure in
    model order raised, before this returns an iterator of the curves in model
    order; each mean is made from its runs' times only when the iterator reaches it.
    """
    if config.model.kind != "fixed":
        raise ValueError("reference config must use the fixed model so the "
                         "transmission probability is pinned")
    models = (config.model, GROUP, GLOBAL)
    results = dict(_execute([replace(config, model=m) for m in models], workers, True))
    for _, result in sorted(results.items()):
        if isinstance(result, Exception):
            raise result
    if results[0].curve.horizon == 1:  # every node a seed: each run ends at step 0
        raise ValueError(f"seed_count: must be below graph n ({results[0].n}) "
                         "for a reference curve")
    return (ReferenceCurve(model=m.kind, curve=results.pop(position).curve.mean_fraction)
            for position, m in enumerate(models))


@dataclass(frozen=True)
class ModelFit:
    model: str
    sse: float
    time_scale: float
    time_offset: float
    amplitude: float


@dataclass(frozen=True)
class FitResult:
    """Per-model refined fits; ``best_model`` names the table row with the
    minimal sse."""

    best_model: str
    table: tuple  # ModelFit per reference curve, in fixed<group<global order
    low_confidence: bool = False


def _interp(x: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """np.interp(x, np.arange(curve.size), curve) by its steps, byte for byte, without the grid."""
    last = curve.size - 1
    x = np.clip(x, 0.0, last)
    k = np.minimum(x.astype(np.intp), last - 1)  # floor, as x >= 0
    return np.where(x == last, curve[last], (curve[k + 1] - curve[k]) * (x - k) + curve[k])


def _fit_one(obs: np.ndarray, curve: np.ndarray) -> tuple:
    length = curve.size
    t = np.arange(obs.size)

    def _sse(a, b, c):  # np.sum, not BLAS: no CPU kernel or thread count moves it
        diff = obs - c * _interp(a * t + b, curve)
        return float(np.sum(diff * diff))

    offsets = np.linspace(-length / 4.0, length / 4.0, OFFSET_POINTS)
    # x = [a, b, c]; each axis ascends, so a tie goes to the first lattice point
    sse, *x = min((_sse(a, b, c), float(a), float(b), float(c))
                  for a in TIME_SCALES for b in offsets for c in AMPLITUDES)
    steps = [x[0] / 2.0, length / 16.0, 0.125]
    for _ in range(3):
        for i, step in enumerate(steps):  # a, then b, then c
            for candidate in (x[i] - step, x[i] + step):
                if i == 1 or candidate > 1e-9:  # a and c stay positive
                    trial = _sse(*x[:i], candidate, *x[i + 1:])
                    if trial < sse:
                        sse, x[i] = trial, candidate
        steps = [step / 2.0 for step in steps]
    return (sse, *x)


def fit_input(values) -> np.ndarray:
    """``values`` as float64, checked by fit_series's rule: 1-D, at least 8
    points, all finite.  Apply it before building reference curves."""
    obs = np.asarray(values, dtype=np.float64)
    if obs.ndim != 1 or obs.size < 8:
        raise ValueError("fit needs a 1-D series of at least 8 points")
    if not np.all(np.isfinite(obs)):
        raise ValueError("fit needs finite values")
    return obs


def fit_series(obs, refs) -> FitResult:
    """Fit a normalized observed series against the reference curves.

    ``obs`` is a normalized series (see normalize_series) that passes
    fit_input; ``refs`` is any iterable of ReferenceCurve, one per model,
    each fitted as it arrives.  A constant series is fit anyway but
    flagged low_confidence.
    """
    obs = fit_input(obs)
    table = []
    for ref in refs:  # dropped before the next is drawn
        table.append(ModelFit(ref.model, *_fit_one(obs, ref.curve)))
        del ref
    if sorted(m.model for m in table) != sorted(MODEL_KINDS):
        raise ValueError("expected exactly one reference curve per model")
    table.sort(key=lambda m: MODEL_KINDS.index(m.model))
    best = min(table, key=lambda m: m.sse)  # the first of equals: fixed, then group
    return FitResult(best_model=best.model, table=tuple(table),
                     low_confidence=bool(np.all(obs == obs[0])))
