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

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .dynamics import GLOBAL, GROUP, MODEL_KINDS
from .experiment import SimConfig, config_from_dict, run_ensemble

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
    """Ensemble-mean adoption curve for one model under a stated config."""

    model: str
    curve: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.curve, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "curve", arr)
        if arr.size < 2:
            raise ValueError("reference curve needs at least 2 points")
        if arr.min() < 0.0 or arr.max() > 1.0 + 1e-12:
            raise ValueError("reference curve must stay within [0, 1]")
        if np.any(np.diff(arr) < -1e-12):
            raise ValueError("reference curve must be non-decreasing")


def load_reference_config() -> SimConfig:
    """The packaged config that reference curves regenerate from."""
    text = resources.files("diffusim").joinpath("data/reference_config.json") \
        .read_text(encoding="utf-8")
    return config_from_dict(json.loads(text))


def build_reference_curves(config: SimConfig, workers: int = 1) -> tuple:
    """One mean adoption curve per model, all else equal.

    The supplied config must use the fixed model; its transmission
    probability parameterizes the fixed variant and the group/global
    variants reuse every other field.  Deterministic given master_seed.
    """
    if config.model.kind != "fixed":
        raise ValueError("reference config must use the fixed model so the "
                         "transmission probability is pinned")
    curves = []
    for model in (config.model, GROUP, GLOBAL):
        result = run_ensemble(replace(config, model=model), workers=workers,
                              collect_curves=True)
        curves.append(ReferenceCurve(model=model.kind,
                                     curve=result.curve.mean_fraction))
    return tuple(curves)


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


def _sse(obs: np.ndarray, curve: np.ndarray, a: float, b: float, c: float) -> float:
    x = a * np.arange(obs.size) + b
    y = np.interp(x, np.arange(curve.size), curve)  # clamps at the endpoints
    diff = obs - c * y
    return float(diff @ diff)


def _fit_one(obs: np.ndarray, curve: np.ndarray) -> tuple:
    length = curve.size
    offsets = tuple(np.linspace(-length / 4.0, length / 4.0, OFFSET_POINTS))
    best = None
    for a in TIME_SCALES:
        for b in offsets:
            for c in AMPLITUDES:
                sse = _sse(obs, curve, a, b, c)
                if best is None or sse < best[0]:
                    best = (sse, float(a), float(b), float(c))
    sse, a, b, c = best
    step_a, step_b, step_c = a / 2.0, length / 16.0, 0.125
    for _ in range(3):
        for candidate in (a - step_a, a + step_a):
            if candidate > 1e-9:
                trial = _sse(obs, curve, candidate, b, c)
                if trial < sse:
                    sse, a = trial, candidate
        for candidate in (b - step_b, b + step_b):
            trial = _sse(obs, curve, a, candidate, c)
            if trial < sse:
                sse, b = trial, candidate
        for candidate in (c - step_c, c + step_c):
            if candidate > 1e-9:
                trial = _sse(obs, curve, a, b, candidate)
                if trial < sse:
                    sse, c = trial, candidate
        step_a, step_b, step_c = step_a / 2.0, step_b / 2.0, step_c / 2.0
    return sse, a, b, c


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
    fit_input; ``refs`` is the tuple from build_reference_curves.  A
    constant series is fit anyway but flagged low_confidence.
    """
    obs = fit_input(obs)
    by_name = {ref.model: ref for ref in refs}
    if set(by_name) != set(MODEL_KINDS):
        raise ValueError("expected exactly one reference curve per model")

    table = []
    for name in MODEL_KINDS:
        sse, a, b, c = _fit_one(obs, by_name[name].curve)
        table.append(ModelFit(model=name, sse=sse, time_scale=a,
                              time_offset=b, amplitude=c))
    best = min(table, key=lambda m: (m.sse, MODEL_KINDS.index(m.model)))
    low_confidence = bool(np.all(obs == obs[0]))
    return FitResult(best_model=best.model, table=tuple(table),
                     low_confidence=low_confidence)
