"""Series normalization, reference curves, and model classification."""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import diffusim
from diffusim import curvefit, dynamics, experiment
from diffusim.dynamics import GLOBAL, GROUP, fixed
from diffusim.experiment import config_to_dict, config_from_dict, run_ensemble
from diffusim.graph import directed_cycle, save_edge_list
from diffusim.cli import parse_config
from diffusim.curvefit import (REFERENCE_CONFIG, ReferenceCurve,
                               build_reference_curves, fit_series,
                               normalize_series)
from test_golden import _fit_csv


@pytest.fixture(scope="module")
def reference_config():
    return parse_config(REFERENCE_CONFIG)


@pytest.fixture(scope="module")
def refs(reference_config):
    return tuple(build_reference_curves(reference_config))


class TestNormalizeSeries:
    def test_scales_by_maximum(self):
        assert np.array_equal(normalize_series([0, 5, 10]), [0.0, 0.5, 1.0])

    def test_constant_series_becomes_ones(self):
        assert np.array_equal(normalize_series([3, 3, 3]), [1.0, 1.0, 1.0])

    def test_rejections(self):
        with pytest.raises(ValueError, match="zero"):
            normalize_series([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            normalize_series([1.0, -0.5])
        with pytest.raises(ValueError, match="finite"):
            normalize_series([1.0, np.nan])
        with pytest.raises(ValueError, match="1-D"):
            normalize_series([[1.0, 2.0]])
        with pytest.raises(ValueError, match="non-empty"):
            normalize_series([])


class TestReferenceCurve:
    def test_valid_curve_is_read_only(self):
        ref = ReferenceCurve("fixed", np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            ref.curve[0] = 0.5

    def test_the_callers_array_stays_writable(self):
        values = np.linspace(0, 1, 5)
        ref = ReferenceCurve("fixed", values)
        values[0] = 0.5  # raised "assignment destination is read-only" once
        assert values.flags.writeable and not ref.curve.flags.writeable

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least 2"):
            ReferenceCurve("fixed", np.array([0.5]))
        with pytest.raises(ValueError, match="within"):
            ReferenceCurve("fixed", np.array([0.0, 1.5]))
        with pytest.raises(ValueError, match="non-decreasing"):
            ReferenceCurve("fixed", np.array([0.5, 0.2, 0.9]))

    @pytest.mark.parametrize("drop", [1, 2, 3])
    def test_a_drop_at_a_block_edge_is_rejected(self, drop):
        # the order check runs over blocks; a drop between two of them counts
        block = curvefit._CURVE_BLOCK
        values = np.linspace(0.0, 1.0, 2 * block + 2)
        ReferenceCurve("fixed", values)
        values[block + drop - 2] = values[block + drop - 1]
        values[block + drop - 1] -= 1e-9
        with pytest.raises(ValueError, match="non-decreasing"):
            ReferenceCurve("fixed", values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN fails every comparison, so the range and order checks miss it
        with pytest.raises(ValueError, match="^reference curve must be finite$"):
            ReferenceCurve("fixed", [0.0, bad, 1.0])

    def test_two_dimensional_curve_rejected(self):
        # each row would pass the range and order checks; the fit interpolates 1-D
        with pytest.raises(ValueError, match="^reference curve needs a 1-D array "
                                             "of at least 2 points$"):
            ReferenceCurve("fixed", [[0.0, 0.5], [0.5, 1.0]])


class TestReferenceBuild:
    def test_packaged_config_shape(self, reference_config):
        assert reference_config.model.kind == "fixed"
        assert reference_config.runs >= 10
        assert reference_config.graph.n >= 50

    def test_one_curve_per_model_in_order(self, refs):
        assert [r.model for r in refs] == ["fixed", "group", "global"]

    def test_curves_start_at_seed_fraction_and_complete(self, refs,
                                                        reference_config):
        seed_fraction = reference_config.seed_count / reference_config.graph.n
        for ref in refs:
            assert ref.curve[0] == pytest.approx(seed_fraction)
            assert ref.curve[-1] == 1.0
            assert np.all(np.diff(ref.curve) >= 0)

    def test_rebuild_is_byte_identical(self, refs, reference_config):
        again = build_reference_curves(reference_config)
        for first, second in zip(refs, again):
            assert first.curve.tobytes() == second.curve.tobytes()

    def test_curves_are_pairwise_separated(self, refs):
        def padded_gap(x, y):
            width = max(x.size, y.size)
            pad = lambda c: np.concatenate([c, np.full(width - c.size, c[-1])])
            return float(np.abs(pad(x) - pad(y)).max())

        by = {r.model: r.curve for r in refs}
        assert padded_gap(by["fixed"], by["group"]) >= 0.4
        assert padded_gap(by["fixed"], by["global"]) >= 0.35
        assert padded_gap(by["group"], by["global"]) >= 0.15

    def test_each_run_builds_one_graph_for_all_three_models(self, reference_config,
                                                            built_graphs):
        build_reference_curves(reference_config)
        assert len(built_graphs) == reference_config.runs == 30

    @pytest.mark.parametrize("workers", [1, 2])
    def test_curves_match_three_separate_ensembles(self, reference_config, workers):
        refs = build_reference_curves(reference_config, workers=workers)
        for ref, model in zip(refs, (reference_config.model, GROUP, GLOBAL), strict=True):
            alone = run_ensemble(replace(reference_config, model=model),
                                 workers=workers, collect_curves=True)
            assert ref.model == model.kind
            assert ref.curve.tobytes() == alone.curve.mean_fraction.tobytes()

    @staticmethod
    def traced_peak(config) -> tuple:
        tracemalloc.start()
        try:
            refs = tuple(build_reference_curves(config))  # all three held, as before
            return tracemalloc.get_traced_memory()[1], refs
        finally:
            tracemalloc.stop()

    def test_reference_build_holds_under_9_bytes_per_run_node(self, reference_config, refs):
        # ``refs`` built once before, so neither traced build makes one-off
        # imports.  The difference of two builds leaves out the graph and kernels;
        # each run keeps its infection times, here 2 bytes a node (int64 took
        # 8, and the build then rose 12.5 bytes per run and node)
        few, _ = self.traced_peak(replace(reference_config, runs=10))
        many, _ = self.traced_peak(reference_config)
        run_nodes = 3 * (reference_config.runs - 10) * reference_config.graph.n
        assert many - few < 9 * run_nodes

    def test_reference_build_holds_under_10_bytes_per_step(self, reference_config, refs):
        # ``refs`` built once before, so the traced build makes no one-off
        # imports.  fixed(0.0) spreads to no one, so its curve runs to the cap:
        # what the build holds is each curve's float64 mean, 8 bytes a step,
        # plus its runs' infection times (8.9 bytes a step in all)
        config = replace(reference_config, model=fixed(0.0), runs=2, max_steps=200_000)
        peak, refs = self.traced_peak(config)
        assert refs[0].curve.size == 200_001
        assert peak < 10 * sum(ref.curve.size for ref in refs)

    def test_file_graph_smaller_than_seed_count_fails_at_run_time(
            self, reference_config, tmp_path):
        path = tmp_path / "three.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(3), handle)
        doc = {**config_to_dict(reference_config),
               "graph": {"type": "file", "path": str(path)}}
        config = config_from_dict(doc)  # n is unknown until the file is read
        assert config.seed_count == 8
        with pytest.raises(ValueError) as alone:
            run_ensemble(config, collect_curves=True)
        with pytest.raises(ValueError) as raised:
            build_reference_curves(config)
        assert str(raised.value) == str(alone.value) == \
            "seed_count: must not exceed graph n (3)"

    def test_a_group_failure_is_raised_before_the_first_curve(self, reference_config,
                                                             monkeypatch):
        kernel, means = dynamics._kernel, []

        def failing(scheme):
            def run(model, *args):
                if model.kind == "group":
                    raise ValueError("group failed")
                return kernel(scheme)(model, *args)
            return run

        monkeypatch.setattr(dynamics, "_kernel", failing)
        monkeypatch.setattr(experiment.CurveStats, "mean_fraction",
                            property(lambda stats: means.append(stats)))
        with pytest.raises(ValueError, match="^group failed$"):
            build_reference_curves(reference_config)  # serial
        assert means == []

    @pytest.mark.parametrize("graph", [{"type": "cycle", "n": 5}, "file"])
    def test_every_node_a_seed_names_seed_count(self, reference_config, tmp_path, graph):
        if graph == "file":
            path = tmp_path / "five.edges"
            with path.open("w", encoding="utf-8") as handle:
                save_edge_list(directed_cycle(5), handle)
            graph = {"type": "file", "path": str(path)}
        config = config_from_dict({**config_to_dict(reference_config),
                                   "seed_count": 5, "graph": graph})
        with pytest.raises(ValueError) as raised:
            build_reference_curves(config)
        assert str(raised.value) == "seed_count: must be below graph n (5) for a reference curve"
        refs = tuple(build_reference_curves(replace(config, seed_count=4)))
        assert [ref.curve[0] for ref in refs] == [0.8] * 3

    def test_non_fixed_config_rejected(self, reference_config):
        bad = config_from_dict({**config_to_dict(reference_config),
                                "model": "group",
                                "transmission_prob": None})
        with pytest.raises(ValueError, match="fixed"):
            build_reference_curves(bad)


def best_row(result):
    return next(m for m in result.table if m.model == result.best_model)


class TestFitSeries:
    def test_every_trial_interpolates_np_interps_bytes_on_the_whole_grid(self, monkeypatch):
        real, calls = curvefit._interp, []

        def spy(x, curve):
            calls.append((x, curve, real(x, curve)))
            return calls[-1][2]

        monkeypatch.setattr(curvefit, "_interp", spy)
        rng = np.random.default_rng(12)
        # curves shorter and longer than the series, with plateaus; points past
        # both ends, and on whole steps (an offset of a 400-step curve is a
        # multiple of 25)
        for length, size in ((2, 8), (3, 40), (50, 8), (400, 120), (5000, 30)):
            steps = np.maximum.accumulate(np.round(rng.random(length), 1))
            curve = ReferenceCurve("fixed", steps).curve
            calls.clear()
            curvefit._fit_one(rng.random(size), curve)
            whole = np.arange(length, dtype=np.float64)
            assert len(calls) > 100
            for x, seen, y in calls:
                assert seen is curve
                assert y.tobytes() == np.interp(x, whole, curve).tobytes()

    @pytest.mark.parametrize("length", [2, 3, 7, 1000])
    def test_interpolation_at_the_ends_and_on_whole_steps(self, length):
        rng = np.random.default_rng(length)
        curve = np.sort(rng.random(length))
        last = float(length - 1)
        x = np.concatenate([
            [-1e300, -5.0, -0.5, -1e-300, -0.0, 0.0, last, last + 1e-9, last + 0.5, 1e300],
            np.arange(length, dtype=np.float64),  # every whole step, L - 1 included
            np.nextafter(last, 0.0) - np.arange(3),  # just below the last steps
            rng.uniform(-2.0, length + 1.0, 500),
        ])
        y = curvefit._interp(x, curve)
        assert y.dtype == np.float64 and y.shape == x.shape
        assert y.tobytes() == np.interp(x, np.arange(length, dtype=np.float64), curve).tobytes()
        assert np.all(y[x >= last] == curve[-1]) and np.all(y[x <= 0.0] == curve[0])

    def test_fit_holds_one_reference_curve_at_a_time(self, reference_config, refs,
                                                     monkeypatch):
        # (ReferenceCurves, mean arrays under them) alive at each call: none
        # while a mean is made from its runs' infection times and one while
        # it is fitted (building all three first held three at every fit)
        live, seen = [], []
        post_init, fit_one = ReferenceCurve.__post_init__, curvefit._fit_one
        mean_fraction = experiment.CurveStats.mean_fraction.fget

        def tracked(ref):
            post_init(ref)
            live.append((weakref.ref(ref), weakref.ref(ref.curve.base)))

        def counted(call, name):
            def wrapper(*args, **kwargs):
                seen.append((name, *(sum(pair[i]() is not None for pair in live)
                                     for i in (0, 1))))
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ReferenceCurve, "__post_init__", tracked)
        monkeypatch.setattr(curvefit, "_fit_one", counted(fit_one, "fit"))
        monkeypatch.setattr(experiment.CurveStats, "mean_fraction",
                            property(counted(mean_fraction, "mean")))
        obs = normalize_series(refs[2].curve[::3])
        result = fit_series(obs, build_reference_curves(reference_config))
        assert seen == [("mean", 0, 0), ("fit", 1, 1)] * 3
        assert result == fit_series(obs, refs)

    def test_self_fit_is_exact(self, refs):
        for ref in refs:
            result = fit_series(ref.curve, refs)
            assert result.best_model == ref.model
            best = best_row(result)
            assert best.sse == 0.0
            assert (best.time_scale, best.time_offset, best.amplitude) == \
                (1.0, 0.0, 1.0)
            assert not result.low_confidence

    def test_coarse_lattice_tie_goes_to_the_first_point(self):
        # on a constant curve every (time_scale, time_offset) pair ties, and
        # no refinement step improves on them, so the fit keeps the lattice
        # point met first: the smallest scale and the most negative offset
        flat = tuple(ReferenceCurve(m, np.ones(12)) for m in ("fixed", "group", "global"))
        result = fit_series(np.full(10, 0.625), flat)
        assert result.best_model == "fixed"
        for row in result.table:
            assert (row.sse, row.time_scale, row.time_offset, row.amplitude) == \
                (0.0, 0.25, -3.0, 0.625)

    def test_table_covers_models_in_order(self, refs):
        result = fit_series(refs[0].curve, refs)
        assert [m.model for m in result.table] == ["fixed", "group", "global"]
        assert best_row(result).sse == min(m.sse for m in result.table)

    def test_downsampled_series_recovers_time_scale(self, refs):
        group = next(r for r in refs if r.model == "group")
        result = fit_series(group.curve[::2], refs)
        assert result.best_model == "group"
        assert best_row(result).sse == 0.0
        assert best_row(result).time_scale == 2.0

    def test_grid_amplitude_recovered_exactly(self, refs):
        fixed = next(r for r in refs if r.model == "fixed")
        result = fit_series(0.75 * fixed.curve, refs)
        assert result.best_model == "fixed"
        assert best_row(result).sse == 0.0
        assert best_row(result).amplitude == 0.75

    def test_noisy_curves_recover_generator(self, refs):
        rng = np.random.default_rng(313)
        for ref in refs:
            hits = 0
            for _ in range(10):
                noisy = np.clip(ref.curve + rng.normal(0.0, 0.02,
                                                       ref.curve.size),
                                0.0, None)
                fit = fit_series(normalize_series(noisy), refs)
                if fit.best_model == ref.model:
                    hits += 1
            assert hits >= 8

    def test_decreasing_series_fits_nothing_well(self, refs):
        reversed_global = refs[2].curve[::-1]
        result = fit_series(reversed_global, refs)
        assert best_row(result).sse > 50.0

    def test_constant_series_is_low_confidence(self, refs):
        result = fit_series(np.ones(20), refs)
        assert result.low_confidence
        assert result.best_model in ("fixed", "group", "global")

    def test_tie_breaks_toward_fixed(self):
        curve = np.linspace(0.0, 1.0, 40)
        twins = tuple(ReferenceCurve(model, curve)
                      for model in ("fixed", "group", "global"))
        result = fit_series(curve, twins)
        assert result.best_model == "fixed"
        assert best_row(result).sse == 0.0

    def test_validation(self, refs):
        with pytest.raises(ValueError, match="at least 8"):
            fit_series(np.linspace(0, 1, 7), refs)
        with pytest.raises(ValueError, match="finite"):
            fit_series(np.array([0.0, np.inf] * 4), refs)
        with pytest.raises(ValueError, match="one reference curve per model"):
            fit_series(np.linspace(0, 1, 10), refs[:2])
        duplicated = (refs[0], refs[0], refs[1])
        with pytest.raises(ValueError, match="one reference curve per model"):
            fit_series(np.linspace(0, 1, 10), duplicated)
        repeated = (*refs, refs[0])  # every kind present, fixed twice
        with pytest.raises(ValueError, match="^expected exactly one reference curve per model$"):
            fit_series(np.linspace(0, 1, 10), repeated)


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text(encoding="utf-8").split()
    except OSError:
        return False


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _has_avx2(),
                    reason="forcing OpenBLAS's Haswell kernel needs x86-64 with AVX2")
@pytest.mark.parametrize("setting", ["OPENBLAS_CORETYPE=Haswell",
                                     "OPENBLAS_CORETYPE=Zen",
                                     "OPENBLAS_NUM_THREADS=1"])
def test_fit_csv_ignores_the_blas_kernel(setting, tmp_path):
    """The golden fit.csv inputs, fitted in a process whose OpenBLAS runs
    another CPU kernel or thread count, give the same bytes as here."""
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    expected = _fit_csv(here).read_bytes()
    key, _, value = setting.partition("=")
    env = dict(os.environ, **{key: value})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent),
         str(Path(diffusim.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, pathlib, test_golden; test_golden._fit_csv(pathlib.Path(sys.argv[1]))"
    proc = subprocess.run([sys.executable, "-c", code, str(there)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (there / "o" / "fit.csv").read_bytes() == expected
