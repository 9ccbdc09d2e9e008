"""End-to-end command-line behavior: files, determinism, exit codes."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diffusim import cli
from diffusim.cli import main, parse_config, read_series_csv
from diffusim.experiment import derive_graph_rng, run_ensemble, set_dotted
from diffusim.graph import build_graph, load_edge_list


def write_config(path, **overrides):
    doc = {"model": "group", "master_seed": 99, "runs": 5,
           "graph": {"type": "watts_strogatz", "n": 40, "k": 4, "beta": 0.1}}
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestConfigParsing:
    def test_defaults_applied(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.json"))
        assert cfg.runs == 5 and cfg.seed_count == 1
        assert cfg.scheme == "synchronous"

    def test_error_names_offending_field(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            graph={"type": "watts_strogatz", "n": 40,
                                   "k": 5, "beta": 0.1})
        with pytest.raises(ValueError, match="k"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", velocity=3)
        with pytest.raises(ValueError, match="velocity"):
            parse_config(path)

    def test_overrides_apply_in_flag_order(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        cfg = parse_config(path, ["graph.n=100", "runs=2", "graph.n=60",
                                  "scheme=async_single_node"])
        assert cfg.graph.n == 60 and cfg.runs == 2
        assert cfg.scheme == "async_single_node"

    def test_override_values_parse_as_json_else_string(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        cfg = parse_config(path, ["graph.beta=0.25", "model=global"])
        assert cfg.graph.beta == 0.25
        assert cfg.model.kind == "global"

    def test_bad_override_shape(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        with pytest.raises(ValueError, match="key=value"):
            parse_config(path, ["graph.n"])
        with pytest.raises(ValueError, match="empty key"):
            parse_config(path, ["=5"])


class TestRunCommand:
    def test_writes_runs_and_summary(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        runs = read_rows(out / "runs.csv")
        assert runs[0] == ["run_index", "model", "scheme", "n", "k", "beta",
                           "seed_count", "master_seed", "t_to_pct1",
                           "t_1_to_99", "censored_1", "censored_99",
                           "final_infected", "steps_executed"]
        assert len(runs) == 6
        assert [row[0] for row in runs[1:]] == ["0", "1", "2", "3", "4"]
        assert all(row[1] == "group" and row[3] == "40" for row in runs[1:])
        summary = read_rows(out / "summary.csv")
        assert summary[0][0] == "metric"
        labels = [row[0] for row in summary[1:]]
        assert labels == ["time_to_0.01", "spread_0.01_0.99"]

    def test_headline_metrics_added_to_custom_list(self, tmp_path):
        config = write_config(tmp_path / "c.json", metrics=[0.5])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        labels = [row[0] for row in read_rows(out / "summary.csv")[1:]]
        assert labels == ["time_to_0.5", "time_to_0.01", "spread_0.01_0.99"]

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config), "--out", str(out1)])
        main(["run", "--config", str(config), "--out", str(out2)])
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_censored_cells_are_empty_strings(self, tmp_path):
        config = write_config(tmp_path / "c.json", model="global",
                              max_steps=2, runs=4)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "runs.csv")
        censored = [row for row in rows[1:] if row[11] == "1"]
        assert censored, "expected censored spread metrics under a tiny cap"
        assert all(row[9] == "" for row in censored)

    def test_master_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config",
              str(write_config(tmp_path / "c1.json", master_seed=1)),
              "--out", str(out1)])
        main(["run", "--config",
              str(write_config(tmp_path / "c2.json", master_seed=2)),
              "--out", str(out2)])
        assert (out1 / "runs.csv").read_bytes() != (out2 / "runs.csv").read_bytes()


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{not json", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_model_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", model="viral")
        code = main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "viral" in capsys.readouterr().err

    def test_outdir_through_existing_file_is_io_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out",
                     str(blocker / "out")])
        assert code == 2

    def test_malformed_spread_pair_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", metrics=[[0.1]])
        code = main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "metrics" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("runs", 2.7), ("runs", 100.0), ("runs", True), ("runs", "x"),
        ("runs", None), ("regenerate_graph_per_run", "false"),
        ("master_seed", 1.9), ("master_seed", "12"), ("max_steps", True),
        ("seed_count", {}), ("graph.n", 10.5), ("graph.n", [1]),
        ("metrics", [None]), ("metrics", [[None, 0.5]]),
    ])
    def test_mistyped_value_is_usage_error_naming_key(self, tmp_path, capsys,
                                                      key, value):
        doc = json.loads(write_config(tmp_path / "c.json").read_text())
        set_dotted(doc, key, value)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert f"error: {key}: expected " in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["run", "--out", "somewhere"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["explode"]) == 1

    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()


class TestGenGraph:
    def test_edge_list_round_trips(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["gen-graph", "--config", str(config),
                     "--out", str(out)]) == 0
        lines = (out / "graph.edges").read_text().splitlines()
        assert lines[0] == "40" and len(lines) == 1 + 40 * 4
        loaded = load_edge_list(out / "graph.edges")
        direct = build_graph(parse_config(config).graph,
                             derive_graph_rng(99, 0))
        assert loaded == direct

    def test_regeneration_is_deterministic(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-graph", "--config", str(config), "--out", str(out1)])
        main(["gen-graph", "--config", str(config), "--out", str(out2)])
        assert (out1 / "graph.edges").read_bytes() == \
            (out2 / "graph.edges").read_bytes()

    @pytest.mark.parametrize("regenerate", [True, False])
    def test_writes_the_graph_run_zero_uses(self, tmp_path, monkeypatch,
                                            built_graphs, regenerate):
        monkeypatch.delenv("DIFFUSIM_THREADS", raising=False)  # serial
        config = write_config(tmp_path / "c.json",
                              regenerate_graph_per_run=regenerate)
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 0
        run_graphs = list(built_graphs)
        assert len(run_graphs) == (5 if regenerate else 1)
        if regenerate:
            assert run_graphs[1] != run_graphs[0]
        assert main(["gen-graph", "--config", str(config),
                     "--out", str(tmp_path / "gen")]) == 0
        assert load_edge_list(tmp_path / "gen" / "graph.edges") == run_graphs[0]


class TestSweepCommand:
    def write_sweep(self, tmp_path, axes=None, **base_overrides):
        base = {"model": "group", "master_seed": 7, "runs": 2,
                "metrics": [0.5],
                "graph": {"type": "watts_strogatz", "n": 40, "k": 4,
                          "beta": 0.1}}
        base.update(base_overrides)
        doc = {"base": base,
               "axes": axes or {"graph.n": [40, 60],
                                "model": ["group", "global"]}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_grid_rows_in_lexicographic_order(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(self.write_sweep(tmp_path)),
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "sweep_summary.csv")
        assert rows[0] == ["graph.n", "model", "metric", "mean", "std", "cv",
                           "min", "max", "censored_count", "runs"]
        assert [(row[0], row[1]) for row in rows[1:]] == [
            ("40", "group"), ("40", "global"),
            ("60", "group"), ("60", "global")]
        assert not (out / "sweep_errors.csv").exists()

    def test_failed_cells_reported_separately(self, tmp_path, capsys):
        path = self.write_sweep(tmp_path, axes={"graph.k": [4, 5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert "1 sweep cell(s) failed" in capsys.readouterr().err
        summary = read_rows(out / "sweep_summary.csv")
        assert [row[0] for row in summary[1:]] == ["4"]
        errors = read_rows(out / "sweep_errors.csv")
        assert errors[0] == ["graph.k", "error"]
        assert errors[1][0] == "5" and "k" in errors[1][1]

    def test_mistyped_axis_values_are_failed_cells(self, tmp_path, capsys):
        path = self.write_sweep(tmp_path, axes={"runs": [2, None, 2.5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert "2 sweep cell(s) failed" in capsys.readouterr().err
        assert [row[0] for row in read_rows(out / "sweep_summary.csv")[1:]] == ["2"]
        assert read_rows(out / "sweep_errors.csv")[1:] == [
            ["", "runs: expected an integer, got None"],
            ["2.5", "runs: expected an integer, got 2.5"]]

    def test_malformed_sweep_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": {}}), encoding="utf-8")
        assert main(["sweep", "--config", str(bad), "--out",
                     str(tmp_path / "o1")]) == 1
        bad.write_text(json.dumps({"base": {}, "axes": {}, "x": 1}),
                       encoding="utf-8")
        assert main(["sweep", "--config", str(bad), "--out",
                     str(tmp_path / "o2")]) == 1
        bad.write_text(json.dumps({"base": {}, "axes": {"graph.n": []}}),
                       encoding="utf-8")
        assert main(["sweep", "--config", str(bad), "--out",
                     str(tmp_path / "o3")]) == 1
        bad.write_text(json.dumps({"base": {}, "axes": {}}), encoding="utf-8")
        assert main(["sweep", "--config", str(bad), "--out",
                     str(tmp_path / "o4")]) == 1
        assert not any((tmp_path / f"o{i}").exists() for i in range(1, 5))

    def test_set_overrides_reach_base(self, tmp_path):
        path = self.write_sweep(tmp_path, axes={"model": ["group"]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--set", "base.runs=3"]) == 0
        rows = read_rows(out / "sweep_summary.csv")
        assert rows[1][-1] == "3"


class TestSeriesInput:
    def test_two_column_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n0,1.0\n1,2.0\n2,4.0\n", encoding="utf-8")
        assert np.array_equal(read_series_csv(path), [1.0, 2.0, 4.0])

    def test_single_column_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n5\n6\n", encoding="utf-8")
        assert np.array_equal(read_series_csv(path), [5.0, 6.0])

    def test_malformed_series_files(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("week,count\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)
        path.write_text("t,value\n0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_series_csv(path)
        path.write_text("t,value\n0,spam\n", encoding="utf-8")
        with pytest.raises(ValueError, match="spam"):
            read_series_csv(path)
        path.write_text("t,value\n\n0,1\nfoo,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: t must be"):
            read_series_csv(path)
        path.write_text("t,value\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no rows"):
            read_series_csv(path)
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            read_series_csv(path)


    @pytest.mark.parametrize("t_column,line,bad", [
        (("0", "foo", "2"), 3, "'foo'"),  # not an integer
        (("3", "3", "4"), 3, "'3'"),  # repeated
        (("5", "1", "2"), 3, "'1'"),  # decreasing
        (("1.0", "2", "3"), 2, "'1.0'"),  # a float, even a whole one
    ])
    def test_fit_rejects_irregular_t_column(self, tmp_path, capsys, t_column,
                                            line, bad):
        path = tmp_path / "s.csv"
        lines = ["t,value"] + [f"{t},{v}" for t, v in zip(t_column, "125")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["fit", "--series", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert (f"{path}: line {line}: t must be an integer rising by 1 "
                f"per row, got {bad}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFitCommand:
    def series_from_curve(self, tmp_path, model="global"):
        """A noiseless series generated by one of the reference models."""
        from diffusim.curvefit import (build_reference_curves,
                                       load_reference_config)
        refs = build_reference_curves(load_reference_config())
        curve = next(r.curve for r in refs if r.model == model)
        path = tmp_path / "series.csv"
        lines = ["t,value"] + [f"{t},{v}" for t, v in enumerate(curve.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_recovers_global_series(self, tmp_path, capsys):
        series = self.series_from_curve(tmp_path, "global")
        out = tmp_path / "out"
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "best_model global"
        rows = read_rows(out / "fit.csv")
        assert rows[0] == ["model", "sse", "time_scale", "time_offset",
                           "amplitude", "best"]
        assert [row[0] for row in rows[1:]] == ["fixed", "group", "global"]
        best_flags = [row[5] for row in rows[1:]]
        assert best_flags == ["0", "0", "1"]

    def test_custom_reference_config(self, tmp_path, capsys):
        series = self.series_from_curve(tmp_path, "group")
        config = write_config(tmp_path / "ref.json", model="fixed",
                              transmission_prob=0.5, runs=4, seed_count=2)
        out = tmp_path / "out"
        code = main(["fit", "--series", str(series), "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        assert (out / "fit.csv").exists()

    def test_set_without_config_rejected(self, tmp_path, capsys):
        series = self.series_from_curve(tmp_path)
        code = main(["fit", "--series", str(series), "--out",
                     str(tmp_path / "out"), "--set", "runs=2"])
        assert code == 1
        assert "--set requires --config" in capsys.readouterr().err

    def test_short_series_rejected(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("reference curves built for a rejected series")

        monkeypatch.setattr(cli, "build_reference_curves", no_simulation)
        path = tmp_path / "s.csv"
        path.write_text("value\n" + "\n".join("1234567") + "\n", encoding="utf-8")
        code = main(["fit", "--series", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "at least 8 points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_series_file_is_io_error(self, tmp_path):
        code = main(["fit", "--series", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestReportCommand:
    def test_curve_matches_library_result(self, tmp_path):
        config = write_config(tmp_path / "c.json", runs=3)
        out = tmp_path / "out"
        assert main(["report", "--config", str(config),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "curve.csv")
        assert rows[0] == ["t", "mean_fraction", "std_fraction"]
        result = run_ensemble(parse_config(config), collect_curves=True)
        assert len(rows) - 1 == result.curve.mean_fraction.size
        assert [row[0] for row in rows[1:3]] == ["0", "1"]
        assert float(rows[1][1]) == result.curve.mean_fraction[0]
        assert rows[1][1] == repr(float(result.curve.mean_fraction[0]))


class TestWorkerEnvironment:
    def test_threads_env_does_not_change_bytes(self, tmp_path):
        config = write_config(tmp_path / "c.json", runs=8)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        env = dict(os.environ, DIFFUSIM_THREADS="1")
        subprocess.run([sys.executable, "-m", "diffusim.cli", "run",
                        "--config", str(config), "--out", str(out1)],
                       check=True, env=env)
        env["DIFFUSIM_THREADS"] = "2"
        subprocess.run([sys.executable, "-m", "diffusim.cli", "run",
                        "--config", str(config), "--out", str(out2)],
                       check=True, env=env)
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_bad_threads_env_is_usage_error(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("DIFFUSIM_THREADS", "many")
        config = write_config(tmp_path / "c.json")
        code = main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "DIFFUSIM_THREADS" in capsys.readouterr().err
