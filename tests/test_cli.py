"""End-to-end command-line behavior: files, determinism, exit codes."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diffusim import cli, experiment
from diffusim.cli import main, parse_config, read_series_csv
from diffusim.experiment import (MAX_CURVE_STEPS, derive_graph_rng, run_ensemble,
                                 set_dotted)
from diffusim.graph import (build_graph, directed_cycle, load_edge_list,
                            save_edge_list)


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

    @pytest.mark.parametrize("command", ["run", "report", "gen-graph"])
    def test_missing_graph_file_is_io_error_leaving_no_outdir(self, tmp_path,
                                                               capsys, command):
        graph = {"type": "file", "path": str(tmp_path / "absent.edges")}
        config = write_config(tmp_path / "c.json", graph=graph)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not out.exists()

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

    def test_node_count_beyond_the_arc_code_limit_is_usage_error(self, tmp_path, capsys):
        edges = tmp_path / "huge.edges"
        edges.write_text("1000000000000\n0 1\n", encoding="utf-8")
        for graph, message in [
                ({"type": "file", "path": str(edges)},
                 f"error: graph.path: {edges}: line 1: "
                 "header node count must be <= 3037000499"),
                ({"type": "directed_cycle", "n": 10 ** 12},
                 "error: graph.n: must be <= 3037000499")]:
            config = write_config(tmp_path / "c.json", graph=graph)
            code = main(["run", "--config", str(config), "--out",
                         str(tmp_path / "out")])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_a_graph_too_large_to_build_runs_under_global_only(self, tmp_path, capsys):
        # a global run reads only n, so the 10^12 arcs of complete(10^6) are
        # never allocated; group needs them and exits 1
        config = write_config(tmp_path / "c.json", model="global", runs=1, max_steps=10,
                              graph={"type": "complete", "n": 10 ** 6})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "global")]) == 0
        assert read_rows(tmp_path / "global" / "runs.csv")[1][-1] == "10"
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "group"),
                     "--set", "model=group"]) == 1
        assert capsys.readouterr().err == "error: graph.n: 1000000 does not fit in memory\n"
        assert not (tmp_path / "group").exists()

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("an invariant broke")

        monkeypatch.setattr(cli, "cmd_run", broken)
        config = write_config(tmp_path / "c.json")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "internal error: an invariant broke\n"

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


class TestRejectionsNameTheirKey:
    """Each config rule is stated once, by the type or reader that owns its
    key, so the CLI prints exactly one line naming that key."""

    FIXED = {"model": "fixed", "transmission_prob": 0.5}

    @staticmethod
    def run_main(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("config, overrides, message", [
        (FIXED, ['transmission_prob="x"'],
         "transmission_prob: expected a number, got 'x'"),
        (FIXED, ["transmission_prob=2"], "transmission_prob: must be within [0, 1]"),
        (FIXED, ["model=group"], "transmission_prob: not applicable to model 'group'"),
        ({"model": "fixed"}, [], "transmission_prob: required by model 'fixed'"),
        ({}, ["model=viral"], "model: unknown model kind 'viral'"),
        ({}, ["seed_count=5", 'graph={"type": "cycle", "n": 3}'],
         "seed_count: must not exceed graph n (3)"),
        ({}, ["seed_count=5", 'graph={"type": "file", "path": "three.edges"}'],
         "seed_count: must not exceed graph n (3)"),
        ({"runs": 2}, ['graph={"type": "cycle", "n": 3, "n": 4}'],
         "override 'graph': duplicate key 'n'"),
        ({}, [".x=1"], "override '.x=1' has an empty key segment"),
        ({}, ["graph..n=1"], "override 'graph..n=1' has an empty key segment"),
        ({}, ["graph.=1"], "override 'graph.=1' has an empty key segment"),
        ({}, ["model.x=1"], "model.x: 'model' is not an object"),
        ({}, ["runs.x=1"], "runs.x: 'runs' is not an object"),
    ])
    def test_run_config(self, tmp_path, monkeypatch, capsys, config, overrides,
                        message):
        monkeypatch.chdir(tmp_path)
        with (tmp_path / "three.edges").open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(3), handle)
        write_config(tmp_path / "c.json", **config)
        argv = ["run", "--config", "c.json", "--out", "out"]
        for item in overrides:
            argv += ["--set", item]
        assert self.run_main(capsys, argv) == (1, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"model": "group", "runs": 1, "runs": 3}', "c.json: duplicate key 'runs'"),
        ('{"graph": {"type": "cycle", "n": 3, "n": 4}}', "c.json: duplicate key 'n'"),
        ("[1, 2]", "c.json: top level must be a JSON object"),
    ])
    def test_config_document(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(text, encoding="utf-8")
        argv = ["run", "--config", "c.json", "--out", "out"]
        assert self.run_main(capsys, argv) == (1, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, line", [
        (b'{"runs": 1}\xff', "error: c.json: 'utf-8' codec can't decode byte "
                              "0xff in position 11: invalid start byte"),
        (None, "i/o error: [Errno 2] No such file or directory: 'c.json'"),
    ])
    def test_config_file_that_cannot_be_read(self, tmp_path, monkeypatch, capsys,
                                             content, line):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "c.json").write_bytes(content)
        argv = ["run", "--config", "c.json", "--out", "out"]
        code = 2 if content is None else 1
        assert self.run_main(capsys, argv) == (code, f"{line}\n")
        assert not (tmp_path / "out").exists()

    UNREADABLE_GRAPHS = [
        ("absent.edges", "i/o error: graph.path: absent.edges: No such file or directory"),
        ("folder", "i/o error: graph.path: folder: Is a directory"),
        ("bytes.edges", "error: graph.path: bytes.edges: 'utf-8' codec can't "
                        "decode byte 0xff in position 0: invalid start byte"),
    ]

    @staticmethod
    def make_unreadable_graphs(tmp_path):
        (tmp_path / "folder").mkdir()
        (tmp_path / "bytes.edges").write_bytes(b"\xff\xfe3\n0 1\n")

    @pytest.mark.parametrize("command", ["run", "report", "gen-graph"])
    @pytest.mark.parametrize("path, line", UNREADABLE_GRAPHS)
    def test_graph_file_that_cannot_be_read(self, tmp_path, monkeypatch, capsys,
                                            command, path, line):
        monkeypatch.chdir(tmp_path)
        self.make_unreadable_graphs(tmp_path)
        write_config(tmp_path / "c.json", graph={"type": "file", "path": path})
        argv = [command, "--config", "c.json", "--out", "out"]
        code = 2 if line.startswith("i/o error: ") else 1
        assert self.run_main(capsys, argv) == (code, f"{line}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["report", "fit"])
    @pytest.mark.parametrize("max_steps", [10 ** 15, 10 ** 30, MAX_CURVE_STEPS])
    def test_curve_too_long_for_memory_names_max_steps(self, tmp_path, monkeypatch,
                                                       capsys, command, max_steps):
        # every run absorbs at once, so only the curve's allocation is at stake
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "c.json", model="fixed", transmission_prob=0.0,
                     runs=2, max_steps=max_steps, graph={"type": "cycle", "n": 5})
        argv = [command, "--config", "c.json", "--out", "out"]
        if command == "fit":
            (tmp_path / "s.csv").write_text("value\n" + "0.5\n" * 8, encoding="utf-8")
            argv += ["--series", "s.csv"]
        line = f"error: max_steps: a curve of {max_steps + 1} steps does not fit in memory"
        assert self.run_main(capsys, argv) == (1, f"{line}\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_errors_name_a_graph_file_that_cannot_be_read(self, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.make_unreadable_graphs(tmp_path)
        base = json.loads(write_config(tmp_path / "c.json").read_text())
        graphs = [{"type": "file", "path": path} for path, _ in self.UNREADABLE_GRAPHS]
        doc = {"base": base, "axes": {"graph": graphs}}
        (tmp_path / "s.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", "--config", "s.json", "--out", "out"]) == 0
        errors = read_rows(tmp_path / "out" / "sweep_errors.csv")
        assert [row[-1] for row in errors[1:]] == [
            line.partition("error: ")[2] for _, line in self.UNREADABLE_GRAPHS]

    @pytest.mark.parametrize("text, message", [
        ('{"base": 5, "axes": {"runs": [1]}}', "base: expected an object"),
        ('{"base": {}, "axes": {}}', "axes: needs at least one axis"),
        ('{"base": {}, "axes": {"runs": []}}', "axes.runs: empty sweep range"),
        ('{"base": {}, "axes": {"runs": 5}}', "axes.runs: expected a list"),
        ('{"base": {}, "axes": []}', "axes: expected an object"),
        ('{"axes": {"runs": [1]}}', "base: required config key is missing"),
        ('{"base": {}, "axes": {"runs": [1], "runs": [3]}}',
         "s.json: duplicate key 'runs'"),
        ('{"base": {"model": "group", "master_seed": 1, "graph": {"type": "cycle",'
         ' "n": 3}, "transmission_prob": 0.5}, "axes": {"runs": [1]}}',
         "base.transmission_prob: not applicable to model 'group'"),
    ])
    def test_sweep_document(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(text, encoding="utf-8")
        argv = ["sweep", "--config", "s.json", "--out", "out"]
        assert self.run_main(capsys, argv) == (1, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_override_through_a_scalar_base(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text('{"base": 5, "axes": {"runs": [1]}}',
                                         encoding="utf-8")
        argv = ["sweep", "--config", "s.json", "--out", "out",
                "--set", "base.model=group"]
        assert self.run_main(capsys, argv) == (
            1, "error: base.model: 'base' is not an object\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_errors_name_seed_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with (tmp_path / "three.edges").open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(3), handle)
        base = json.loads(write_config(tmp_path / "c.json").read_text())
        doc = {"base": base, "axes": {"graph": [{"type": "cycle", "n": 3},
                                                {"type": "file", "path": "three.edges"}],
                                      "seed_count": [1, 5]}}
        (tmp_path / "s.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", "--config", "s.json", "--out", "out"]) == 0
        errors = read_rows(tmp_path / "out" / "sweep_errors.csv")
        assert [row[1:] for row in errors[1:]] == [
            ["5", "seed_count: must not exceed graph n (3)"]] * 2


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
            ["null", "runs: expected an integer, got None"],
            ["2.5", "runs: expected an integer, got 2.5"]]

    def test_object_and_list_axis_values_are_compact_json(self, tmp_path):
        path = self.write_sweep(tmp_path, axes={
            "graph": [{"type": "cycle", "n": 5}, {"type": "complete", "n": 4}],
            "metrics": [[0.5], [0.5, 1.0]], "max_steps": [None, 50]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_summary.csv")
        assert [row[:4] for row in rows[1:4]] == [
            ['{"type":"cycle","n":5}', "[0.5]", "null", "time_to_0.5"],
            ['{"type":"cycle","n":5}', "[0.5]", "50", "time_to_0.5"],
            ['{"type":"cycle","n":5}', "[0.5,1.0]", "null", "time_to_0.5"]]
        assert {tuple(row[:2]) for row in rows[1:]} == {
            (graph, metrics) for graph in ('{"type":"cycle","n":5}',
                                           '{"type":"complete","n":4}')
            for metrics in ("[0.5]", "[0.5,1.0]")}
        text = (out / "sweep_summary.csv").read_text(encoding="utf-8")
        assert '"{""type"":""cycle"",""n"":5}"' in text  # csv quoting, not Python's str

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

    def test_out_through_a_file_fails_before_any_cell_runs(self, tmp_path,
                                                           monkeypatch, capsys):
        def no_cells(*args, **kwargs):
            raise AssertionError("a sweep cell ran before --out was created")

        monkeypatch.setattr(cli, "sweep", no_cells)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = main(["sweep", "--config", str(self.write_sweep(tmp_path)),
                     "--out", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert blocker.read_text(encoding="utf-8") == ""

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

    def test_t_column_takes_signed_ascii_decimals_around_spaces(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n -1 ,1.0\n+0,2.0\n 01,4.0\n", encoding="utf-8")
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
        (("9", "1_0", "11"), 3, "'1_0'"),  # int() reads "1_0" as 10
        (("\u0660", "1", "2"), 2, "'\u0660'"),  # a non-ASCII digit
        (("0", "+-1", "2"), 3, "'+-1'"),
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


    @pytest.mark.parametrize("head", ["week,count\n0,1\n", "t,value\n0,spam\n"])
    def test_a_csv_error_after_a_bad_line_wins(self, tmp_path, head):
        path = tmp_path / "s.csv"
        path.write_text(head + "1" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 3: field larger than field limit"):
            read_series_csv(path)

    def test_of_two_bad_rows_the_first_is_named(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n0,1\n1,spam\n2,eggs\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 3: not a number: 'spam'$"):
            read_series_csv(path)

    def test_rows_are_checked_as_they_are_read(self, tmp_path):
        # the text, its lines and the values; holding every parsed row first
        # peaked at 3.3 MB
        path = tmp_path / "s.csv"
        path.write_text("t,value\n" + "".join(f"{t},{t / 1e4:.6f}\n" for t in range(10_000)),
                        encoding="utf-8")
        read_series_csv(path)  # warm up
        tracemalloc.start()
        try:
            values = read_series_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.dtype == np.float64 and values[-1] == 0.9999
        assert peak < 1_500_000

    def test_a_header_and_blank_lines_have_no_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n\n , \n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^series has a header but no rows$"):
            read_series_csv(path)


class TestFitCommand:
    def series_from_curve(self, tmp_path, model="global"):
        """A noiseless series generated by one of the reference models."""
        from diffusim.curvefit import REFERENCE_CONFIG, build_reference_curves
        refs = build_reference_curves(parse_config(REFERENCE_CONFIG))
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

    def test_set_without_config_overrides_the_packaged_reference(self, tmp_path):
        series = self.series_from_curve(tmp_path)
        common = ["fit", "--series", str(series), "--set", "runs=2"]
        assert main(common + ["--out", str(tmp_path / "default")]) == 0
        assert main(common + ["--config", str(cli.REFERENCE_CONFIG),
                              "--out", str(tmp_path / "named")]) == 0
        default = (tmp_path / "default" / "fit.csv").read_bytes()
        assert default == (tmp_path / "named" / "fit.csv").read_bytes()
        # runs=2 took effect: the full 30-run reference fits to other bytes
        assert main(["fit", "--series", str(series),
                     "--out", str(tmp_path / "full")]) == 0
        assert default != (tmp_path / "full" / "fit.csv").read_bytes()

    def test_packaged_reference_with_a_repeated_key_is_rejected(self, tmp_path, capsys,
                                                                monkeypatch):
        series = self.series_from_curve(tmp_path)
        text = cli.REFERENCE_CONFIG.read_text(encoding="utf-8")
        bad = tmp_path / "reference_config.json"
        bad.write_text(text.replace("{", '{"runs": 2, ', 1), encoding="utf-8")
        monkeypatch.setattr(cli, "REFERENCE_CONFIG", bad)
        code = main(["fit", "--series", str(series), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "duplicate key 'runs'" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("values, message", [
        ("1 2 3 -4 5 6 7 8", "series must be non-negative"),
        ("0 0 0 0 0 0 0 0", "series is all zero"),
        ("1 2 3 nan 5 6 7 8", "fit needs finite values"),
        ("1 2 3 inf 5 6 7 8", "fit needs finite values"),
        ("1 2 3", "fit needs a 1-D series of at least 8 points"),
    ])
    def test_series_value_errors_name_the_file(self, tmp_path, monkeypatch,
                                               capsys, values, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("reference curves built for a rejected series")

        monkeypatch.setattr(cli, "build_reference_curves", no_simulation)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv").write_text("value\n" + "\n".join(values.split()) + "\n",
                                        encoding="utf-8")
        code = main(["fit", "--series", "s.csv", "--out", "out"])
        assert code == 1
        assert capsys.readouterr().err == f"error: s.csv: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_constant_series_warns_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("value\n" + "3\n" * 10, encoding="utf-8")
        config = write_config(tmp_path / "ref.json", model="fixed",
                              transmission_prob=0.5, runs=2)
        out = tmp_path / "out"
        code = main(["fit", "--series", str(path), "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: constant series; classification is "
                                "low-confidence\n")
        assert captured.out.startswith("best_model ")
        assert (out / "fit.csv").exists()

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

    def test_report_peak_does_not_grow_with_the_curve(self, tmp_path):
        # fixed(0.0) spreads to no one, so each run is one infection padded to
        # the cap; the curve is written a block at a time from those times
        # (its two int64 sums took 16 bytes a step: +2.9 MB from 20,000 steps)
        argv = ["report", "--config", str(write_config(
            tmp_path / "c.json", model="fixed", transmission_prob=0.0, runs=2,
            graph={"type": "cycle", "n": 5})), "--out", str(tmp_path / "out")]
        assert main(argv + ["--set", "max_steps=100"]) == 0  # one-off imports
        peaks = []
        for max_steps in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert main(argv + ["--set", f"max_steps={max_steps}"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(read_rows(tmp_path / "out" / "curve.csv")) == 200_002
        assert peaks[1] < peaks[0] + 50_000

    @staticmethod
    def curve(name):
        """(mean, std) of a curve shaped to test ``_curve_blocks``, which is
        given blocks of ``_CURVE_BLOCK`` rows."""
        rng = np.random.default_rng(5)
        if name == "long runs":  # the two columns change at different rows
            return np.repeat(rng.random(60), 150), np.repeat(rng.random(90), 100)
        if name == "no repeats":
            return (rng.random(5000) * 10.0 ** rng.integers(-20, 5, 5000),
                    rng.random(5000))
        if name == "a run across a block boundary":  # 200 rows, 96 before it
            steps = np.r_[np.linspace(0.0, 0.5, experiment._CURVE_BLOCK - 96),
                          np.full(200, 0.5 + 1 / 3),
                          np.linspace(0.9, 1.0, 100)]
            return steps, steps / 7
        return (np.array([0.0, -0.0, -0.0, 0.0, 0.0, 0.25]),  # signed zeros
                np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 0.0]))

    @pytest.mark.parametrize("name", ["long runs", "no repeats",
                                      "a run across a block boundary", "signed zeros"])
    def test_grouped_blocks_write_the_csv_writer_bytes(self, tmp_path, name):
        mean, std = self.curve(name)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(cli.CURVE_COLUMNS)
        for t, (m, s) in enumerate(zip(mean.tolist(), std.tolist())):
            writer.writerow([cli._cell(t), cli._cell(m), cli._cell(s)])
        block = experiment._CURVE_BLOCK
        blocks = [(lo, mean[lo:lo + block], std[lo:lo + block])
                  for lo in range(0, mean.size, block)]
        cli.write_csv(tmp_path / "curve.csv", cli.CURVE_COLUMNS,
                      blocks=cli._curve_blocks(blocks))
        assert (tmp_path / "curve.csv").read_bytes() == expected.getvalue().encode()


class TestAtomicOpen:
    def test_failing_block_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "runs.csv"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="interrupted"):
            with cli.atomic_open(target) as handle:
                handle.write("new, partial")
                raise RuntimeError("interrupted")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["runs.csv"]

    def test_failing_block_creates_no_target(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with cli.atomic_open(tmp_path / "curve.csv"):
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    def test_writes_never_touch_the_process_umask(self, tmp_path, monkeypatch):
        # setting the umask to read it would give a file that another thread
        # creates meanwhile mode 0o666
        def umask(mask):
            raise AssertionError("os.umask called")
        monkeypatch.setattr(os, "umask", umask)
        cli.write_csv(tmp_path / "runs.csv", ["a"], [[1]])
        config = write_config(tmp_path / "c.json")
        assert main(["gen-graph", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        assert (tmp_path / "runs.csv").read_text(encoding="utf-8") == "a\n1\n"
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == ["graph.edges"]


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
