"""Seeded fuzz gate: malformed input exits 1 or 2, never 3.

Fixed-seed mutations of valid run configs, ``--set`` strings, sweep
documents, edge-list texts and series CSVs go through ``cli.main``.  The
oracle: the exit code is 0, 1 or 2, and exit 1 or 2 prints exactly one
``error:`` or ``i/o error:`` line, with no traceback.  The plain edge-list
reader and the line parser must also accept the same mutated texts and
build equal graphs from them.

The mutations keep every run small.  A size that can pass validation
(runs, max_steps, a node count) is at most 64, and an edge-list header at
most 1,000, so no case runs long or allocates much; huge integers go only
where validation rejects them (a node count above MAX_NODES, a seed of
2**64).  DIFFUSIM_THREADS is unset for every CLI case, so none starts a
process pool, and its own values are checked through ``worker_count()``
only.
"""
from __future__ import annotations

import copy
import json
import random

import numpy as np
import pytest

from diffusim.cli import main
from diffusim.experiment import worker_count
from diffusim.graph import (MAX_NODES, ArcError, EdgeListError, Graph,
                            _load_lines, _plain_arcs)

BASE = {"model": "fixed", "transmission_prob": 0.5, "scheme": "synchronous",
        "master_seed": 7, "runs": 2, "max_steps": 40, "seed_count": 1,
        "regenerate_graph_per_run": True, "metrics": [0.5, [0.2, 0.8]],
        "graph": {"type": "watts_strogatz", "n": 12, "k": 4, "beta": 0.2}}
EDGES = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n"
SERIES = "t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(
    [0.0, 0.01, 0.03, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97, 0.99, 1.0, 1.0]))

GRAPHS = [{"type": "directed_cycle", "n": 5}, {"type": "complete", "n": 4},
          {"type": "barabasi_albert", "n": 9, "m_attach": 2}]
# Values any key may take: none of them lets a run grow past 64 nodes,
# runs or steps per node.
VALUES = [None, True, False, -1, 0, 1, 2, 3, 7, 64, 0.5, 1.5, -0.0, "", "x",
          "fixed", "global", "async_single_node", "complete", "ba", "file",
          [], [0.5], [[0.2, 0.8]], [0.2, 0.8, 0.9], {}] + GRAPHS
# Valid alternatives at some keys, so that mutated configs also run
VALID = {"model": ["fixed", "group", "global"], "transmission_prob": [0.0, 0.9, 1.0],
         "scheme": ["synchronous", "async_single_node"], "master_seed": [0, 2 ** 64 - 1],
         "runs": [1, 3], "max_steps": [1, 5, None], "seed_count": [2, 12],
         "regenerate_graph_per_run": [False], "metrics": [[1.0], [0.25, [0.1, 1.0]]],
         "graph": GRAPHS + [{"type": "ws", "n": 8, "k": 2, "beta": 1.0}],
         "graph.n": [5, 64], "graph.k": [2, 6], "graph.beta": [0.0, 1.0],
         "graph.path": ["missing.edges", "."]}
# JSON text json.dumps cannot write: non-finite tokens, overflowing and
# underflowing numbers, and nesting 2, 50 or 200,000 deep
RAW = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
       "[[0.5]]", "[" * 50 + "]" * 50, "[" * 200_000 + "]" * 200_000]
# Keys where validation rejects every one of these huge integers
HUGE_KEYS = {"graph.n", "graph.k", "graph.m_attach", "graph.m0", "master_seed",
             "transmission_prob", "graph.beta"}
HUGE = [MAX_NODES + 1, 2 ** 64, 10 ** 30, -(2 ** 64)]
# Edge-list headers: every number a header can read is at most 1,000 or
# above MAX_NODES
HEADERS = ["6", "1", "06", "1000", "0", "-1", "+6", "6.0", "x", "٦",
           str(MAX_NODES + 1), "9" * 20, "9" * 5000, "\n6", "6 ", "\t6\r"]
# Characters the text mutations insert.  JSON text gets no digits, so an
# edit can break a number but not make it larger.
CHARS = "0123456789 \t\n\r-+_.x,e\x00\u00a0³٣é"
PLAIN_CHARS = "0123456789 \t\n"  # what the plain edge-list reader reads
JSON_CHARS = "{}[]\":,.-+eE \t\n\\\x00é"


def run_cli(capsys, argv) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    shown = [a if len(a) < 200 else a[:200] + "..." for a in argv]
    assert code in (0, 1, 2), (shown, code, err)
    assert "Traceback" not in err and "internal error" not in err, (shown, err)
    if code:
        prefix = "error: " if code == 1 else "i/o error: "
        assert err.startswith(prefix) and err.count("\n") == 1, (shown, err)
    return code


def paths(doc, prefix=()):
    """Every key path in a JSON document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate_doc(rng: random.Random, doc, rounds: int) -> str:
    """JSON text of ``doc`` after ``rounds`` random edits."""
    doc, raw = copy.deepcopy(doc), []
    for _ in range(rounds):
        candidates = list(paths(doc))
        if not candidates:  # everything deleted
            break
        path = rng.choice(candidates)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = rng.randrange(8)
        dotted = ".".join(str(key) for key in path).removeprefix("base.")
        if op == 0:
            del parent[path[-1]]
        elif op == 1 and isinstance(parent, dict):
            parent["zz" if rng.random() < 0.5 else "graph.n"] = copy.deepcopy(rng.choice(VALUES))
        elif op == 2:
            raw.append(rng.choice(RAW))
            parent[path[-1]] = f"@raw{len(raw) - 1}@"
        elif op == 3 and dotted in HUGE_KEYS:
            parent[path[-1]] = rng.choice(HUGE)
        elif op > 3 and dotted in VALID:
            parent[path[-1]] = copy.deepcopy(rng.choice(VALID[dotted]))
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    text = json.dumps(doc)
    for i, token in enumerate(raw):
        text = text.replace(f'"@raw{i}@"', token)
    return text


def mutate_text(rng: random.Random, text: str, rounds: int, start: int = 0,
                chars: str = CHARS) -> str:
    """``text`` after ``rounds`` deletions, insertions or replacements of a
    character at or after position ``start``; new characters come from
    ``chars``."""
    for _ in range(rounds):
        i = rng.randrange(start, len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(chars) + text[i:]
        else:
            text = text[:i] + rng.choice(chars) + text[i + 1:]
    return text


# Edits made to every arc line at once: a third column, one column, tab
# separators with padding, CRLF line ends, each arc twice
LINE_EDITS = [lambda line: line + " 0", lambda line: line.split()[0],
              lambda line: "\t" + line.replace(" ", "\t") + " ", lambda line: line + "\r",
              lambda line: f"{line}\n{line}"]


def mutated_edge_list(rng: random.Random, plain: bool = False) -> str:
    """A mutated edge list whose header is one of HEADERS: the body's
    mutations never reach the header line.  A ``plain`` one has a plain
    header and inserts only characters the plain reader reads."""
    lines = EDGES.splitlines()[1:]
    if rng.random() < 0.3:
        lines = map(rng.choice(LINE_EDITS), lines)
    body = "\n" + "\n".join(lines) + "\n"
    header = rng.choice(HEADERS[:4] if plain else HEADERS)
    return header + mutate_text(rng, body, rng.randrange(4), 1,
                                PLAIN_CHARS if plain else CHARS)


@pytest.fixture
def cli_env(monkeypatch, tmp_path):
    monkeypatch.delenv("DIFFUSIM_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFoundInputs:
    """Inputs that once exited 3 or printed more than one error line."""

    def test_deep_config_file(self, cli_env, capsys):
        (cli_env / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
        assert main(["run", "--config", "deep.json", "--out", "out"]) == 1
        assert capsys.readouterr().err == "error: deep.json: JSON nests too deeply\n"

    def test_deep_override(self, cli_env, capsys):
        (cli_env / "c.json").write_text(json.dumps(BASE))
        deep = "[" * 200_000 + "]" * 200_000
        assert main(["run", "--config", "c.json", "--out", "out",
                     "--set", f"runs={deep}"]) == 1
        assert capsys.readouterr().err == "error: override 'runs': value nests too deeply\n"

    def test_long_series_field(self, cli_env, capsys):
        (cli_env / "s.csv").write_text(SERIES + "12," + "1" * 200_000 + "\n")
        assert main(["fit", "--series", "s.csv", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: s.csv: line 14: field larger than field limit")

    def test_key_with_a_newline(self, cli_env, capsys):
        (cli_env / "c.json").write_text(json.dumps(BASE))
        assert main(["run", "--config", "c.json", "--out", "out",
                     "--set", "ru\nns=2"]) == 1
        assert capsys.readouterr().err == "error: ru\\nns: unknown config key\n"

    @pytest.mark.parametrize("graph, message", [
        ({"type": "file", "path": "big.edges"},
         "error: line 1: header node count does not fit in memory\n"),
        ({"type": "directed_cycle", "n": 2000},
         "error: graph.n: 2000 does not fit in memory\n")])
    def test_graph_beyond_memory(self, cli_env, capsys, monkeypatch, graph, message):
        zeros = np.zeros

        def small_memory(shape, *args, **kwargs):  # 1,000 integers fit, no more
            if np.prod(shape) > 1000:
                raise MemoryError(f"Unable to allocate an array of shape {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_memory)
        (cli_env / "big.edges").write_text("2000\n0 1\n")
        (cli_env / "c.json").write_text(json.dumps(dict(BASE, graph=graph)))
        assert main(["run", "--config", "c.json", "--out", "out"]) == 1
        assert capsys.readouterr().err == message


class TestFuzz:
    def test_run_configs(self, cli_env, capsys):
        rng = random.Random(1)
        (cli_env / "g.edges").write_text(EDGES)
        base = dict(BASE, graph={"type": "file", "path": "g.edges"})
        codes = set()
        for case in range(60):
            doc = base if case % 4 == 0 else BASE
            text = mutate_doc(rng, doc, rng.randrange(1, 3))
            if case % 5 == 0:
                text = mutate_text(rng, text, rng.randrange(1, 4), chars=JSON_CHARS)
            (cli_env / "c.json").write_text(text, encoding="utf-8")
            command = rng.choice(["run", "report", "gen-graph"])
            codes.add(run_cli(capsys, [command, "--config", "c.json", "--out", "out"]))
        (cli_env / "c.json").write_bytes(b'{"runs": 2\xff}')
        codes.add(run_cli(capsys, ["run", "--config", "c.json", "--out", "out"]))
        (cli_env / "c.json").write_text(json.dumps(dict(base, graph={"type": "file",
                                                                     "path": "."})))
        codes.add(run_cli(capsys, ["run", "--config", "c.json", "--out", "out"]))
        assert codes == {0, 1, 2}

    def test_overrides(self, cli_env, capsys):
        """Each override sets a VALUES, VALID or RAW entry, a bare string or
        (at a HUGE_KEYS key) a huge integer; only the key's text is then
        mutated."""
        rng = random.Random(2)
        (cli_env / "c.json").write_text(json.dumps(BASE))
        keys = [".".join(map(str, p)) for p in paths(BASE)] + ["zz", "graph.zz", ""]
        codes = set()
        for _ in range(60):
            overrides = []
            for _ in range(rng.randrange(1, 3)):
                key, pick = rng.choice(keys), rng.randrange(4)
                if pick == 0:
                    value = rng.choice(RAW)
                elif pick == 1 and key in HUGE_KEYS:
                    value = str(rng.choice(HUGE))
                elif pick == 2 and key in VALID:
                    value = json.dumps(rng.choice(VALID[key]))
                else:
                    value = rng.choice(["x", "global", "[0.5", json.dumps(rng.choice(VALUES))])
                key = mutate_text(rng, key, rng.choice([0, 0, 1, 2]), chars=JSON_CHARS)
                overrides += ["--set", f"{key}={value}" if rng.random() < 0.9 else key]
            codes.add(run_cli(capsys, ["run", "--config", "c.json", "--out", "out",
                                       *overrides]))
        assert codes == {0, 1}

    def test_sweep_documents(self, cli_env, capsys):
        rng = random.Random(3)
        sweep = {"base": BASE, "axes": {"runs": [1, 2], "graph.beta": [0.0, 0.5]}}
        codes = set()
        for _ in range(40):
            (cli_env / "s.json").write_text(mutate_doc(rng, sweep, rng.randrange(1, 4)))
            codes.add(run_cli(capsys, ["sweep", "--config", "s.json", "--out", "out"]))
        assert codes >= {0, 1}

    def test_edge_lists(self, cli_env, capsys):
        rng = random.Random(4)
        (cli_env / "c.json").write_text(json.dumps(dict(
            BASE, graph={"type": "file", "path": "g.edges"})))
        codes = set()
        for _ in range(60):
            (cli_env / "g.edges").write_text(mutated_edge_list(rng), encoding="utf-8")
            codes.add(run_cli(capsys, ["run", "--config", "c.json", "--out", "out"]))
        (cli_env / "g.edges").write_bytes(EDGES.encode() + b"\xff\xfe\n")
        codes.add(run_cli(capsys, ["run", "--config", "c.json", "--out", "out"]))
        assert codes == {0, 1}

    def test_edge_list_readers_agree(self):
        """A plain text builds the same graph through numpy's reader as
        through the line parser, or both reject it."""
        rng = random.Random(5)
        plain = 0
        for case in range(400):
            text = mutated_edge_list(rng, plain=case % 2 == 1)
            arcs = _plain_arcs(text)
            if arcs is None:
                continue
            plain += 1
            try:
                by_numpy = Graph(*arcs)
            except ArcError:
                by_numpy = None
            try:
                by_lines = _load_lines(text)
            except EdgeListError:
                by_lines = None
            assert by_numpy == by_lines, repr(text)
        assert plain >= 100

    def test_series_csvs(self, cli_env, capsys):
        rng = random.Random(6)
        (cli_env / "ref.json").write_text(json.dumps(dict(
            BASE, graph={"type": "directed_cycle", "n": 6})))
        codes = set()
        for case in range(40):
            text = mutate_text(rng, SERIES, rng.randrange(3))
            if case % 10 == 0:
                text += "1," + "9" * 200_000 + "\n"
            (cli_env / "s.csv").write_text(text, encoding="utf-8")
            codes.add(run_cli(capsys, ["fit", "--series", "s.csv", "--config", "ref.json",
                                       "--out", "out"]))
        assert codes == {0, 1}

    def test_thread_counts(self, monkeypatch):
        rng = random.Random(7)
        values = ["", "0", "1", "2", "-1", "x", "1.5", " 2 ", "+3", "1_0", "٣",
                  "9" * 5000]
        values += [mutate_text(rng, "2", rng.randrange(1, 4)).replace("\x00", "")
                   for _ in range(40)]  # an environment value cannot hold NUL
        for value in values:
            monkeypatch.setenv("DIFFUSIM_THREADS", value)
            try:
                workers = worker_count()
            except ValueError as exc:
                assert str(exc).startswith("DIFFUSIM_THREADS must be"), value
            else:
                assert isinstance(workers, int) and workers >= 1, value
