"""Every byte pin of the command line, in one table. ``python tests/pins.py`` runs
each pin (about 25 s) through ``python -m diffusim.cli`` on this checkout, in a
temporary directory that holds its documents and links the checkout's ``configs/``,
``reports/`` and ``src/``. A command must exit 0. A check is ("sha256", file,
digest), ("same", file, other[, CSV columns left out]) or ("exit", command, code, a
line of its stderr), and that command must also print no ``internal error`` and
leave no --out. One line is printed per check; the status is 1 if any fails.
"""
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Pin = namedtuple("Pin", "name note docs commands checks")


def file_graph(path: str) -> str:
    return "graph=" + shlex.quote(json.dumps({"type": "file", "path": path}))


def crlf_copy(tmp: Path) -> None:
    """ws-graph/graph.edges with CRLF line ends, as ``sed 's/$/\\r/'`` writes it."""
    edges = (tmp / "ws-graph/graph.edges").read_bytes()
    (tmp / "ws-graph/crlf.edges").write_bytes(edges.replace(b"\n", b"\r\n"))


LOGISTIC = b"value\n" + "".join(
    f"{1 / (1 + math.exp(-(t - 60) / 8)):.6f}\n" for t in range(120)).encode()
BA2000 = {"model": "global", "scheme": "async_single_node", "master_seed": 7, "runs": 5,
          "regenerate_graph_per_run": False,
          "graph": {"type": "barabasi_albert", "n": 2000, "m_attach": 3}}
CYCLE = {"model": "group", "master_seed": 1, "graph": {"type": "cycle", "n": 3}}
FIXED, SYNC = "--set model=fixed --set transmission_prob=0.1", "--set scheme=synchronous"
FIT = "fit --series logistic.csv --set graph.n="

PINS = [
    Pin("sweep", "the committed calibration sweep, through the worker pool", {},
        ["DIFFUSIM_THREADS=2 sweep --config configs/onset_spread_sweep.json --out sweep"],
        [("same", "sweep/sweep_summary.csv", "reports/onset_spread_sweep_summary.csv")]),
    Pin("edge-lists", "digests recorded before BA kept its endpoints in one int64 array and "
        "while WS rewiring kept a set of every edge; a file graph has no k or beta",
        {"ba.json": {"model": "fixed", "transmission_prob": 0.05, "scheme": "synchronous",
                     "master_seed": 7, "runs": 3, "regenerate_graph_per_run": False,
                     "graph": {"type": "barabasi_albert", "n": 50000, "m_attach": 3}},
         "ws.json": {"model": "group", "master_seed": 7,
                     "graph": {"type": "watts_strogatz", "n": 100000, "k": 10, "beta": 0.1}}},
        ["gen-graph --config ba.json --out ba-graph", "run --config ba.json --out ba-built",
         f"run --config ba.json --out ba-file --set {file_graph('ba-graph/graph.edges')}",
         "gen-graph --config ws.json --out ws-graph", crlf_copy,
         "run --config ws.json --set runs=1 --out ws-run",  # one run draws graph stream 0
         *(f"run --config ws.json --set runs=1 --out ws-run-{edges} "
           f"--set {file_graph(f'ws-graph/{edges}.edges')}" for edges in ("graph", "crlf"))],
        [("sha256", "ba-graph/graph.edges", "7d70f86493314d3f3be0b95bc350994542d6b16aebb0415b55a939b54465dc66"),
         ("same", "ba-built/runs.csv", "ba-file/runs.csv"),
         ("same", "ba-built/summary.csv", "ba-file/summary.csv"),
         ("sha256", "ws-graph/graph.edges", "590aec4cf26a379eccc8fa3ff223d45ecc6768c06660cf8148b2743b09474ac7"),
         *(check for edges in ("graph", "crlf") for check in (
             ("same", "ws-run/runs.csv", f"ws-run-{edges}/runs.csv", ("k", "beta")),
             ("same", "ws-run/summary.csv", f"ws-run-{edges}/summary.csv"))),
         ("same", "ws-run-graph/runs.csv", "ws-run-crlf/runs.csv")]),
    Pin("ws-async-fixed", "the one 10^5 run that walks arcs; digest recorded while Graph kept "
        "a per-arc source array", {"ws_fixed.json": {"model": "fixed", "transmission_prob": 0.5,
            "seed_count": 8, "runs": 1, "scheme": "async_single_node", "master_seed": 20260814,
            "graph": {"type": "watts_strogatz", "n": 100000, "k": 10, "beta": 0.05}}},
        ["run --config ws_fixed.json --out ws-fixed"],
        [("sha256", "ws-fixed/runs.csv", "6cd3d40d167470d8fb588e55403452a1d7c30ad788ef752e0302830be8bffd5a")]),
    Pin("reports", "digests recorded before both kernels read one rule table and (2,593,338 "
        "rows) while a global report built its graph",
        {"async.json": BA2000, "large.json": {**BA2000, "master_seed": 1, "runs": 2,
                                              "graph": {**BA2000["graph"], "n": 100000}}},
        [*(f"report --config async.json --out {out} {flags}" for out, flags in (
            ("async-global", ""), ("async-group", "--set model=group"),
            ("async-fixed", FIXED), ("sync-global", SYNC),
            ("sync-group", f"{SYNC} --set model=group"), ("sync-fixed", f"{SYNC} {FIXED}"))),
         "report --config large.json --out large",
         "DIFFUSIM_THREADS=2 report --config large.json --out large-2"],
        [*(("sha256", f"{out}/curve.csv", digest) for out, digest in (
            ("async-global", "bfe6ec7c48c494ccc4736c77303d418480524e232dd200fe96d1ab588771ff14"),
            ("async-group", "5dfb93fc02b55e3ee8e1984276a1b28dc7e774124734f48c95c6998d7ee683f8"),
            ("async-fixed", "bee41c76178341f1bf7f1bdf8ba2752f1c30c1a628e898134246ec058238e8a3"),
            ("sync-global", "e33132071f04aa86ad02dc39e460cbab9bf57ea9857cc459b4f9d287175a639e"),
            ("sync-group", "2723a63e6471764560bfec67a29705acb79c11e503254f4b96b40ad45bdfabc4"),
            ("sync-fixed", "14430072df3c277ae1cd148f43e4a2283017ee5be328082398af140f2c634408"),
            ("large", "6754aff8a421facc67ab8c4edfb3d65e317403873b3d90996391312e5c7c0441"))),
         ("same", "large/curve.csv", "large-2/curve.csv")]),
    Pin("fit", "digests recorded before histories were narrowed; ROADMAP item 4 re-records "
        "them; the packaged reference is fit's default --config", {"logistic.csv": LOGISTIC},
        [*(f"DIFFUSIM_THREADS={t} {FIT}20000 --set runs=4 --out fit-{t} --config "
           "src/diffusim/data/reference_config.json" for t in (1, 2)),
         f"{FIT}20000 --set runs=4 --out fit-default",
         *(f"DIFFUSIM_THREADS={t} {FIT}100000 --set runs=2 --out fit-large-{t}" for t in (1, 2))],
        [("sha256", "fit-1/fit.csv", "67adf4cb6a5c513ae6c72eef99916456998c1fe9a4876f43f84dc25bc55af041"),
         ("same", "fit-1/fit.csv", "fit-2/fit.csv"),
         ("same", "fit-1/fit.csv", "fit-default/fit.csv"),
         ("sha256", "fit-large-1/fit.csv", "048f3525d418664a04400bfe277699ab6e7e2f3239b3c7ef8cb35477c095911c"),
         ("same", "fit-large-1/fit.csv", "fit-large-2/fit.csv")]),
    Pin("errors", "a parser's limit exits 1, not 3 (an argument holds 128 KiB, so 50,000 "
        "deep); global reads only n, so complete(10^6) runs without the arcs group needs; "
        "a fit whose every node is a seed names seed_count",
        {"deep.json": b"[" * 200000 + b"]" * 200000 + b"\n", "cycle.json": CYCLE,
         "long.csv": b"value\n" + b"1" * 200000 + b"\n", "bytes.edges": b"\xff\xfe3\n0 1\n",
         "dup.json": b'{"model": "group", "runs": 1, "runs": 3}\n',
         "base.json": {"base": 5, "axes": {"runs": [1]}},
         "curve.json": {**CYCLE, "model": "fixed", "transmission_prob": 0.0, "runs": 2,
                        "max_steps": 10 ** 15, "graph": {"type": "cycle", "n": 5}},
         "complete.json": {**CYCLE, "model": "global", "runs": 1, "max_steps": 10,
                           "graph": {"type": "complete", "n": 1000000}},
         "logistic.csv": LOGISTIC,
         "seeds.json": {**CYCLE, "model": "fixed", "transmission_prob": 0.5, "seed_count": 5,
                        "graph": {"type": "cycle", "n": 5}}},
        ["run --config complete.json --out global"],
        [("exit", "run --config deep.json --out deep", 1, "error: deep.json: JSON nests too deeply"),
         ("exit", "sweep --config configs/onset_spread_sweep.json --out deep --set "
          f"x={'[' * 50000}{']' * 50000}", 1, "error: override 'x': value nests too deeply"),
         ("exit", "fit --series long.csv --out long", 1,
          "error: long.csv: line 2: field larger than field limit (131072)"),
         ("exit", "run --config dup.json --out dup", 1, "error: dup.json: duplicate key 'runs'"),
         ("exit", "sweep --config base.json --out base", 1, "error: base: expected an object"),
         ("exit", "run --config cycle.json --out scalar --set model.x=1", 1,
          "error: model.x: 'model' is not an object"),
         ("exit", f"run --config cycle.json --out nofile --set {file_graph('missing.edges')}", 2,
          "i/o error: graph.path: missing.edges: No such file or directory"),
         ("exit", f"run --config cycle.json --out bytes --set {file_graph('bytes.edges')}", 1,
          "error: graph.path: bytes.edges: 'utf-8' codec can't decode byte 0xff in position 0: "
          "invalid start byte"),
         ("exit", "report --config curve.json --out curve", 1,
          "error: max_steps: a curve of 1000000000000001 steps does not fit in memory"),
         ("sha256", "global/runs.csv", "6aa17666d4474609df1b348392d9052b98ff14d050ed9f4cb29dc453c10f3acd"),
         ("exit", "run --config complete.json --out group --set model=group", 1,
          "error: graph.n: 1000000 does not fit in memory"),
         ("exit", "fit --series logistic.csv --config seeds.json --out seeds", 1,
          "error: seed_count: must be below graph n (5) for a reference curve")]),
]


def read(path: Path, drop=()):
    """The file's bytes without the named CSV columns, or None if it is missing."""
    data = path.read_bytes() if path.is_file() else None
    if data is None or not drop:
        return data
    rows = [row.split(b",") for row in data.split(b"\n")]
    gone = {i for i, name in enumerate(rows[0]) if name.decode() in drop}
    return b"\n".join(b",".join(f for i, f in enumerate(row) if i not in gone) for row in rows)


def run(tmp: Path, command: str, code=0, line=None) -> tuple:
    """(whether ``command``, run in ``tmp``, exits as expected, what it checked)."""
    words = shlex.split(command)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    while "=" in words[0]:
        env.update([words.pop(0).split("=", 1)])
    done = subprocess.run([sys.executable, "-m", "diffusim.cli", *words],
                          cwd=tmp, env=env, capture_output=True, text=True, errors="replace")
    out = words[words.index("--out") + 1]
    clean = line in done.stderr.splitlines() and "internal error" not in done.stderr
    ok = done.returncode == code and (code == 0 or clean and not (tmp / out).exists())
    what = f"{words[0]} --out {out} exits {code}" + (f": {line}" if line else "")
    return ok, what if ok else f"{what}; got {done.returncode}: {done.stderr[-400:]!r}"


def compare(tmp: Path, kind: str, path: str, want: str, drop=()) -> tuple:
    """(whether a sha256 or same check holds, what it compared)."""
    ours = read(tmp / path, drop)
    if kind == "sha256":
        got = ours is not None and hashlib.sha256(ours).hexdigest()
        return got == want, f"sha256 {path} expected {want} actual {got or 'missing'}"
    same = ours is not None and ours == read(tmp / want, drop)
    return same, f"same {path} {want}" + (f" without {', '.join(drop)}" if drop else "")


def main(pins=PINS) -> int:
    failed = False
    for pin in pins:
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            for repo_dir in ("configs", "reports", "src"):
                (tmp / repo_dir).symlink_to(ROOT / repo_dir)
            for file, doc in pin.docs.items():
                (tmp / file).write_bytes(json.dumps(doc).encode() if isinstance(doc, dict) else doc)
            results = [run(tmp, c) if isinstance(c, str) else c(tmp) for c in pin.commands]
            results += [run(tmp, *c[1:]) if c[0] == "exit" else compare(tmp, *c)
                        for c in pin.checks]
        for ok, what in filter(None, results):
            print(f"{pin.name}: {'ok' if ok else 'mismatch'} {what}", flush=True)
            failed |= not ok
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
