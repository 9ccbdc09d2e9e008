"""diffusim benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed first (a
child that imports ``diffusim.cli`` and parses the workload config, median
of several), then the workload's CLI commands run in child processes, one
iteration after another, until ``--seconds`` have passed (at least one
iteration).  Each metric is the median over iterations.

``--trace 1`` gives the per-layer metrics.  It runs one untraced iteration
with the workload's worker count, then an untraced and a traced
(``tracing.py``) serial iteration side by side.  The traced-over-untraced
serial wall time is the tracing overhead.

Both modes check the outputs; failed commands, failed sweep cells and
failed checks are counted against the operations attempted.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
``--smoke`` shrinks every workload to run in seconds (for tests only).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import summarize  # noqa: E402
from workloads import SWEEP_CONFIG, WORKLOADS, Check, digest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s

UNITS = {"wall_s": "s", "runs_per_s": "1/s", "cpu_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


class Tally:
    """Operations attempted and failed; their ratio is the error rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, what: str, failed: int, attempted: int = 1):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes


class Children:
    """Spawns measured child processes under one deadline.

    Only ``spawn`` reaps its child, so a pid stays valid for ``os.kill``
    until the measurement is over.
    """

    def __init__(self, env: dict, log: Path, deadline: float):
        self.env, self.log, self.deadline = env, log, deadline
        self.live = set()

    def spawn(self, cmd, env_extra=None) -> dict:
        """Run ``cmd`` to completion; wall, user+sys CPU (with reaped
        grandchildren such as pool workers) and peak RSS of the largest
        process in the tree."""
        env = dict(self.env, **(env_extra or {}))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            self.live.add(proc.pid)
            killer = threading.Timer(timeout, _kill, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
                self.live.discard(proc.pid)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def kill_all(self) -> None:
        for pid in list(self.live):
            _kill(pid)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_iteration(workload, children, tally, out: Path, command, env_extra):
    """One workload iteration; returns its per-command measurements."""
    out.mkdir(parents=True, exist_ok=True)
    records = []

    def cli(argv):
        rec = children.spawn(command(argv, len(records)), env_extra)
        records.append(rec)
        tally.add(f"exit {rec['code']}: diffusim {argv[0]}", int(rec["code"] != 0))
        return rec["code"]

    workload.iteration(cli, out)
    attempted, failed = workload.sweep_cells(out)
    tally.add(f"{failed} failed sweep cell(s)", failed, attempted)
    return records


def cli_command(argv, _index):
    return [sys.executable, "-m", "diffusim.cli"] + list(argv)


def run_checks(workload, out: Path, tally: Tally, digests) -> None:
    try:
        checks = workload.check(out)
    except Exception as exc:  # malformed output fails the check, not the runner
        checks = [Check("outputs readable", False, repr(exc))]
    for check in checks:
        tally.add(f"check {check.name}: {check.detail}", int(not check.ok))
    for other in digests[1:]:
        tally.add("outputs differ between repetitions", int(other != digests[0]))
    store = ROOT / ".bench_work" / "digests.json"
    key = f"{workload.name}:{workload.seed}:{int(workload.smoke)}"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        tally.add("outputs differ from an earlier run", int(known[key] != digests[0]))
    else:
        known[key] = digests[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)


def measure(workload, children, tally, seconds: float) -> tuple:
    """Untraced end-to-end metrics (medians over iterations)."""
    probe = [sys.executable, str(BENCH / "probe.py")] + workload.setup_probe_args()
    setups = []

    def time_setup(repeats):
        for _ in range(repeats):
            rec = children.spawn(probe)
            tally.add(f"exit {rec['code']}: set-up probe", int(rec["code"] != 0))
            setups.append(rec["wall_s"])

    children.spawn(probe)  # warm-up: bytecode cache and file cache
    repeats = 2 if workload.smoke else SETUP_REPEATS
    # half before and half after the iterations, so the median spans the run
    time_setup(repeats // 2)
    iterations, digests = [], []
    start = time.monotonic()
    while True:
        out = workload.work / f"out-{len(iterations)}"
        records = run_iteration(workload, children, tally, out,
                                cli_command, {"DIFFUSIM_THREADS": str(workload.workers)})
        iterations.append(records)
        digests.append(digest(out, workload.outputs))
        if len(iterations) > 1:
            shutil.rmtree(out)
        if any(r["code"] for r in records) or time.monotonic() - start >= seconds:
            break
    time_setup(repeats - repeats // 2)
    run_checks(workload, workload.work / "out-0", tally, digests)

    walls = [sum(r["wall_s"] for r in recs) for recs in iterations]
    return {
        "wall_s": statistics.median(walls),
        "runs_per_s": statistics.median(workload.runs_per_iteration / w for w in walls),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in recs) for recs in iterations),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in recs)
                                         for recs in iterations),
        "setup_s": statistics.median(setups),
    }, {"iteration_wall_s": walls, "setup_s_samples": setups}


def trace(workload, children, tally) -> dict:
    """Per-layer metrics from one traced serial iteration.

    The untraced serial iteration runs at the same time as the traced one,
    one per CPU, so both see the same machine and their wall-time difference
    is the tracing overhead.
    """
    untraced = run_iteration(workload, children, tally, workload.work / "untraced",
                             cli_command, {"DIFFUSIM_THREADS": str(workload.workers)})
    spans_dir = workload.work / "spans"
    spans_dir.mkdir()

    def traced_command(argv, index):
        return [sys.executable, str(BENCH / "tracing.py"),
                str(spans_dir / f"{index}.json"), "--"] + list(argv)

    serial = {"DIFFUSIM_THREADS": "1"}
    tallies = [Tally(), Tally()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        base_run = pool.submit(run_iteration, workload, children, tallies[0],
                               workload.work / "serial", cli_command, serial)
        traced_run = pool.submit(run_iteration, workload, children, tallies[1],
                                 workload.work / "traced", traced_command, serial)
        base, traced = base_run.result(), traced_run.result()
    for other in tallies:
        tally.merge(other)
    outs = [workload.work / name for name in ("traced", "untraced", "serial")]
    run_checks(workload, outs[0], tally, [digest(o, workload.outputs) for o in outs])

    span_lists = [json.loads(p.read_text())
                  for p in sorted(spans_dir.glob("*.json"), key=lambda p: int(p.stem))]
    untraced_wall = sum(r["wall_s"] for r in untraced)
    base_wall = sum(r["wall_s"] for r in base)
    traced_wall = sum(r["wall_s"] for r in traced)
    values = summarize(span_lists, untraced_wall, workload.workers)
    values["trace.untraced_wall_s"] = (base_wall, "s")
    values["trace.traced_wall_s"] = (traced_wall, "s")
    values["trace.overhead_share"] = (traced_wall / base_wall - 1.0, "ratio")
    return values


def environment(workload, seconds, trace_flag, children) -> dict:
    env = {"workload": workload.name, "seed": workload.seed,
           "workers": workload.workers, "seconds": seconds, "trace": trace_flag,
           "smoke": workload.smoke, "nproc": os.cpu_count(), "git_commit": None}
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = h.hexdigest()
    versions = workload.work / "versions.json"
    with open(versions, "w") as handle:
        subprocess.run([sys.executable, str(BENCH / "probe.py"), "--versions"],
                       cwd=ROOT, env=children.env, stdout=handle, check=False)
    try:
        env.update(json.loads(versions.read_text()))
    except ValueError:
        pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (Path("src/diffusim/cli.py"), SWEEP_CONFIG)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found under {ROOT}; "
              "run the benchmark from a diffusim source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be within [0, 2**64)", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}{'-smoke' * args.smoke}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.smoke)
    workload.prepare()
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    children = Children(dict(os.environ, PYTHONPATH=pythonpath),
                        work / "children.log", deadline)

    def terminate(*_):
        children.kill_all()
        sys.exit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, terminate)
    tally = Tally()

    if args.trace:
        values, samples = trace(workload, children, tally), {}
    else:
        measured, samples = measure(workload, children, tally, args.seconds)
        values = {name: (value, UNITS[name]) for name, value in measured.items()}
    env = environment(workload, args.seconds, args.trace, children)

    error_rate = tally.failed / tally.attempted
    for name, (value, unit) in values.items():
        print(f"{args.workload:18} {name:30} {value:14.6g} {unit}")
    print(f"{args.workload:18} {'error_rate':30} {error_rate:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"failed: {note}")
    if samples:
        print("samples " + json.dumps(samples))
    print("environment " + json.dumps(env, sort_keys=True))

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, error_rate=error_rate, samples=samples,
                        environment=env), indent=1))
    shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
