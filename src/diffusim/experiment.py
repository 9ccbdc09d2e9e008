"""Ensemble execution, parameter sweeps, and reproducible stream derivation.

Random-stream derivation (stable across versions, relied on by tests):
every stream is ``Generator(PCG64(SeedSequence(master_seed, spawn_key)))``
where the spawn key is a (stream-kind, run-index) pair.  Stream kind 0 feeds
a run's seed selection and dynamics draws; stream kind 1 feeds graph
construction.  Per run the order of consumption is: graph build (only when
the substrate is regenerated for that run), then seed selection, then the
dynamics draws.  Runs therefore commute: records are a pure function of
(config, run_index), whatever the execution order or worker count.

Execution: ensembles and sweeps share one executor.  Configs that share
a graph key (graph spec, master_seed, regenerate flag) draw the identical
graph for every run, so they run together, run-major: run i's graph is
built once and every config with at least i+1 runs uses it.  A sweep uses
one process pool for all its cells.  Since records depend only on
(config, run_index), none of this changes a result.

Ensemble statistics exclude censored runs from mean/std/min/max and tally
them separately; the coefficient of variation is reported only for a
strictly positive mean.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import ModelKind, SCHEMES, SYNCHRONOUS
from .graph import GENERATORS, Graph, GraphSpec, build_graph, canonical_generator
from .metrics import MetricResult, evaluate_metric, metric_label

STREAM_RUN = 0
STREAM_GRAPH = 1

DEFAULT_METRICS = (0.01, (0.01, 0.99))
MAX_STEPS_PER_NODE = 200  # default cap when max_steps is unset


def derive_run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent stream for run ``run_index``'s seeds and dynamics."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(STREAM_RUN, run_index))
    return np.random.Generator(np.random.PCG64(seq))


def derive_graph_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent stream for run ``run_index``'s substrate construction."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(STREAM_GRAPH, run_index))
    return np.random.Generator(np.random.PCG64(seq))


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Fully validated description of one ensemble."""

    graph: GraphSpec
    model: ModelKind
    master_seed: int
    scheme: str = SYNCHRONOUS
    seed_count: int = 1
    runs: int = 1
    max_steps: int | None = None
    regenerate_graph_per_run: bool = True
    metrics: tuple = DEFAULT_METRICS

    def __post_init__(self):
        self.graph.validate()
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: unknown value {self.scheme!r}")
        if self.seed_count < 1:
            raise ValueError("seed_count: must be >= 1")
        if self.graph.n is not None and self.seed_count > self.graph.n:
            raise ValueError("seed_count: must not exceed graph n")
        if self.runs < 1:
            raise ValueError("runs: must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps: must be >= 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed: must be a 64-bit non-negative integer")
        norm = []
        for target in self.metrics:
            if isinstance(target, (tuple, list)):
                if len(target) != 2:
                    raise ValueError(f"metrics: spread pair {list(target)} "
                                     "needs exactly two fractions")
                lo, hi = float(target[0]), float(target[1])
                if not 0.0 < lo < hi <= 1.0:
                    raise ValueError(f"metrics: bad spread pair ({lo}, {hi})")
                norm.append((lo, hi))
            else:
                f = float(target)
                if not 0.0 < f <= 1.0:
                    raise ValueError(f"metrics: fraction {f} outside (0, 1]")
                norm.append(f)
        if not norm:
            raise ValueError("metrics: must name at least one target")
        seen = {}
        for target in norm:
            label = metric_label(target)
            if label in seen:
                raise ValueError(f"metrics: {seen[label]!r} and {target!r} "
                                 f"share the label {label!r}")
            seen[label] = target
        object.__setattr__(self, "metrics", tuple(norm))

    def effective_max_steps(self, n: int) -> int:
        if self.max_steps is not None:
            return self.max_steps
        return MAX_STEPS_PER_NODE * n


_CONFIG_DEFAULTS = {
    "scheme": SYNCHRONOUS,
    "seed_count": 1,
    "runs": 1,
    "max_steps": None,
    "regenerate_graph_per_run": True,
    "metrics": [0.01, [0.01, 0.99]],
}

_GRAPH_KEYS = ("type", "n", "k", "beta", "m_attach", "m0", "path")


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from the plain-dict (config file) form.

    Raises ValueError naming the offending key on unknown keys or bad
    values.  Defaults: scheme=synchronous, seed_count=1, runs=1,
    max_steps=null (meaning 200*n), regenerate_graph_per_run=true,
    metrics=[0.01, [0.01, 0.99]].
    """
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object")
    doc = copy.deepcopy(doc)
    known = {"model", "transmission_prob", "graph", "master_seed"} | set(_CONFIG_DEFAULTS)
    for key in doc:
        if key not in known:
            raise ValueError(f"{key}: unknown config key")
    for key in ("model", "graph", "master_seed"):
        if key not in doc:
            raise ValueError(f"{key}: required config key is missing")

    gdoc = doc["graph"]
    if not isinstance(gdoc, dict):
        raise ValueError("graph: expected an object")
    for key in gdoc:
        if key not in _GRAPH_KEYS:
            raise ValueError(f"graph.{key}: unknown config key")
    if "type" not in gdoc:
        raise ValueError("graph.type: required config key is missing")
    generator = canonical_generator(str(gdoc["type"]))
    if generator not in GENERATORS:
        raise ValueError(f"graph.type: unknown generator {gdoc['type']!r}")
    spec = GraphSpec(
        generator=generator,
        n=None if gdoc.get("n") is None else int(gdoc["n"]),
        k=None if gdoc.get("k") is None else int(gdoc["k"]),
        beta=None if gdoc.get("beta") is None else float(gdoc["beta"]),
        m_attach=None if gdoc.get("m_attach") is None else int(gdoc["m_attach"]),
        m0=None if gdoc.get("m0") is None else int(gdoc["m0"]),
        path=None if gdoc.get("path") is None else str(gdoc["path"]),
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ValueError(f"graph.{exc}") from None

    model_name = str(doc["model"])
    tp = doc.get("transmission_prob")
    try:
        model = dynamics.parse_model(model_name, None if tp is None else float(tp))
    except ValueError as exc:
        raise ValueError(f"model: {exc}") from None

    merged = dict(_CONFIG_DEFAULTS)
    for key in _CONFIG_DEFAULTS:
        if key in doc:
            merged[key] = doc[key]
    try:
        master_seed = int(doc["master_seed"])
    except (TypeError, ValueError):
        raise ValueError("master_seed: must be an integer") from None

    metrics = merged["metrics"]
    if not isinstance(metrics, (list, tuple)):
        raise ValueError("metrics: expected a list")
    return SimConfig(
        graph=spec,
        model=model,
        master_seed=master_seed,
        scheme=str(merged["scheme"]),
        seed_count=int(merged["seed_count"]),
        runs=int(merged["runs"]),
        max_steps=None if merged["max_steps"] is None else int(merged["max_steps"]),
        regenerate_graph_per_run=bool(merged["regenerate_graph_per_run"]),
        metrics=tuple(tuple(m) if isinstance(m, list) else m for m in metrics),
    )


def config_to_dict(config: SimConfig) -> dict:
    """Inverse of config_from_dict (canonical plain-dict form)."""
    g = config.graph
    gdoc = {"type": g.generator}
    for key in ("n", "k", "beta", "m_attach", "m0", "path"):
        value = getattr(g, key)
        if value is not None:
            gdoc[key] = value
    doc = {
        "model": config.model.kind,
        "graph": gdoc,
        "scheme": config.scheme,
        "seed_count": config.seed_count,
        "runs": config.runs,
        "max_steps": config.max_steps,
        "master_seed": config.master_seed,
        "regenerate_graph_per_run": config.regenerate_graph_per_run,
        "metrics": [list(m) if isinstance(m, tuple) else m for m in config.metrics],
    }
    if config.model.kind == "fixed":
        doc["transmission_prob"] = config.model.transmission_prob
    return doc


def set_dotted(doc: dict, dotted_key: str, value) -> None:
    """Assign into a nested dict along a dotted path, creating levels."""
    parts = dotted_key.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def config_fingerprint(config: SimConfig) -> str:
    """Stable 16-hex-digit digest of the canonical config document."""
    payload = json.dumps(config_to_dict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- single runs and ensembles -----------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one run; reproducible from (config, run_index)."""

    run_index: int
    graph_fingerprint: str
    seed_nodes: tuple
    metric_results: tuple  # ((label, MetricResult), ...) in config order
    final_infected: int
    steps_executed: int

    def metric(self, label: str) -> MetricResult:
        for name, result in self.metric_results:
            if name == label:
                return result
        raise KeyError(label)


@dataclass(frozen=True)
class MetricStats:
    """Ensemble summary of one metric over the uncensored runs."""

    mean: float | None
    std: float | None
    cv: float | None
    min: int | None
    max: int | None
    censored_count: int
    runs: int


@dataclass(frozen=True)
class CurveStats:
    """Per-step mean/std of the infected count over all runs.

    Runs shorter than the longest one are continued at their final count
    (a finished run stays where it stopped).  Accumulated in exact integer
    arithmetic, so the result is identical however runs were scheduled.
    """

    mean_fraction: np.ndarray
    std_fraction: np.ndarray
    runs: int
    n: int


@dataclass(frozen=True)
class EnsembleResult:
    records: tuple
    stats: tuple  # ((label, MetricStats), ...) in config metric order
    curve: CurveStats | None
    n: int

    def stat(self, label: str) -> MetricStats:
        for name, stats in self.stats:
            if name == label:
                return stats
        raise KeyError(label)


def _execute_run(config: SimConfig, g: Graph, run_index: int,
                 collect_counts: bool):
    rng = derive_run_rng(config.master_seed, run_index)
    seeds = dynamics.seed_random(g, config.seed_count, rng)
    traj = dynamics.run(config.model, g, seeds, config.scheme,
                        config.effective_max_steps(g.n), rng)
    results = tuple((metric_label(m), evaluate_metric(traj, m))
                    for m in config.metrics)
    record = RunRecord(
        run_index=run_index,
        graph_fingerprint=g.fingerprint(),
        seed_nodes=seeds.nodes,
        metric_results=results,
        final_infected=traj.final_infected,
        steps_executed=traj.steps_executed,
    )
    return record, (traj.counts if collect_counts else None), g.n


def _run_group_chunk(configs, indices, collect_counts: bool):
    """Run ``indices`` of every config in one graph-key group, run-major.

    Each run's graph is built once and shared by the configs that have
    that run (a shared graph once per chunk).  Returns per config
    (outputs, error): the outputs of its runs in index order up to its
    first failing run, whose exception is ``error`` (None if none failed).
    """
    first = configs[0]
    regenerate = first.graph.is_random and first.regenerate_graph_per_run
    outputs = [[] for _ in configs]
    errors = [None] * len(configs)
    g = None
    for i in indices:
        live = [c for c, config in enumerate(configs)
                if i < config.runs and errors[c] is None]
        if not live:
            continue
        if g is None or regenerate:
            rng = None
            if first.graph.is_random:  # a shared graph uses index 0's stream
                rng = derive_graph_rng(first.master_seed, i if regenerate else 0)
            try:
                g = build_graph(first.graph, rng)
            except (ValueError, OSError) as exc:
                for c in live:
                    errors[c] = exc
                continue
        for c in live:
            try:
                outputs[c].append(_execute_run(configs[c], g, i, collect_counts))
            except (ValueError, OSError) as exc:
                errors[c] = exc
    return list(zip(outputs, errors))


def worker_count(env=None) -> int:
    """Worker cap from DIFFUSIM_THREADS (0 = one per CPU; unset = 1)."""
    raw = (os.environ if env is None else env).get("DIFFUSIM_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("DIFFUSIM_THREADS must be an integer") from None
    if value < 0:
        raise ValueError("DIFFUSIM_THREADS must be >= 0")
    if value == 0:
        return os.cpu_count() or 1
    return value


def run_ensemble(config: SimConfig, workers: int = 1,
                 collect_curves: bool = False) -> EnsembleResult:
    """Execute config.runs independent runs and aggregate.

    Output is a pure function of the config: records are derived per
    run_index and aggregation happens in run_index order, so the worker
    count never changes any byte of the result.  Raises the exception of
    the first failing run.
    """
    [(_, result)] = _execute([config], workers, collect_curves)
    if isinstance(result, Exception):
        raise result
    return result


def _execute(configs, workers: int, collect_counts: bool = False):
    """Run every config's ensemble, building each distinct graph once.

    Configs are grouped by graph key; a group is cut into run-index chunks
    (one chunk when serial, else ceil(runs / (4 * workers)) runs each) that
    run in one process pool.  Yields (config position, EnsembleResult or
    the exception of its first failing run) as soon as a group's last
    chunk is in, so only one group's records are held at a time.
    """
    groups = {}  # configs with equal keys draw the same graph for every run
    for position, config in enumerate(configs):
        key = (config.graph, config.master_seed, config.regenerate_graph_per_run)
        groups.setdefault(key, []).append(position)
    tasks = []  # (group members, run indices, is the group's last chunk)
    for members in groups.values():
        runs = max(configs[p].runs for p in members)
        size = runs if workers <= 1 else max(1, math.ceil(runs / (workers * 4)))
        tasks.extend((members, range(start, min(start + size, runs)),
                      start + size >= runs) for start in range(0, runs, size))

    outputs = {position: [] for position in range(len(configs))}
    errors = {}
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1 and len(tasks) > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        parts = mapper(_run_group_chunk,
                       [[configs[p] for p in members] for members, _, _ in tasks],
                       [indices for _, indices, _ in tasks],
                       itertools.repeat(collect_counts))
        for (members, _, last), part in zip(tasks, parts):
            for position, (chunk_outputs, error) in zip(members, part):
                if position not in errors:
                    outputs[position].extend(chunk_outputs)
                    if error is not None:
                        errors[position] = error
            if last:
                for position in members:
                    items = outputs.pop(position)
                    yield position, (errors[position] if position in errors else
                                     _ensemble(configs[position], items,
                                               collect_counts))


def _ensemble(config: SimConfig, outputs, collect_counts: bool) -> EnsembleResult:
    records = tuple(item[0] for item in outputs)
    labels = [metric_label(m) for m in config.metrics]
    stats = tuple((label, _metric_stats(records, label)) for label in labels)
    n = outputs[0][2]
    curve = None
    if collect_counts:
        curve = _accumulate_curve([item[1] for item in outputs], n=n,
                                  runs=config.runs)
    return EnsembleResult(records=records, stats=stats, curve=curve, n=n)


def _metric_stats(records, label: str) -> MetricStats:
    values = []
    censored = 0
    for rec in records:
        result = rec.metric(label)
        if result.censored:
            censored += 1
        else:
            values.append(result.steps)
    if not values:
        return MetricStats(None, None, None, None, None, censored, len(records))
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=0))
    cv = std / mean if mean > 0 else None
    return MetricStats(mean=mean, std=std, cv=cv,
                       min=int(arr.min()), max=int(arr.max()),
                       censored_count=censored, runs=len(records))


def _accumulate_curve(count_arrays, n: int, runs: int) -> CurveStats:
    """Exact integer accumulation of per-step count sums and square sums.

    Extending to a longer horizon credits already-processed runs with their
    final count; integer sums are associative, so any processing order gives
    identical bytes.
    """
    sums = np.zeros(0, dtype=np.int64)
    sumsq = np.zeros(0, dtype=np.int64)
    done_final = 0
    done_final_sq = 0
    for counts in count_arrays:
        length = counts.size
        if length > sums.size:
            grow = length - sums.size
            sums = np.concatenate([sums, np.full(grow, done_final, dtype=np.int64)])
            sumsq = np.concatenate([sumsq, np.full(grow, done_final_sq, dtype=np.int64)])
        sums[:length] += counts
        sumsq[:length] += counts * counts
        final = int(counts[-1])
        sums[length:] += final
        sumsq[length:] += final * final
        done_final += final
        done_final_sq += final * final
    mean_counts = sums / runs
    var = sumsq / runs - mean_counts * mean_counts
    std_counts = np.sqrt(np.clip(var, 0.0, None))
    return CurveStats(mean_fraction=mean_counts / n,
                      std_fraction=std_counts / n, runs=runs, n=n)


# -- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: the dotted-path assignments plus the cell's outcome."""

    assignments: tuple  # ((dotted_key, value), ...) in declared axis order
    stats: tuple | None  # as EnsembleResult.stats, None on failure
    runs: int
    error: str | None = None


def sweep(base: SimConfig, axes, workers: int = 1) -> list:
    """Run one ensemble per cell of the cross-product grid.

    ``axes`` is a sequence of (dotted_key, values) pairs; cells are listed
    in lexicographic order over the declared axis order.  A failing cell is
    recorded with its error message and the sweep continues.  Cells that
    share a graph key run together, each run's graph built once for all of
    them, in one process pool; every cell's result is the one
    ``run_ensemble`` gives for it alone.
    """
    axes = list(axes)
    if not axes:
        raise ValueError("sweep needs at least one axis")
    for key, values in axes:
        if not list(values):
            raise ValueError(f"{key}: empty sweep range")
    base_doc = config_to_dict(base)
    keys = [key for key, _ in axes]
    configs = []
    grid = []  # per cell: assignments, then its config's position or its error
    for combo in itertools.product(*[list(values) for _, values in axes]):
        doc = copy.deepcopy(base_doc)
        for key, value in zip(keys, combo):
            set_dotted(doc, key, value)
        try:
            configs.append(config_from_dict(doc))
            outcome = len(configs) - 1
        except ValueError as exc:
            outcome = str(exc)
        grid.append((tuple(zip(keys, combo)), outcome))

    done = {}  # only the stats are kept, so records never pile up
    for position, result in _execute(configs, workers):
        if isinstance(result, Exception):
            done[position] = dict(stats=None, runs=0, error=str(result))
        else:
            done[position] = dict(stats=result.stats, runs=configs[position].runs)
    return [SweepCell(assignments=assignments,
                      **(done[outcome] if isinstance(outcome, int)
                         else dict(stats=None, runs=0, error=outcome)))
            for assignments, outcome in grid]


# -- exact oracle for the global-model count process --------------------------


def global_count_distribution(n: int, i0: int, steps: int) -> np.ndarray:
    """Exact distribution of the synchronous global-model infected count.

    Row t holds P(I_t = i) for i = 0..n, propagated through
    I_{t+1} = I_t + Binomial(n - I_t, I_t / n).  O(steps * n^2); intended
    for desk-scale n as a test oracle.
    """
    from scipy.stats import binom

    if not 0 <= i0 <= n:
        raise ValueError("i0 must be within [0, n]")
    dist = np.zeros(n + 1)
    dist[i0] = 1.0
    out = np.empty((steps + 1, n + 1))
    out[0] = dist
    for t in range(1, steps + 1):
        nxt = np.zeros(n + 1)
        nxt[0] = dist[0]
        nxt[n] = dist[n]
        for i in range(1, n):
            mass = dist[i]
            if mass == 0.0:
                continue
            pmf = binom.pmf(np.arange(n - i + 1), n - i, i / n)
            nxt[i:] += mass * pmf
        dist = nxt
        out[t] = dist
    return out


def global_count_dp(n: int, i0: int, steps: int) -> np.ndarray:
    """E[I_t] for t = 0..steps under the exact global-count chain."""
    dist = global_count_distribution(n, i0, steps)
    return dist @ np.arange(n + 1, dtype=np.float64)
