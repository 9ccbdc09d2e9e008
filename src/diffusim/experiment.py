"""Ensemble execution, parameter sweeps, and reproducible stream derivation.

Random-stream derivation (stable across versions, relied on by tests):
every stream is ``Generator(PCG64(SeedSequence(master_seed, spawn_key)))``
where the spawn key is a (stream-kind, run-index) pair.  Stream kind 0 feeds
a run's seed selection and dynamics draws; stream kind 1 feeds graph
construction.  Per run the order of consumption is: graph build (only when
the substrate is regenerated for that run), then seed selection, then the
dynamics draws.  Runs therefore commute: records are a pure function of
(config, run_index), whatever the execution order or worker count.

Execution: ensembles and sweeps share one executor.  Configs with the
same dynamics key give the same ensemble, so it runs once and every one
of them gets it.  A global run reads only n (its seeds and its rule see
nothing else of the graph), so a global config's key is (n, scheme,
seed_count, effective max_steps, master_seed, runs, metrics); a ``file``
spec keeps the spec itself in place of n, since n, and any load error,
come from the file.  Any other config is its own key.  Configs that share
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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import dynamics
from .dynamics import ModelKind, SCHEMES, SYNCHRONOUS
from .graph import (Graph, GraphSpec, build_graph, check_field_types,
                    config_key, config_value)
from .metrics import evaluate_metric, metric_label

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
    """Fully validated description of one ensemble.

    The field declarations are the config schema: the document keys, their
    types and their defaults all derive from them (see config_from_dict).
    """

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
        check_field_types(self)
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
                lo, hi = (config_value("metrics", "float", f) for f in target)
                if not 0.0 < lo < hi <= 1.0:
                    raise ValueError(f"metrics: bad spread pair ({lo}, {hi})")
                norm.append((lo, hi))
            else:
                f = config_value("metrics", "float", target)
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


def _items(obj) -> list:
    """(config key, value) per field of a config dataclass, in declared order."""
    return [(config_key(f), getattr(obj, f.name)) for f in fields(obj)]


def _arguments(cls, doc: dict, prefix: str = "") -> dict:
    """Keyword arguments for dataclass ``cls`` from the keys of ``doc`` it
    declares; a key whose field has no default must be present."""
    args = {}
    for f in fields(cls):
        if config_key(f) in doc:
            args[f.name] = doc[config_key(f)]
        elif f.default is MISSING:
            raise ValueError(f"{prefix}{config_key(f)}: required config key is missing")
    return args


def _reject_unknown(doc: dict, classes, prefix: str = "") -> None:
    known = {config_key(f) for cls in classes for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ValueError(f"{prefix}{key}: unknown config key")


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from the plain-dict (config file) form.

    The keys are SimConfig's fields, except that the model is given by
    ModelKind's (``model`` names the kind, beside ``transmission_prob``),
    and ``graph`` is an object of GraphSpec's (``type`` names the
    generator).  Omitted keys take the field defaults.  Raises ValueError
    naming the offending dotted key.
    """
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object")
    _reject_unknown(doc, (SimConfig, ModelKind))
    args = _arguments(SimConfig, doc)
    model_args = _arguments(ModelKind, doc)
    try:
        args["model"] = ModelKind(**model_args)
    except ValueError as exc:
        raise ValueError(f"model: {exc}") from None
    gdoc = args["graph"]
    if not isinstance(gdoc, dict):
        raise ValueError("graph: expected an object")
    _reject_unknown(gdoc, (GraphSpec,), "graph.")
    graph_args = _arguments(GraphSpec, gdoc, "graph.")
    try:
        args["graph"] = GraphSpec(**graph_args)
    except ValueError as exc:
        raise ValueError(f"graph.{exc}") from None
    return SimConfig(**args)


def config_to_dict(config: SimConfig) -> dict:
    """Inverse of config_from_dict (canonical plain-dict form).

    Unset (None) model and graph fields are left out.
    """
    doc = {}
    for key, value in _items(config):
        if key == "graph":
            value = {k: v for k, v in _items(value) if v is not None}
        elif key == "model":
            doc.update((k, v) for k, v in _items(value) if v is not None)
            continue
        elif key == "metrics":
            value = [list(m) if isinstance(m, tuple) else m for m in value]
        doc[key] = value
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
    metric_results: tuple  # ((label, steps or None), ...) in config order
    final_infected: int
    steps_executed: int

    def metric(self, label: str) -> int | None:
        return dict(self.metric_results)[label]


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


@dataclass(frozen=True)
class EnsembleResult:
    records: tuple
    stats: tuple  # ((label, MetricStats), ...) in config metric order
    curve: CurveStats | None
    n: int


def _execute_run(config: SimConfig, g: Graph, run_index: int,
                 collect_curves: bool):
    rng = derive_run_rng(config.master_seed, run_index)
    seeds = dynamics.seed_random(g, config.seed_count, rng)
    traj = dynamics.run(config.model, g, seeds, config.scheme,
                        config.effective_max_steps(g.n), rng)
    results = tuple((metric_label(m), evaluate_metric(traj, m))
                    for m in config.metrics)
    record = RunRecord(
        run_index=run_index,
        metric_results=results,
        final_infected=traj.final_infected,
        steps_executed=traj.steps_executed,
    )
    history = (traj.sorted_times, traj.steps_executed) if collect_curves else None
    return record, history, g.n


def run_graph(config: SimConfig, run_index: int) -> Graph:
    """The graph run ``run_index`` uses: a random graph is drawn from graph
    stream ``run_index``, or from index 0's when it is shared by all runs."""
    spec, rng = config.graph, None
    if spec.is_random:
        shared = not config.regenerate_graph_per_run
        rng = derive_graph_rng(config.master_seed, 0 if shared else run_index)
    try:
        return build_graph(spec, rng)
    except MemoryError:  # the loader itself names an edge list's header line
        key, value = ("path", spec.path) if spec.generator == "file" else ("n", spec.n)
        raise ValueError(f"graph.{key}: {value} does not fit in memory") from None


def _run_group_chunk(configs, indices, collect_curves: bool):
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
            try:
                g = run_graph(first, i)
            except (ValueError, OSError) as exc:
                for c in live:
                    errors[c] = exc
                continue
        for c in live:
            try:
                outputs[c].append(_execute_run(configs[c], g, i, collect_curves))
            except (ValueError, OSError) as exc:
                errors[c] = exc
    return list(zip(outputs, errors))


def worker_count() -> int:
    """Worker cap from DIFFUSIM_THREADS (0 = one per CPU; unset = 1)."""
    raw = os.environ.get("DIFFUSIM_THREADS")
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


def _dynamics_key(config: SimConfig):
    """What a config's records are a function of (see the module docstring)."""
    if config.model.kind != "global":
        return config
    spec = config.graph
    if spec.generator == "file":
        n, cap = spec, config.max_steps
    else:
        n, cap = spec.n, config.effective_max_steps(spec.n)
    return (n, config.scheme, config.seed_count, cap, config.master_seed,
            config.runs, config.metrics)


def _execute(configs, workers: int, collect_curves: bool = False):
    """Run every distinct ensemble once, building each distinct graph once.

    The first config of each dynamics key runs for all that share it.
    These are grouped by graph key; a group is cut into run-index chunks
    (one chunk when serial, else ceil(runs / (4 * workers)) runs each) that
    run in one process pool, never of more workers than chunks.  Yields
    (config position, EnsembleResult or the exception of its first failing
    run) as soon as a group's last chunk is in, so only one group's records
    are held at a time.
    """
    by_key = {}  # dynamics key -> positions of the configs that have it
    for position, config in enumerate(configs):
        by_key.setdefault(_dynamics_key(config), []).append(position)
    sharers = {positions[0]: positions for positions in by_key.values()}
    groups = {}  # configs with equal keys draw the same graph for every run
    for position in sharers:
        config = configs[position]
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
            pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
            mapper = stack.enter_context(pool).map
        parts = mapper(_run_group_chunk,
                       [[configs[p] for p in members] for members, _, _ in tasks],
                       [indices for _, indices, _ in tasks],
                       itertools.repeat(collect_curves))
        for (members, _, last), part in zip(tasks, parts):
            for position, (chunk_outputs, error) in zip(members, part):
                if position not in errors:
                    outputs[position].extend(chunk_outputs)
                    if error is not None:
                        errors[position] = error
            if last:
                for position in members:
                    items = outputs.pop(position)
                    result = (errors[position] if position in errors else
                              _ensemble(configs[position], items, collect_curves))
                    for sharer in sharers[position]:
                        yield sharer, result


def _ensemble(config: SimConfig, outputs, collect_curves: bool) -> EnsembleResult:
    records = tuple(item[0] for item in outputs)
    labels = [metric_label(m) for m in config.metrics]
    stats = tuple((label, _metric_stats(records, label)) for label in labels)
    n = outputs[0][2]
    curve = None
    if collect_curves:
        curve = _accumulate_curve([item[1] for item in outputs], n=n)
    return EnsembleResult(records=records, stats=stats, curve=curve, n=n)


def _metric_stats(records, label: str) -> MetricStats:
    values = [v for v in (rec.metric(label) for rec in records) if v is not None]
    censored = len(records) - len(values)
    if not values:
        return MetricStats(None, None, None, None, None, censored, len(records))
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=0))
    cv = std / mean if mean > 0 else None
    return MetricStats(mean=mean, std=std, cv=cv,
                       min=int(arr.min()), max=int(arr.max()),
                       censored_count=censored, runs=len(records))


def _accumulate_curve(histories, n: int) -> CurveStats:
    """Exact integer per-step sums and square sums of the infected count.

    Each history is a run's sorted infection times and its last step.  The
    sums are difference arrays over the longest run's horizon: the i-th
    infection adds 1 to the count and 2i - 1 to its square, and a run that
    ended earlier keeps its final count.  Integer sums are associative, so
    any processing order gives identical bytes.
    """
    horizon = max(steps for _, steps in histories) + 1
    sums = np.zeros(horizon, dtype=np.int64)
    sumsq = np.zeros(horizon, dtype=np.int64)
    for times, _ in histories:
        np.add.at(sums, times, 1)
        np.add.at(sumsq, times, 2 * np.arange(1, times.size + 1, dtype=np.int64) - 1)
    mean_counts = np.cumsum(sums) / len(histories)
    var = np.cumsum(sumsq) / len(histories) - mean_counts * mean_counts
    std_counts = np.sqrt(np.clip(var, 0.0, None))
    return CurveStats(mean_fraction=mean_counts / n, std_fraction=std_counts / n)


# -- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: the dotted-path assignments plus the cell's outcome."""

    assignments: tuple  # ((dotted_key, value), ...) in declared axis order
    stats: tuple | None  # as EnsembleResult.stats, None on failure
    error: str | None = None


def sweep(base: SimConfig, axes, workers: int = 1) -> list:
    """Run one ensemble per cell of the cross-product grid.

    ``axes`` is a sequence of (dotted_key, values) pairs; cells are listed
    in lexicographic order over the declared axis order.  A failing cell is
    recorded with its error message and the sweep continues.  Cells that
    share a dynamics key share one ensemble, and cells that share a graph
    key run together, each run's graph built once for all of them, in one
    process pool; every cell's result is the one ``run_ensemble`` gives
    for it alone.
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

    done = {}  # (stats, error) only, so records never pile up
    for position, result in _execute(configs, workers):
        failed = isinstance(result, Exception)
        done[position] = (None, str(result)) if failed else (result.stats, None)
    return [SweepCell(assignments, *(done[outcome] if isinstance(outcome, int)
                                     else (None, outcome)))
            for assignments, outcome in grid]
