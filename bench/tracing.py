"""Traced execution of one diffusim CLI command, and the per-layer summary.

Run as a child process::

    python3 bench/tracing.py SPANS.json -- sweep --config cfg.json --out dir

It wraps the public entry points of the six modules (graph, dynamics,
metrics, experiment, curvefit, cli) from outside the package, runs
``diffusim.cli.main`` on the given arguments, keeps every span in memory and
writes them to SPANS.json when the command ends.  A span is
``[name, parent_index, start_ns, end_ns, attrs]``; its parent is the span
that was open when it started (commands run serially, so spans nest).

Work the tracer does to count steps and bytes runs after the wrapped call
returns, inside a ``trace.bookkeeping`` span, so it never inflates a layer's
self time.  ``summarize`` turns the spans of one workload iteration into the
per-layer metrics; it uses only the standard library.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("graph", "dynamics", "metrics", "experiment", "curvefit", "cli")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs_of=None):
        """Return ``fn`` wrapped in a span; ``attrs_of(args, kwargs, result)``
        supplies the span's counters."""
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, parent, clock(), 0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_of is not None:
                start = clock()
                span[4] = attrs_of(args, kwargs, result)
                spans.append(["trace.bookkeeping", parent, start, clock(), None])
            return result

        return traced


# -- counters computed at the boundaries ---------------------------------------


def _graph_attrs(args, kwargs, g):
    return {"arcs": g.arc_count}


def _run_attrs(args, kwargs, traj):
    """Kernel steps, infections and trajectory bytes of one dynamics.run.

    The kernel stops at the last infection when every node is infected or
    no susceptible node can ever get a positive probability (absorbed);
    otherwise it runs to ``max_steps``.  Everything after the last infection
    in ``counts`` is padding.
    """
    import numpy as np

    model, g, seeds, scheme, max_steps = args[:5]
    times = traj.infection_time
    infected = times >= 0
    last = int(times.max())
    complete = traj.final_infected == g.n
    if complete:
        absorbed = True
    elif model.kind == "global":
        absorbed = False
    elif model.kind == "fixed" and model.transmission_prob == 0.0:
        absorbed = True
    else:
        arcs = g.arcs
        absorbed = not bool(np.any(infected[arcs[:, 0]] & ~infected[arcs[:, 1]]))
    return {"scheme": scheme,
            "steps": last if absorbed else int(max_steps),
            "infections": traj.final_infected - len(seeds.nodes),
            "entries": int(traj.counts.size),
            "tail": int(traj.counts.size) - 1 - last,
            "bytes": int(traj.counts.nbytes + times.nbytes)}


def _sweep_attrs(args, kwargs, cells):
    return {"cells": len(cells)}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points in every diffusim module that holds them."""
    from diffusim import cli, curvefit, dynamics, experiment, graph, metrics

    targets = [
        (graph, "build_graph", "graph.build", _graph_attrs),
        (graph, "load_edge_list", "graph.load", None),
        (dynamics, "run", "dynamics.run", _run_attrs),
        (dynamics, "seed_random", "dynamics.seed", None),
        (metrics, "evaluate_metric", "metrics.evaluate", None),
        (experiment, "run_ensemble", "experiment.ensemble", None),
        (experiment, "sweep", "experiment.sweep", _sweep_attrs),
        (curvefit, "build_reference_curves", "curvefit.reference", None),
        (curvefit, "fit_series", "curvefit.fit", None),
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "cli.parse", None),
        (cli, "load_config_document", "cli.parse", None),
        (cli, "write_csv", "cli.write", _write_attrs),
    ]
    modules = [m for key, m in sys.modules.items()
               if key == "diffusim" or key.startswith("diffusim.")]
    for home, attr, name, attrs_of in targets:
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, attrs_of)
        for module in modules:  # names bound by "from .x import y" too
            for key, value in vars(module).items():
                if value is original:
                    setattr(module, key, wrapped)
    graph.Graph.fingerprint = tracer.wrap("graph.fingerprint",
                                          graph.Graph.fingerprint)


# -- per-layer summary ---------------------------------------------------------


def _busy(spans, name) -> float:
    """Seconds inside spans called ``name``, counting nested ones once."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[1]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            total += span[3] - span[2]
    return total / 1e9


def _self_times(spans) -> dict:
    """Per-layer self time: span durations minus their children's."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[3] - span[2]
    layers = {}
    for span, t in zip(spans, own):
        layer = span[0].split(".")[0]
        layers[layer] = layers.get(layer, 0) + t
    return {layer: t / 1e9 for layer, t in layers.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(span_lists, parallel_wall_s: float, workers: int) -> dict:
    """Per-layer metrics from the spans of one traced iteration.

    ``span_lists`` holds one span list per traced command.
    ``parallel_wall_s`` is the untraced wall time of the same iteration with
    ``workers`` workers; the pool efficiency is the traced serial busy time
    over ``workers * parallel_wall_s``.
    """
    busy, self_s, counts = {}, {}, {}
    run_ms = []
    for spans in span_lists:
        for name in {span[0] for span in spans}:
            busy[name] = busy.get(name, 0.0) + _busy(spans, name)
        for layer, t in _self_times(spans).items():
            self_s[layer] = self_s.get(layer, 0.0) + t
        for span in spans:
            name, attrs = span[0], span[4] or {}
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            if name == "dynamics.run":
                run_ms.append((span[3] - span[2]) / 1e6)
                scheme = "async" if attrs["scheme"] == "async_single_node" else "sync"
                key = f"dynamics.{scheme}"
                busy[key] = busy.get(key, 0.0) + (span[3] - span[2]) / 1e9
                for field in ("steps", "infections"):
                    counts[f"{key}.{field}"] = counts.get(f"{key}.{field}", 0) + attrs[field]
            for field, value in attrs.items():
                if isinstance(value, int):
                    key = f"{name}.{field}"
                    counts[key] = counts.get(key, 0) + value

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    if len(run_ms) > 1:
        deciles = statistics.quantiles(run_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = run_ms[0] if run_ms else 0.0
    async_steps = c("dynamics.async.steps")
    values = {
        "graph.build.busy_s": (b("graph.build"), "s"),
        "graph.build.calls": (c("graph.build.calls"), "count"),
        "graph.arcs_per_s": (_ratio(c("graph.build.arcs"), b("graph.build")), "1/s"),
        "graph.load.busy_s": (b("graph.load"), "s"),
        "graph.fingerprint.busy_s": (b("graph.fingerprint"), "s"),
        "dynamics.async.busy_s": (b("dynamics.async"), "s"),
        "dynamics.async.steps": (async_steps, "count"),
        "dynamics.async.ns_per_step": (_ratio(b("dynamics.async") * 1e9, async_steps), "ns"),
        "dynamics.async.useful_ratio": (_ratio(c("dynamics.async.infections"), async_steps), "ratio"),
        "dynamics.sync.busy_s": (b("dynamics.sync"), "s"),
        "dynamics.sync.steps": (c("dynamics.sync.steps"), "count"),
        "dynamics.traj_bytes": (c("dynamics.run.bytes"), "bytes"),
        "dynamics.traj_tail_share": (_ratio(c("dynamics.run.tail"), c("dynamics.run.entries")), "ratio"),
        "dynamics.run.calls": (c("dynamics.run.calls"), "count"),
        "dynamics.run.p50_ms": (p50, "ms"),
        "dynamics.run.p90_ms": (p90, "ms"),
        "dynamics.seed.busy_s": (b("dynamics.seed"), "s"),
        "metrics.evaluate.busy_s": (b("metrics.evaluate"), "s"),
        "metrics.evaluate.calls": (c("metrics.evaluate.calls"), "count"),
        "experiment.ensemble.busy_s": (b("experiment.ensemble"), "s"),
        "experiment.sweep.cells": (c("experiment.sweep.cells"), "count"),
        "experiment.pool_efficiency": (
            _ratio(b("cli.main"), workers * parallel_wall_s), "ratio"),
        "curvefit.reference.busy_s": (b("curvefit.reference"), "s"),
        "curvefit.fit.busy_s": (b("curvefit.fit"), "s"),
        "cli.write.busy_s": (b("cli.write"), "s"),
        "cli.write.bytes": (c("cli.write.bytes"), "bytes"),
        "cli.parse.busy_s": (b("cli.parse"), "s"),
        "trace.spans": (sum(len(spans) for spans in span_lists), "count"),
        "trace.bookkeeping_s": (self_s.get("trace", 0.0), "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <diffusim arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from diffusim import cli

    try:
        code = cli.main(argv[2:])
    finally:
        Path(argv[0]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
