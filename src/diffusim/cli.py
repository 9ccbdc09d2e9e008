"""Batch command-line surface.

Subcommands:

* gen-graph  build the configured substrate and write graph.edges
* run        execute one ensemble; write runs.csv and summary.csv
* sweep      cross-product grid of ensembles; write sweep_summary.csv
* fit        classify an observed series; write fit.csv
* report     per-step mean/std adoption curve for plotting; write curve.csv

Configs are single JSON documents; ``--set key=value`` overrides apply
dotted paths (graph.n=500) after the file parses, in flag order, with the
value parsed as JSON when possible and kept as a string otherwise.

Every CSV is written atomically (temp file, then rename), uses LF line
endings, and formats floats with shortest round-trip decimals, so identical
configs yield byte-identical files whatever DIFFUSIM_THREADS says.

Exit codes: 0 success, 1 usage or validation error, 2 I/O error,
3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .curvefit import (REFERENCE_CONFIG, build_reference_curves, fit_input,
                       fit_series, normalize_series)
from .experiment import (DEFAULT_METRICS, EnsembleResult, SimConfig,
                         config_from_dict, run_ensemble, run_graph, set_dotted,
                         sweep, sweep_axes, worker_count)
from .graph import decimal_int, save_edge_list
from .metrics import metric_label

RUNS_COLUMNS = ["run_index", "model", "scheme", "n", "k", "beta",
                "seed_count", "master_seed", "t_to_pct1", "t_1_to_99",
                "censored_1", "censored_99", "final_infected", "steps_executed"]
SUMMARY_COLUMNS = ["metric", "mean", "std", "cv", "min", "max",
                   "censored_count", "runs"]
FIT_COLUMNS = ["model", "sse", "time_scale", "time_offset", "amplitude", "best"]
CURVE_COLUMNS = ["t", "mean_fraction", "std_fraction"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); that code means I/O here
        raise ValueError(message)


# -- formatting and atomic writes ---------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)  # Python scalars only: str of a float is its shortest repr


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a temp file in the target directory; the file is
    renamed onto ``path`` when the block completes, and removed if it fails.
    Mode "x" creates it exclusively, with the mode ``open`` gives a new file
    (0o666 less the umask); its name carries 64 random bits."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows=(), blocks=()) -> None:
    """Atomic CSV write (see atomic_open): the header, the ``rows`` (lists
    of cells), then the ``blocks`` (whole rows already in CSV text)."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        handle.writelines(blocks)


def _curve_blocks(blocks):
    """The rows ``t, mean[t], std[t]`` of the (first t, mean, std) ``blocks`` as
    ``write_csv`` would format them, a text per block.  Each run of rows whose
    (mean, std) bits repeat builds its ``,mean,std`` tail once; bits, so 0.0
    and -0.0 are never merged."""
    for lo, m, s in blocks:
        mb, sb = m.view(np.int64), s.view(np.int64)
        starts = np.flatnonzero(np.r_[True, (mb[1:] != mb[:-1]) | (sb[1:] != sb[:-1])])
        tails = [f",{_cell(a)},{_cell(b)}\n"
                 for a, b in zip(m[starts].tolist(), s[starts].tolist())]
        counts = np.diff(starts, append=m.size).tolist()
        yield "".join(map(str.__add__, map(str, range(lo, lo + m.size)),
                          chain.from_iterable(map(repeat, tails, counts))))


# -- config loading ------------------------------------------------------------


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` that rejects an object repeating a key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _parse_override(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    if "" in key.split("."):
        raise ValueError(f"override {text!r} has an empty key segment")
    try:
        value = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ValueError(f"override {key!r}: value nests too deeply") from None
    except ValueError as exc:
        raise ValueError(f"override {key!r}: {exc}") from None
    return key, value


def load_config_document(path: str | os.PathLike, overrides) -> dict:
    """Read a JSON config and apply dotted overrides in flag order."""
    try:  # a missing file is an OSError, which passes through
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    for item in overrides or []:
        set_dotted(doc, *_parse_override(item))
    return doc


def parse_config(path: str | os.PathLike, overrides=None) -> SimConfig:
    return config_from_dict(load_config_document(path, overrides))


def _with_headline_metrics(config: SimConfig) -> SimConfig:
    """Add the DEFAULT_METRICS, which runs.csv reports, if the config lacks any."""
    labels = {metric_label(m) for m in config.metrics}
    extra = tuple(m for m in DEFAULT_METRICS if metric_label(m) not in labels)
    return replace(config, metrics=config.metrics + extra)


# -- subcommands ----------------------------------------------------------------


def _prepare_outdir(outdir: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _runs_rows(config: SimConfig, result: EnsembleResult):
    lab_t, lab_s = map(metric_label, DEFAULT_METRICS)
    g = config.graph
    for rec in result.records:
        t1 = rec.metric(lab_t)
        s19 = rec.metric(lab_s)
        yield [rec.run_index, config.model.kind, config.scheme,
               result.n, g.k, g.beta, config.seed_count, config.master_seed,
               t1, s19, t1 is None, s19 is None,
               rec.final_infected, rec.steps_executed]


def _summary_rows(stats):
    for label, ms in stats:
        yield [label, ms.mean, ms.std, ms.cv, ms.min, ms.max,
               ms.censored_count, ms.runs]


def cmd_run(args) -> int:
    config = _with_headline_metrics(parse_config(args.config, args.set))
    result = run_ensemble(config, workers=worker_count())
    outdir = _prepare_outdir(args.out)
    write_csv(outdir / "runs.csv", RUNS_COLUMNS, _runs_rows(config, result))
    write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, _summary_rows(result.stats))
    return 0


def cmd_sweep(args) -> int:
    doc = load_config_document(args.config, args.set)
    for key in doc:
        if key not in ("base", "axes"):
            raise ValueError(f"{key}: unknown sweep config key")
    for key in ("base", "axes"):
        if key not in doc:
            raise ValueError(f"{key}: required config key is missing")
        if not isinstance(doc[key], dict):
            raise ValueError(f"{key}: expected an object")
    axes = sweep_axes(doc["axes"].items())
    try:
        base = config_from_dict(doc["base"])
    except ValueError as exc:
        raise ValueError(f"base.{exc}") from None

    outdir = _prepare_outdir(args.out)  # before any cell runs
    cells = sweep(base, axes, workers=worker_count())
    keys = [key for key, _ in axes]
    rows = []
    error_rows = []
    for cell in cells:
        values = [json.dumps(v, separators=(",", ":"))  # null and non-scalars as JSON
                  if v is None or isinstance(v, (dict, list)) else v
                  for _, v in cell.assignments]
        if cell.error is not None:
            error_rows.append(values + [cell.error])
            continue
        rows.extend(values + row for row in _summary_rows(cell.stats))
    write_csv(outdir / "sweep_summary.csv", keys + SUMMARY_COLUMNS, rows)
    if error_rows:
        write_csv(outdir / "sweep_errors.csv", keys + ["error"], error_rows)
        print(f"{len(error_rows)} sweep cell(s) failed; see sweep_errors.csv",
              file=sys.stderr)
    return 0


def read_series_csv(path: str) -> np.ndarray:
    """Observed series input: header "t,value" or a single "value" column.

    The fit assumes unit spacing, so a ``t`` column must hold integers that
    rise by exactly 1 per row, each ASCII decimal (``[+-]?[0-9]+``).
    Errors name the line; ``fit`` names the file.
    """
    reader = csv.reader(Path(path).read_text(encoding="utf-8").splitlines())
    rows = ((reader.line_num, row) for row in reader if any(col.strip() for col in row))
    values, last_t = [], None
    try:
        try:  # each row is checked as it is read, not held
            first = next(rows, (0, None))[1]
            if first is None:
                raise ValueError("empty series file")
            header = [col.strip().lower() for col in first]
            column = {("t", "value"): 1, ("value",): 0}.get(tuple(header))
            if column is None:
                raise ValueError(f"header must be 't,value' or 'value', got {first!r}")
            for lineno, row in rows:
                if len(row) != len(header):
                    raise ValueError(f"line {lineno}: expected {len(header)} column(s)")
                if column:
                    t = decimal_int(row[0].strip())
                    if t is None or last_t not in (None, t - 1):
                        raise ValueError(f"line {lineno}: t must be an integer rising "
                                         f"by 1 per row, got {row[0]!r}")
                    last_t = t
                try:
                    values.append(float(row[column]))
                except ValueError:
                    raise ValueError(f"line {lineno}: not a number: "
                                     f"{row[column]!r}") from None
        except ValueError:
            for _ in reader:  # the rest of the file: a csv.Error there comes first
                pass
            raise
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not values:
        raise ValueError("series has a header but no rows")
    return np.asarray(values)


def cmd_fit(args) -> int:
    try:  # the series file is named here, whichever check rejects it
        obs = normalize_series(fit_input(read_series_csv(args.series)))
    except ValueError as exc:
        raise ValueError(f"{args.series}: {exc}") from None
    reference = parse_config(args.config or REFERENCE_CONFIG, args.set)
    result = fit_series(obs, build_reference_curves(reference, workers=worker_count()))
    outdir = _prepare_outdir(args.out)
    rows = [[m.model, m.sse, m.time_scale, m.time_offset, m.amplitude,
             m.model == result.best_model] for m in result.table]
    write_csv(outdir / "fit.csv", FIT_COLUMNS, rows)
    if result.low_confidence:
        print("warning: constant series; classification is low-confidence",
              file=sys.stderr)
    print(f"best_model {result.best_model}")
    return 0


def cmd_gen_graph(args) -> int:
    config = parse_config(args.config, args.set)
    g = run_graph(config, 0)
    target = _prepare_outdir(args.out) / "graph.edges"
    with atomic_open(target) as handle:
        save_edge_list(g, handle)
    print(f"wrote {target} (n={g.n}, arcs={g.arc_count})")
    return 0


def cmd_report(args) -> int:
    """Re-execute the config deterministically and emit the mean curve.

    The per-step curve cannot be rebuilt from runs.csv (it keeps metrics,
    not trajectories), so the ensemble is re-run; determinism makes this
    equivalent to having recorded it the first time.
    """
    config = parse_config(args.config, args.set)
    curve = run_ensemble(config, workers=worker_count(), collect_curves=True).curve
    write_csv(_prepare_outdir(args.out) / "curve.csv", CURVE_COLUMNS,
              blocks=_curve_blocks(curve.blocks(std=True)))
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffusim",
                     description="Seeded diffusion simulator: fixed, group, "
                                 "and global infection rules on directed graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in [
            ("gen-graph", cmd_gen_graph, "write the configured graph as an edge list"),
            ("run", cmd_run, "run one ensemble; write runs.csv and summary.csv"),
            ("sweep", cmd_sweep, "run a config grid; write sweep_summary.csv"),
            ("fit", cmd_fit, "classify an observed series; write fit.csv"),
            ("report", cmd_report, "write the per-step mean adoption curve")]:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=name != "fit", help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, applied in flag order")
    sub.choices["fit"].add_argument("--series", required=True,
                                    help="observed series CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # EdgeListError among them; a key may hold a newline
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
