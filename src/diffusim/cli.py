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
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .curvefit import (build_reference_curves, fit_input, fit_series,
                       load_reference_config, normalize_series)
from .experiment import (EnsembleResult, SimConfig, config_from_dict,
                         run_ensemble, run_graph, set_dotted, sweep,
                         worker_count)
from .graph import save_edge_list
from .metrics import metric_label

HEADLINE_FRACTION = 0.01
HEADLINE_SPREAD = (0.01, 0.99)

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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a temp file in the target directory; the file is
    renamed onto ``path`` when the block completes, and removed if it fails.
    The file gets the mode ``open`` would give it (0o666 less the umask)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Atomic CSV write (see atomic_open)."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# -- config loading ------------------------------------------------------------


def _parse_override(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    if not key:
        raise ValueError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ValueError(f"override {key!r}: value nests too deeply") from None
    return key, value


def load_config_document(path: str, overrides) -> dict:
    """Read a JSON config and apply dotted overrides in flag order."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    for item in overrides or []:
        key, value = _parse_override(item)
        set_dotted(doc, key, value)
    return doc


def parse_config(path: str, overrides=None) -> SimConfig:
    return config_from_dict(load_config_document(path, overrides))


def _with_headline_metrics(config: SimConfig) -> SimConfig:
    """Ensure the two runs.csv metrics are computed whatever the config says."""
    labels = {metric_label(m) for m in config.metrics}
    extra = [m for m in (HEADLINE_FRACTION, HEADLINE_SPREAD)
             if metric_label(m) not in labels]
    if not extra:
        return config
    return replace(config, metrics=config.metrics + tuple(extra))


# -- subcommands ----------------------------------------------------------------


def _prepare_outdir(outdir: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _runs_rows(config: SimConfig, result: EnsembleResult):
    lab_t = metric_label(HEADLINE_FRACTION)
    lab_s = metric_label(HEADLINE_SPREAD)
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
    outdir = _prepare_outdir(args.out)
    result = run_ensemble(config, workers=worker_count())
    write_csv(outdir / "runs.csv", RUNS_COLUMNS, _runs_rows(config, result))
    write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, _summary_rows(result.stats))
    return 0


def cmd_sweep(args) -> int:
    doc = load_config_document(args.config, args.set)
    for key in doc:
        if key not in ("base", "axes"):
            raise ValueError(f"{key}: unknown sweep config key")
    if "base" not in doc or "axes" not in doc:
        raise ValueError("sweep config needs 'base' and 'axes'")
    if not isinstance(doc["axes"], dict):
        raise ValueError("axes: expected an object of key -> values")
    axes = list(doc["axes"].items())
    for key, values in axes:
        if not isinstance(values, list):
            raise ValueError(f"axes.{key}: expected a list")
    try:
        base = config_from_dict(doc["base"])
    except ValueError as exc:
        raise ValueError(f"base.{exc}") from None

    cells = sweep(base, axes, workers=worker_count())  # rejects empty axes first
    outdir = _prepare_outdir(args.out)
    keys = [key for key, _ in axes]
    rows = []
    error_rows = []
    for cell in cells:
        values = [value for _, value in cell.assignments]
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
    rise by exactly 1 per row.
    """
    reader = csv.reader(Path(path).read_text(encoding="utf-8").splitlines())
    try:
        rows = [(reader.line_num, row) for row in reader
                if any(col.strip() for col in row)]
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty series file")
    header = [col.strip().lower() for col in rows[0][1]]
    if header == ["t", "value"]:
        column = 1
    elif header == ["value"]:
        column = 0
    else:
        raise ValueError(f"{path}: header must be 't,value' or 'value', "
                         f"got {rows[0][1]!r}")
    values = []
    last_t = None
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected "
                             f"{len(header)} column(s)")
        if column:
            try:
                t = int(row[0])
            except ValueError:
                t = None
            if t is None or last_t not in (None, t - 1):
                raise ValueError(f"{path}: line {lineno}: t must be an integer "
                                 f"rising by 1 per row, got {row[0]!r}")
            last_t = t
        try:
            values.append(float(row[column]))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: "
                             f"{row[column]!r}") from None
    if not values:
        raise ValueError(f"{path}: series has a header but no rows")
    return np.asarray(values)


def cmd_fit(args) -> int:
    obs = normalize_series(fit_input(read_series_csv(args.series)))
    if args.config is not None:
        reference = parse_config(args.config, args.set)
    else:
        if args.set:
            raise ValueError("--set requires --config (there is no file "
                             "to override when fitting against the "
                             "packaged reference)")
        reference = load_reference_config()
    curves = build_reference_curves(reference, workers=worker_count())
    result = fit_series(obs, curves)
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
    outdir = _prepare_outdir(args.out)
    g = run_graph(config, 0)
    target = outdir / "graph.edges"
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
    outdir = _prepare_outdir(args.out)
    result = run_ensemble(config, workers=worker_count(), collect_curves=True)
    curve = result.curve
    rows = ([t, m, s] for t, (m, s) in
            enumerate(zip(curve.mean_fraction.tolist(),
                          curve.std_fraction.tolist())))
    write_csv(outdir / "curve.csv", CURVE_COLUMNS, rows)
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffusim",
                     description="Seeded diffusion simulator: fixed, group, "
                                 "and global infection rules on directed graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, applied in flag order")

    p = sub.add_parser("gen-graph", help="write the configured graph as an edge list")
    common(p)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("run", help="run one ensemble; write runs.csv and summary.csv")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a config grid; write sweep_summary.csv")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="classify an observed series; write fit.csv")
    common(p, config_required=False)
    p.add_argument("--series", required=True, help="observed series CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="write the per-step mean adoption curve")
    common(p)
    p.set_defaults(func=cmd_report)
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
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
