"""diffusim: seeded simulation of information diffusion on directed graphs.

The package simulates SI-style contagion under three infection rules
(fixed per-contact probability, in-neighborhood fraction, network-wide
fraction), measures spreading times over Monte Carlo ensembles, and
classifies observed adoption series against the three model families.
Every random draw flows through explicitly derived streams, so all results
are reproducible bit for bit from a config and a master seed.
"""

__version__ = "0.1.0"

from .dynamics import (ASYNC_SINGLE_NODE, GLOBAL, GROUP, ModelKind, SeedSet,
                       SYNCHRONOUS, fixed, run, seed_random, step)
from .graph import (Graph, GraphSpec, barabasi_albert, build_graph,
                    complete_graph, directed_cycle, load_edge_list,
                    save_edge_list, watts_strogatz)
from .metrics import Trajectory, spread_time, time_to_fraction
from .experiment import (EnsembleResult, RunRecord, SimConfig,
                         derive_graph_rng, derive_run_rng, run_ensemble, sweep)
from .curvefit import (FitResult, ReferenceCurve, build_reference_curves,
                       fit_series, normalize_series)

__all__ = [
    "__version__",
    "ASYNC_SINGLE_NODE", "GLOBAL", "GROUP", "SYNCHRONOUS",
    "Graph", "GraphSpec", "ModelKind", "SeedSet",
    "Trajectory", "SimConfig", "RunRecord", "EnsembleResult",
    "FitResult", "ReferenceCurve",
    "barabasi_albert", "build_graph", "build_reference_curves",
    "complete_graph", "derive_graph_rng", "derive_run_rng", "directed_cycle",
    "fit_series", "fixed",
    "load_edge_list", "normalize_series", "run", "run_ensemble",
    "save_edge_list", "seed_random", "spread_time", "step", "sweep",
    "time_to_fraction", "watts_strogatz",
]
