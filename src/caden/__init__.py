"""Decentralized primal-dual consensus optimization with quasi-Newton local
solvers: round engine, edge-variable reference form, gradient-tracking
baseline, convergence-analysis constants, and an experiment harness."""

from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .engine import CadenConfig
from .graphs import Topology, build_random_graph, complete_graph, laplacian_spectrum
from .harness import RunResult, run_experiment, sweep
from .losses import LogisticLoss, MlpLoss, QuadraticLoss, estimate_lipschitz
from .solvers import SubproblemBatch, solve_gd, solve_lbfgs

__version__ = "0.1.0"

BACKEND = "python"  # perfbench/measure.py prints it in its environment block

__all__ = [
    "BACKEND",
    "CadenConfig",
    "ExperimentConfig",
    "LogisticLoss",
    "MlpLoss",
    "QuadraticLoss",
    "RunResult",
    "SubproblemBatch",
    "Topology",
    "build_random_graph",
    "complete_graph",
    "estimate_lipschitz",
    "laplacian_spectrum",
    "load_config",
    "parse_config",
    "run_experiment",
    "serialize_config",
    "solve_gd",
    "solve_lbfgs",
    "sweep",
    "__version__",
]
