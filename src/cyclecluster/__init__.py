"""Branch-and-cut solver for partitioning a weighted digraph into a cycle of clusters."""

from cyclecluster.engine import SolverConfig, SolveResult, compute_gap, solve
from cyclecluster.generator import SuiteSpec, benchmark_suite, generate
from cyclecluster.instance import Clustering, Instance, load_instance, objective, save_instance

__version__ = "0.1.0"

__all__ = [
    "Clustering",
    "Instance",
    "SolveResult",
    "SolverConfig",
    "SuiteSpec",
    "benchmark_suite",
    "compute_gap",
    "generate",
    "load_instance",
    "objective",
    "save_instance",
    "solve",
    "__version__",
]
