"""Design-space exploration and co-design loop."""

from repro.dse.space import DesignPoint, figure2_variant_configs, named_variant_configs, variant_combinations
from repro.dse.objectives import OBJECTIVES, Objective, list_objectives, resolve_objective, resolve_objectives
from repro.dse.explorer import DesignMetrics, evaluate_design_point
from repro.dse.engine import ExplorationReport, ParallelExplorer
from repro.dse.pareto import ParetoResult, dominates, hypervolume, non_dominated_sort, pareto_front
from repro.dse.search import proxy_design_metrics
from repro.dse.codesign import alu_family_codesign

__all__ = [
    "DesignPoint",
    "figure2_variant_configs",
    "named_variant_configs",
    "variant_combinations",
    "Objective",
    "OBJECTIVES",
    "list_objectives",
    "resolve_objective",
    "resolve_objectives",
    "DesignMetrics",
    "ParallelExplorer",
    "ExplorationReport",
    "ParetoResult",
    "dominates",
    "hypervolume",
    "non_dominated_sort",
    "pareto_front",
    "proxy_design_metrics",
    "evaluate_design_point",
    "alu_family_codesign",
]
