"""Multi-objective Pareto sweep: exhaustive vs budgeted guided search.

Runs the Figure 10 toy design space (the named variant configurations crossed
with the representative pipeline configurations) through
:meth:`repro.dse.engine.ParallelExplorer.explore_pareto` once per search
strategy and records, per strategy: the frontier itself (with per-point
``cycles``), how many points were pushed through the full tool-chain, the
summed cycles of those evaluations (``total_evaluated_cycles``, which pins
down *which* points the strategy evaluated), the sweep wall-clock, and whether
the strategy recovered the exhaustive frontier.

Knobs come from the environment, set by the evaluation runner's flags:
``FINESSE_DSE_OBJECTIVES`` (``--objectives``), ``FINESSE_DSE_STRATEGY``
(``--strategy``: restricts the run to the exhaustive baseline plus that one
strategy) and ``FINESSE_DSE_BUDGET`` (``--budget``).  The guided strategies'
contract -- recover the exhaustive frontier while evaluating at most half the
space -- is asserted by ``tests/test_dse_pareto.py`` on the same toy space;
the explorer's wall-clock is measured by the ledger's two DSE workloads
(``python benchmarks/ledger/run.py --seconds 1 --out ledger-out``).
"""

from __future__ import annotations

import time

from repro.config import BUDGET_ENV, OBJECTIVES_ENV, STRATEGY_ENV, env_int, env_str
from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.search import DEFAULT_OBJECTIVES
from repro.dse.space import design_points, named_variant_configs
from repro.evaluation.common import DEFAULT_SCALE, dse_curve_name
from repro.hw.presets import figure10_models

#: Search strategies compared by the sweep, exhaustive (the ground truth)
#: first.  ``FINESSE_DSE_STRATEGY`` narrows the run to exhaustive + that one.
SWEEP_STRATEGIES = ("exhaustive", "successive_halving", "local")


def toy_design_points(curve) -> list:
    """The sweep's design space: named variant configs x Figure 10 models."""
    width = curve.params.p.bit_length()
    return design_points(named_variant_configs().values(), figure10_models(width))


def _frontier_row(metrics) -> dict:
    """One frontier table row."""
    return {
        "label": metrics.label,
        "cycles": metrics.cycles,
        "frequency_mhz": round(metrics.frequency_mhz, 1),
        "throughput_ops": round(metrics.throughput_ops, 1),
        "area_mm2": round(metrics.area_mm2, 4),
        "power_mw": round(metrics.power_mw, 3),
        "energy_per_pairing_uj": round(metrics.energy_per_pairing_uj, 4),
        "throughput_per_watt": round(metrics.throughput_per_watt, 1),
    }


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve(dse_curve_name(scale))
    points = toy_design_points(curve)
    names = env_str(OBJECTIVES_ENV).split(",")
    objectives = tuple(n.strip() for n in names if n.strip()) or DEFAULT_OBJECTIVES
    budget = env_int(BUDGET_ENV, None)
    forced = env_str(STRATEGY_ENV, "exhaustive")
    strategies = SWEEP_STRATEGIES
    if forced != "exhaustive":
        strategies = ("exhaustive", forced)

    results: dict = {}
    exhaustive_labels: tuple = ()
    for strategy in strategies:
        explorer = ParallelExplorer(curve, do_assemble=False)
        start = time.perf_counter()
        pareto = explorer.explore_pareto(points, objectives,
                                         strategy=strategy, budget=budget)
        wall_s = time.perf_counter() - start
        explorer.close()
        if strategy == "exhaustive":
            exhaustive_labels = pareto.labels()
        results[strategy] = {
            "evaluated_points": pareto.evaluated,
            "total_points": pareto.total_points,
            "evaluated_fraction": round(pareto.evaluated / pareto.total_points, 3),
            "total_evaluated_cycles": sum(m.cycles for m in explorer.evaluated),
            "wall_s": round(wall_s, 3),
            "frontier_size": len(pareto.frontier),
            "dominated": pareto.dominated,
            "recovers_exhaustive": set(exhaustive_labels) <= set(pareto.labels()),
            "extremes": dict(pareto.extremes),
            "frontier": [_frontier_row(m) for m in pareto.frontier],
        }

    return {
        "experiment": "pareto_sweep",
        "curve": curve.name,
        "fp_backend": curve.fp_backend,
        "objectives": _objective_names(objectives),
        "budget": budget,
        "points": len(points),
        "strategies": results,
        "paper_claim": (
            "the co-design sweep is a multi-objective frontier problem: the "
            "Pareto front over throughput/area (and power) exposes the "
            "trade-off the paper's Figure 10 ranks by hand, and proxy-guided "
            "search recovers the same frontier from a fraction of the full "
            "tool-chain evaluations"
        ),
    }


def _objective_names(objectives) -> list:
    from repro.dse.objectives import objective_name

    return [objective_name(objective) for objective in objectives]


def render(result: dict) -> str:
    lines = [f"Pareto sweep -- {result['curve']}, "
             f"objectives {'+'.join(result['objectives'])}, "
             f"{result['points']} design points"]
    for strategy, entry in result["strategies"].items():
        lines.append(
            f"  {strategy:<19} evaluated {entry['evaluated_points']:>2}/"
            f"{entry['total_points']} ({entry['evaluated_fraction']:.0%}) "
            f"frontier {entry['frontier_size']} "
            f"recovers={'yes' if entry['recovers_exhaustive'] else 'NO'} "
            f"({entry['wall_s']:.2f}s)"
        )
    frontier = result["strategies"].get("exhaustive", {}).get("frontier", [])
    if frontier:
        lines.append("  exhaustive frontier (throughput_ops / area_mm2 / power_mw):")
        for row in frontier:
            lines.append(
                f"    {row['label']:<34} {row['throughput_ops']:>12.1f} "
                f"{row['area_mm2']:>8.4f} {row['power_mw']:>8.3f}"
            )
    return "\n".join(lines)
