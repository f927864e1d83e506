"""Multi-objective Pareto sweep: exhaustive vs budgeted proxy-guided search.

Runs the Figure 10 toy design space (the named variant configurations crossed
with the representative pipeline configurations) through
:meth:`repro.dse.engine.ParallelExplorer.explore_pareto` twice: ``exhaustive``
(no budget, the ground truth) and ``guided`` (the proxy-ranked top k).  Each
row records the frontier itself (with per-point ``cycles``), how many points
were pushed through the full tool-chain, the summed cycles of those
evaluations (``total_evaluated_cycles``, which pins down *which* points were
evaluated), the sweep wall-clock beside the number of points a cache tier
answered (``cached_points``), and whether the row recovered the exhaustive
frontier.  Each row starts from an empty memory tier, so the guided row
compiles what it evaluates instead of reading the exhaustive row's kernels;
a disk tier (``FINESSE_CACHE_DIR``) is left as it is, and what it answers
shows in ``cached_points``.

Knobs come from the environment, set by the evaluation runner's flags, and
this module is their only reader: ``FINESSE_DSE_OBJECTIVES``
(``--objectives``) and ``FINESSE_DSE_BUDGET`` (``--budget``: the guided row's
k, half the space when unset).  Like every variable, a value that does not
parse -- an unknown objective name included -- means the default.  The
smallest k that recovers each frontier is tabled in ``docs/dse.md``; the
explorer's wall-clock is measured by the ledger's two DSE workloads
(``python benchmarks/ledger/run.py --seconds 1 --out ledger-out``).
"""

from __future__ import annotations

import time

from repro.compiler.pipeline import clear_caches
from repro.config import BUDGET_ENV, OBJECTIVES_ENV, env_int, env_str
from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.objectives import OBJECTIVES
from repro.dse.search import DEFAULT_OBJECTIVES
from repro.dse.space import design_points, named_variant_configs
from repro.evaluation.common import DEFAULT_SCALE, dse_curve_name
from repro.hw.presets import figure10_models


def toy_design_points(curve) -> list:
    """The sweep's design space: named variant configs x Figure 10 models."""
    width = curve.params.p.bit_length()
    return design_points(named_variant_configs().values(), figure10_models(width))


def sweep_objectives() -> tuple:
    """``FINESSE_DSE_OBJECTIVES`` as a tuple of registered names; no names,
    or any name the registry does not know, means :data:`DEFAULT_OBJECTIVES`."""
    names = tuple(n.strip() for n in env_str(OBJECTIVES_ENV).split(",") if n.strip())
    return names if names and all(n in OBJECTIVES for n in names) else DEFAULT_OBJECTIVES


def sweep_budget():
    """``FINESSE_DSE_BUDGET`` (a positive integer), or ``None``."""
    return env_int(BUDGET_ENV, None)


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
    objectives = sweep_objectives()
    budget = sweep_budget() or max(1, len(points) // 2)

    results: dict = {}
    exhaustive_labels: tuple = ()
    for row, row_budget in (("exhaustive", None), ("guided", budget)):
        clear_caches()                  # memory tier only: the disk tier stays
        explorer = ParallelExplorer(curve)
        start = time.perf_counter()
        pareto = explorer.explore_pareto(points, objectives, budget=row_budget)
        wall_s = time.perf_counter() - start
        explorer.close()
        if row == "exhaustive":
            exhaustive_labels = pareto.labels()
        results[row] = {
            "evaluated_points": pareto.evaluated,
            "total_points": pareto.total_points,
            "evaluated_fraction": round(pareto.evaluated / pareto.total_points, 3),
            "total_evaluated_cycles": sum(m.cycles for m in explorer.evaluated),
            "wall_s": round(wall_s, 3),
            "cached_points": explorer.last_report.cached_points,
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
        "objectives": list(objectives),
        "budget": budget,
        "points": len(points),
        "rows": results,
        "paper_claim": (
            "the co-design sweep is a multi-objective frontier problem: the "
            "Pareto front over throughput/area (and power) exposes the "
            "trade-off the paper's Figure 10 ranks by hand, and proxy-guided "
            "search recovers the same frontier from a fraction of the full "
            "tool-chain evaluations"
        ),
    }


def render(result: dict) -> str:
    lines = [f"Pareto sweep -- {result['curve']}, "
             f"objectives {'+'.join(result['objectives'])}, "
             f"{result['points']} design points"]
    for row, entry in result["rows"].items():
        lines.append(
            f"  {row:<10} evaluated {entry['evaluated_points']:>2}/"
            f"{entry['total_points']} ({entry['evaluated_fraction']:.0%}) "
            f"frontier {entry['frontier_size']} "
            f"recovers={'yes' if entry['recovers_exhaustive'] else 'NO'} "
            f"({entry['wall_s']:.2f}s, {entry['cached_points']} cached)"
        )
    frontier = result["rows"]["exhaustive"]["frontier"]
    if frontier:
        lines.append("  exhaustive frontier (throughput_ops / area_mm2 / power_mw):")
        for row in frontier:
            lines.append(
                f"    {row['label']:<34} {row['throughput_ops']:>12.1f} "
                f"{row['area_mm2']:>8.4f} {row['power_mw']:>8.3f}"
            )
    return "\n".join(lines)
