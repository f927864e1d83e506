"""Figure 10: design-space search over operator-variant combinations and
representative pipeline configurations (BLS24 curve).

The cross product of the named variant combinations (at the full scale, every
combination) and the pipeline configurations is built as one design space and
swept through the parallel exploration engine, so the search honours
``FINESSE_DSE_WORKERS`` and repeated runs hit the compile cache instead of
recompiling.
"""

from __future__ import annotations

from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.space import DesignPoint, named_variant_configs, variant_combinations
from repro.evaluation.common import DEFAULT_SCALE, dse_curve_name
from repro.hw.presets import figure10_models


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve(dse_curve_name(scale))
    width = curve.params.p.bit_length()
    hw_models = figure10_models(width)
    configs = dict(named_variant_configs())

    exhaustive = scale == "full"
    search_space = variant_combinations(degrees=(2, 4, 6, 12, 24)) if exhaustive else []

    # One flat design space; the engine shards it and merges deterministically.
    all_configs = list(configs.values()) + search_space
    points = [
        DesignPoint(variant_config=config, hw=hw, label=f"{config.name}/{hw.name}")
        for hw in hw_models
        for config in all_configs
    ]
    with ParallelExplorer(curve) as engine:
        engine.explore(points, objective="latency")
    cycles_of = {point.label: metrics.cycles
                 for point, metrics in zip(points, engine.evaluated)}

    rows = []
    for hw in hw_models:
        entry = {"hw": hw.name, "issue_width": hw.issue_width, "results": {}}
        best_cycles = None
        best_label = None
        for label, config in configs.items():
            cycles = cycles_of[f"{config.name}/{hw.name}"]
            entry["results"][label] = cycles
            if best_cycles is None or cycles < best_cycles:
                best_cycles, best_label = cycles, label
        for config in search_space:
            cycles = cycles_of[f"{config.name}/{hw.name}"]
            if cycles < best_cycles:
                best_cycles, best_label = cycles, config.name
        entry["results"]["optimal"] = best_cycles
        entry["optimal_config"] = best_label
        rows.append(entry)

    return {
        "experiment": "fig10",
        "curve": curve.name,
        "exhaustive": exhaustive,
        "rows": rows,
        "paper_claim": (
            "the manually-tuned combination is near-optimal on single-issue pipelines, "
            "while all-Karatsuba becomes viable with more linear units"
        ),
    }


def render(result: dict) -> str:
    lines = [f"Figure 10 -- {result['curve']} (exhaustive={result['exhaustive']})"]
    for row in result["rows"]:
        cycles = ", ".join(f"{k}={v}" for k, v in row["results"].items())
        lines.append(f"  {row['hw']:<14} {cycles}   optimal={row['optimal_config']}")
    return "\n".join(lines)
