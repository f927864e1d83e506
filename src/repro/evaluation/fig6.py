"""Figure 6: hardware area breakdown for 1-core and 8-core BN254N designs."""

from __future__ import annotations

from repro.compiler.pipeline import compile_pairing
from repro.curves.catalog import get_curve
from repro.evaluation.common import DEFAULT_SCALE, hw_for_curve
from repro.hw.area import estimate_area


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve("TOY-BN42" if scale == "smoke" else "BN254N")
    hw = hw_for_curve(curve)
    result = compile_pairing(curve, hw=hw)
    breakdowns = {}
    for cores in (1, 8):
        area = estimate_area(hw, result.imem_bits, result.total_registers, n_cores=cores)
        breakdowns[f"{cores}-core"] = area.describe()
    one = breakdowns["1-core"]["total_mm2"]
    eight = breakdowns["8-core"]["total_mm2"]
    return {
        "experiment": "fig6",
        "curve": curve.name,
        "breakdowns": breakdowns,
        "area_scale_factor_8core": round(eight / one, 2),
        "area_efficiency_gain_8core": round(8.0 / (eight / one), 2),
        "paper_reference": {"1-core_mm2": 1.77, "8-core_mm2": 8.00, "imem_share_1core": 0.50,
                            "imem_share_8core": 0.11, "area_scale_factor_8core": 4.5},
    }


def render(result: dict) -> str:
    lines = [f"Figure 6 -- {result['curve']}"]
    for label, data in result["breakdowns"].items():
        lines.append(f"  {label}: {data}")
    lines.append(
        f"  8-core area factor {result['area_scale_factor_8core']}x "
        f"(throughput 8x => efficiency gain {result['area_efficiency_gain_8core']}x)"
    )
    return "\n".join(lines)
