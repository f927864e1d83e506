"""Figure 12: quad-core chip summary (the experimental ASIC layout data)."""

from __future__ import annotations

from repro.compiler.pipeline import compile_pairing
from repro.curves.catalog import get_curve
from repro.evaluation.common import DEFAULT_SCALE, hw_for_curve
from repro.hw.area import estimate_area
from repro.hw.timing import frequency_mhz

#: Layout timing is slightly better than synthesis (noted under Figure 12).
LAYOUT_FREQUENCY_BONUS = 1.083


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve("TOY-BN42" if scale == "smoke" else "BN254N")
    hw = hw_for_curve(curve)
    result = compile_pairing(curve, hw=hw)
    area = estimate_area(hw, result.imem_bits, result.total_registers, n_cores=4)
    freq = frequency_mhz(hw.word_width, hw.long_latency) * LAYOUT_FREQUENCY_BONUS
    delay_us = result.cycles / freq
    gate_equiv_kgates = (area.alu_mm2 + area.other_mm2) * 1e6 / 0.7 / 1e3  # ~0.7 um^2 / NAND2 in 40 nm
    summary = {
        "technology": "40nm LP",
        "typical_voltage": "1.1 V",
        "curve": curve.name,
        "n_cores": 4,
        "area_mm2": round(area.total_mm2, 3),
        "sram_kib": round(area.sram_kib, 1),
        "gate_count_kNAND2_logic_only": round(gate_equiv_kgates, 1),
        "frequency_mhz": round(freq, 1),
        "pairing_delay_us": round(delay_us, 1),
        "pairing_throughput_kops": round(4 * 1e3 / delay_us, 1),
        "paper_reference": {
            "area_mm2": 7.992, "sram_kib": 272, "frequency_mhz": 833,
            "pairing_delay_us": 76.3, "throughput_kops": 52.4,
        },
    }
    return {"experiment": "fig12", "summary": summary}


def render(result: dict) -> str:
    return "\n".join(f"{key}: {value}" for key, value in result["summary"].items())
