"""Table 6: accelerator comparison on BN254 against FlexiPair (FPGA) and the
Ikeda ASIC engine, on both platforms and with the 65 nm normalisation."""

from __future__ import annotations

from repro.baselines.published import FLEXIPAIR_FPGA, IKEDA_ASIC
from repro.compiler.pipeline import compile_pairing
from repro.curves.catalog import get_curve
from repro.evaluation.common import (
    DEFAULT_SCALE,
    fpga_frequency_mhz,
    fpga_slices,
    hw_for_curve,
)
from repro.hw.area import estimate_area
from repro.hw.technology import TECH_40NM, TECH_65NM
from repro.hw.timing import frequency_mhz


def _our_rows(curve) -> list:
    hw = hw_for_curve(curve)
    result = compile_pairing(curve, hw=hw)
    width = hw.word_width
    cycles = result.cycles

    rows = []
    # FPGA, 1 core.
    fpga_freq = fpga_frequency_mhz(width)
    fpga_latency_ms = cycles / fpga_freq / 1e3
    area_1 = estimate_area(hw, result.imem_bits, result.total_registers, n_cores=1)
    slices = fpga_slices(area_1.total_mm2)
    fpga_throughput = 1e6 / (cycles / fpga_freq)
    rows.append(
        {
            "work": "Ours (1-core)",
            "platform": "FPGA Virtex-7",
            "frequency_mhz": round(fpga_freq, 1),
            "cycles": cycles,
            "latency": f"{fpga_latency_ms:.3f} ms",
            "area": f"{slices} Slices",
            "throughput_ops": round(fpga_throughput, 1),
            "throughput_per_area": round(fpga_throughput / slices, 4),
        }
    )
    # ASIC 40 nm, 1 core and 8 cores.
    asic_freq = frequency_mhz(width, hw.long_latency, TECH_40NM)
    latency_us = cycles / asic_freq
    for cores in (1, 8):
        area = estimate_area(hw, result.imem_bits, result.total_registers, n_cores=cores)
        throughput = cores * 1e6 / latency_us
        rows.append(
            {
                "work": f"Ours ({cores}-core)",
                "platform": "ASIC 40nm LP",
                "frequency_mhz": round(asic_freq, 1),
                "cycles": cycles,
                "latency": f"{latency_us:.1f} us",
                "area": f"{area.total_mm2:.2f} mm^2",
                "throughput_ops": round(throughput, 1),
                "throughput_per_area": round(throughput / area.total_mm2 / 1e3, 3),
            }
        )
    # ASIC normalised to 65 nm (8 cores), for the fair comparison against [10].
    area_8_65 = estimate_area(hw, result.imem_bits, result.total_registers, n_cores=8,
                              technology=TECH_65NM)
    freq_65 = frequency_mhz(width, hw.long_latency, TECH_65NM)
    latency_65 = cycles / freq_65
    throughput_65 = 8 * 1e6 / latency_65
    rows.append(
        {
            "work": "Ours (8-core, 65nm equiv.)",
            "platform": "ASIC 65nm (equiv.)",
            "frequency_mhz": round(freq_65, 1),
            "cycles": cycles,
            "latency": f"{latency_65:.1f} us",
            "area": f"{area_8_65.total_mm2:.2f} mm^2",
            "throughput_ops": round(throughput_65, 1),
            "throughput_per_area": round(throughput_65 / area_8_65.total_mm2 / 1e3, 3),
        }
    )
    return rows


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve("TOY-BN42" if scale == "smoke" else "BN254N")
    rows = [FLEXIPAIR_FPGA.describe(), IKEDA_ASIC.describe()]
    ours = _our_rows(curve)
    rows.extend(ours)

    # Headline ratios of the paper's abstract (vs the flexible FPGA framework and
    # the fixed-function ASIC, 65 nm-normalised).
    fpga_row = ours[0]
    asic_65 = ours[-1]
    summary = {
        "throughput_gain_vs_flexipair": round(
            fpga_row["throughput_ops"] / FLEXIPAIR_FPGA.throughput_ops, 1
        ),
        "slice_efficiency_gain_vs_flexipair": round(
            fpga_row["throughput_per_area"] / FLEXIPAIR_FPGA.throughput_per_area, 1
        ),
        "throughput_gain_vs_ikeda_65nm": round(
            asic_65["throughput_ops"] / IKEDA_ASIC.throughput_ops, 2
        ),
        "area_efficiency_gain_vs_ikeda_65nm": round(
            (asic_65["throughput_per_area"] * 1e3)
            / IKEDA_ASIC.throughput_per_area, 2
        ),
        "paper_claims": {
            "throughput_gain_vs_flexipair": 34,
            "slice_efficiency_gain_vs_flexipair": 6.2,
            "throughput_gain_vs_ikeda_65nm": 3.0,
            "area_efficiency_gain_vs_ikeda_65nm": 3.2,
        },
    }
    return {"experiment": "table6", "curve": curve.name, "rows": rows, "summary": summary}


def render(result: dict) -> str:
    lines = []
    for row in result["rows"]:
        name = row.get("work", row.get("name"))
        lines.append(
            f"{name:<28}{row.get('platform',''):<20}cycles={row.get('cycles','-'):>10}  "
            f"thr={row.get('throughput_ops','-'):>10}  thr/area={row.get('throughput_per_area','-')}"
        )
    lines.append(f"summary: {result['summary']}")
    return "\n".join(lines)
