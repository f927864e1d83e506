"""Chip-level area model (Figure 6 / Figure 12 / Table 6).

Combines the multiplier, linear-unit and memory models into per-core and
multi-core area breakdowns.  Multi-core designs share a single instruction
memory (the SIMT observation of Section 3.3), which is where the paper's
area-efficiency gain of the 8-core configuration comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import estimate_data_memory, estimate_instruction_memory
from repro.hw.model import HardwareModel
from repro.hw.multiplier import estimate_multiplier
from repro.hw.technology import TECH_40NM, TechnologyNode

#: Area of the linear (mlin/madd) units and the iterative inverter, per operand bit.
LINEAR_UNIT_UM2_PER_BIT = 215.0
INVERTER_UM2_PER_BIT = 55.0
#: Interconnect / control overhead fraction applied to the per-core total.
OTHER_OVERHEAD_FRACTION = 0.03


@dataclass(frozen=True)
class AreaBreakdown:
    """Area breakdown of one accelerator instance (mm^2, in the chosen technology)."""

    technology: TechnologyNode
    n_cores: int
    imem_mm2: float
    dmem_mm2: float
    alu_mm2: float
    mmul_mm2: float
    other_mm2: float
    imem_bits: int
    dmem_bits_per_core: int

    @property
    def total_mm2(self) -> float:
        return self.imem_mm2 + self.dmem_mm2 + self.alu_mm2 + self.other_mm2

    @property
    def sram_kib(self) -> float:
        return (self.imem_bits + self.n_cores * self.dmem_bits_per_core) / 8.0 / 1024.0

    def fractions(self) -> dict:
        total = self.total_mm2
        return {
            "imem": self.imem_mm2 / total,
            "dmem": self.dmem_mm2 / total,
            "alu": self.alu_mm2 / total,
            "other": self.other_mm2 / total,
            "mmul_share_of_alu": self.mmul_mm2 / self.alu_mm2 if self.alu_mm2 else 0.0,
        }

    def describe(self) -> dict:
        data = {
            "technology": self.technology.name,
            "n_cores": self.n_cores,
            "total_mm2": round(self.total_mm2, 3),
            "imem_mm2": round(self.imem_mm2, 3),
            "dmem_mm2": round(self.dmem_mm2, 3),
            "alu_mm2": round(self.alu_mm2, 3),
            "other_mm2": round(self.other_mm2, 3),
            "sram_kib": round(self.sram_kib, 1),
        }
        data.update({k: round(v, 3) for k, v in self.fractions().items()})
        return data


def estimate_area(
    model: HardwareModel,
    imem_bits: int,
    registers: int,
    n_cores: int | None = None,
    technology: TechnologyNode = TECH_40NM,
) -> AreaBreakdown:
    """Estimate the chip area for a compiled program on a hardware model.

    ``imem_bits`` is the linked binary size; ``registers`` the number of live
    architectural registers the program needs (both come from the compiler
    report).  ``n_cores`` overrides the model's core count.
    """
    n_cores = n_cores or model.n_cores
    width = model.word_width

    mmul = estimate_multiplier(width, model.long_latency)
    linear_um2 = model.n_linear_units * width * LINEAR_UNIT_UM2_PER_BIT
    inverter_um2 = width * INVERTER_UM2_PER_BIT
    alu_um2_per_core = mmul.area_um2 + linear_um2 + inverter_um2

    imem = estimate_instruction_memory(imem_bits)
    dmem = estimate_data_memory(width, registers, model.bank_read_ports)

    core_um2 = alu_um2_per_core + dmem.area_um2
    other_um2 = OTHER_OVERHEAD_FRACTION * (imem.area_um2 + n_cores * core_um2)

    scale = technology.area_factor
    return AreaBreakdown(
        technology=technology,
        n_cores=n_cores,
        imem_mm2=imem.area_um2 / 1e6 * scale,
        dmem_mm2=n_cores * dmem.area_um2 / 1e6 * scale,
        alu_mm2=n_cores * alu_um2_per_core / 1e6 * scale,
        mmul_mm2=n_cores * mmul.area_um2 / 1e6 * scale,
        other_mm2=other_um2 / 1e6 * scale,
        imem_bits=imem_bits,
        dmem_bits_per_core=dmem.total_bits,
    )
