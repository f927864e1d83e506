"""Memory composition model (Figure 5b).

Instruction and data memories are assembled from fixed-size vendor macros; a
three-stage read/write pipeline (registers before and after the macro array)
hides the path delay of the composition.  The area model counts macros and adds
the pipeline-register overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

#: Basic SRAM macro: 72 bits x 512 words (typical compiled-macro geometry).
MACRO_WIDTH_BITS = 72
MACRO_DEPTH_WORDS = 512
#: Area of one basic macro in 40 nm (um^2), including its share of decoders.
MACRO_AREA_UM2 = 17_000.0
#: Area per bit for the pipeline registers wrapped around the macro array.
PIPELINE_REG_UM2_PER_BIT = 2.5
#: Register-file style data memory costs more per bit (multi-ported).
DMEM_UM2_PER_BIT = 2.35
IMEM_UM2_PER_BIT = 0.30


@dataclass(frozen=True)
class MemoryEstimate:
    width_bits: int
    depth_words: int
    total_bits: int
    macros: int
    area_um2: float

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6

    @property
    def size_kib(self) -> float:
        return self.total_bits / 8.0 / 1024.0


def estimate_instruction_memory(total_bits: int) -> MemoryEstimate:
    """Single-ported instruction memory sized for the linked binary."""
    width = MACRO_WIDTH_BITS
    depth = max(1, ceil(total_bits / width))
    macros = max(1, ceil(width / MACRO_WIDTH_BITS) * ceil(depth / MACRO_DEPTH_WORDS))
    area = total_bits * IMEM_UM2_PER_BIT + 2 * width * PIPELINE_REG_UM2_PER_BIT
    return MemoryEstimate(width, depth, total_bits, macros, area)


def estimate_data_memory(word_width: int, registers: int, read_ports: int = 2) -> MemoryEstimate:
    """Multi-ported register-bank data memory (one write port per bank)."""
    total_bits = word_width * max(1, registers)
    port_factor = 1.0 + 0.15 * (read_ports - 2)
    macros = max(1, ceil(total_bits / (MACRO_WIDTH_BITS * MACRO_DEPTH_WORDS)))
    area = total_bits * DMEM_UM2_PER_BIT * port_factor + 2 * word_width * PIPELINE_REG_UM2_PER_BIT
    return MemoryEstimate(word_width, registers, total_bits, macros, area)
