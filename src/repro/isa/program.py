"""Assembled accelerator programs (VLIW bundles + constant table + I/O map)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import positive_int
from repro.errors import ISAError
from repro.isa.encoding import EncodingFormat, encode_word
from repro.isa.instructions import MachineOp


@dataclass(frozen=True)
class MachineInstruction:
    """One machine operation with resolved register operands."""

    op: MachineOp
    rd: int
    rs1: int = 0
    rs2: int = 0
    #: Index of the low-level IR instruction this came from (for tracing/debug).
    source: int | None = None

    def render(self) -> str:
        if self.op.operands == 0:
            return f"{self.op.name} r{self.rd}"
        if self.op.operands == 1:
            return f"{self.op.name} r{self.rd}, r{self.rs1}"
        return f"{self.op.name} r{self.rd}, r{self.rs1}, r{self.rs2}"


@dataclass
class Bundle:
    """One issue slot: up to ``issue_width`` operations issued in the same cycle."""

    slots: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slots)


@dataclass
class AssembledProgram:
    """The linked binary for one pairing kernel."""

    name: str
    encoding: EncodingFormat
    bundles: list                       # list[Bundle]
    constant_table: dict                # register -> int preload value
    input_map: dict                     # input attr -> register
    output_map: dict                    # output attr -> register
    registers_per_bank: dict            # bank index -> registers used
    n_banks: int
    issue_width: int

    # -- size metrics --------------------------------------------------------------
    @property
    def instruction_count(self) -> int:
        return sum(len(bundle) for bundle in self.bundles)

    @property
    def bundle_count(self) -> int:
        return len(self.bundles)

    @property
    def total_registers(self) -> int:
        return sum(self.registers_per_bank.values())

    def binary_size_bits(self) -> int:
        """Size of the instruction stream (NOP slots included, as stored in IMem)."""
        return self.bundle_count * self.issue_width * self.encoding.word_bits

    def data_memory_bits(self, word_width: int) -> int:
        """Size of the register banks in bits for a given field width."""
        return self.total_registers * word_width

    def pipelined_data_memory_bits(self, word_width: int, depth: int = 1) -> int:
        """Register-bank bits with ``depth`` pipelined kernel instances resident.

        Cross-batch pipelining renames each in-flight instance into its own
        copy of the register file (banks rotated, ids offset), so the data
        memory scales linearly with the depth; ``depth=1`` is exactly
        :meth:`data_memory_bits`.
        """
        return self.data_memory_bits(word_width) * positive_int(
            depth, "pipeline depth", ISAError)

    # -- encodings -------------------------------------------------------------------
    def encoded_words(self) -> list:
        """Flat list of encoded instruction words (bundles padded with NOPs)."""
        from repro.isa.instructions import ISA_BY_NAME

        nop = ISA_BY_NAME["NOP"]
        words = []
        for bundle in self.bundles:
            if len(bundle.slots) > self.issue_width:
                raise ISAError("bundle exceeds the issue width")
            for instr in bundle.slots:
                words.append(encode_word(self.encoding, instr.op, instr.rd, instr.rs1, instr.rs2))
            for _ in range(self.issue_width - len(bundle.slots)):
                words.append(encode_word(self.encoding, nop, 0, 0, 0))
        return words

    def to_hex(self, limit: int | None = None) -> list:
        digits = self.encoding.word_bits // 4
        words = self.encoded_words()
        if limit is not None:
            words = words[:limit]
        return [f"{word:0{digits}x}" for word in words]

    def disassemble(self, limit: int | None = None) -> str:
        lines = []
        for cycle, bundle in enumerate(self.bundles):
            if limit is not None and cycle >= limit:
                lines.append(f"... ({len(self.bundles) - limit} more bundles)")
                break
            rendered = " || ".join(instr.render() for instr in bundle.slots) or "NOP"
            lines.append(f"{cycle:8d}: {rendered}")
        return "\n".join(lines)
