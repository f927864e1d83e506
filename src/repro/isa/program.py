"""Assembled accelerator programs (VLIW bundles + constant table + I/O map)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.errors import ISAError
from repro.isa.encoding import EncodingFormat, encode_word
from repro.isa.instructions import ISA_BY_NAME, OPCODES, MachineOp


@dataclass(frozen=True)
class MachineInstruction:
    """Row view of one machine operation with resolved register operands."""

    op: MachineOp
    rd: int
    rs1: int = 0
    rs2: int = 0

    def render(self) -> str:
        if self.op.operands == 0:
            return f"{self.op.name} r{self.rd}"
        if self.op.operands == 1:
            return f"{self.op.name} r{self.rd}, r{self.rs1}"
        return f"{self.op.name} r{self.rd}, r{self.rs1}, r{self.rs2}"


@dataclass
class AssembledProgram:
    """The linked binary for one pairing kernel.

    The text segment is stored column-wise: row ``i`` of ``opcodes`` / ``rd`` /
    ``rs1`` / ``rs2`` is the ``i``-th issued operation, and ``bundle_sizes``
    cuts the rows into VLIW bundles (up to ``issue_width`` operations issued
    in the same cycle).  :class:`MachineInstruction` views exist only inside
    :meth:`disassemble`.
    """

    name: str
    encoding: EncodingFormat
    opcodes: list                       # machine opcode (``MachineOp.opcode``) per operation
    rd: list                            # destination register per operation
    rs1: list                           # source registers (0 where the op takes none)
    rs2: list
    bundle_sizes: list                  # operations issued together, per bundle
    constant_table: dict                # register -> int preload value
    input_map: dict                     # input attr -> register
    output_map: dict                    # output attr -> register
    registers_per_bank: dict            # bank index -> registers used
    n_banks: int
    issue_width: int

    # -- size metrics --------------------------------------------------------------
    @property
    def instruction_count(self) -> int:
        return len(self.opcodes)

    @property
    def bundle_count(self) -> int:
        return len(self.bundle_sizes)

    @property
    def total_registers(self) -> int:
        return sum(self.registers_per_bank.values())

    def binary_size_bits(self) -> int:
        """Size of the instruction stream (NOP slots included, as stored in IMem)."""
        return self.bundle_count * self.issue_width * self.encoding.word_bits

    # -- encodings -------------------------------------------------------------------
    def encoded_words(self) -> list:
        """Flat list of encoded instruction words (bundles padded with NOPs)."""
        if max(self.bundle_sizes, default=0) > self.issue_width:
            raise ISAError("bundle exceeds the issue width")
        nop = encode_word(self.encoding, ISA_BY_NAME["NOP"], 0, 0, 0)
        rows = zip(self.opcodes, self.rd, self.rs1, self.rs2)
        words = []
        for size in self.bundle_sizes:
            words.extend(encode_word(self.encoding, OPCODES[code], rd, rs1, rs2)
                         for code, rd, rs1, rs2 in islice(rows, size))
            words.extend([nop] * (self.issue_width - size))
        return words

    def to_hex(self, limit: int | None = None) -> list:
        digits = self.encoding.word_bits // 4
        words = self.encoded_words()
        if limit is not None:
            words = words[:limit]
        return [f"{word:0{digits}x}" for word in words]

    def disassemble(self, limit: int | None = None) -> str:
        rows = zip(self.opcodes, self.rd, self.rs1, self.rs2)
        lines = []
        for cycle, size in enumerate(self.bundle_sizes):
            if limit is not None and cycle >= limit:
                lines.append(f"... ({self.bundle_count - limit} more bundles)")
                break
            rendered = " || ".join(MachineInstruction(OPCODES[code], rd, rs1, rs2).render()
                                   for code, rd, rs1, rs2 in islice(rows, size)) or "NOP"
            lines.append(f"{cycle:8d}: {rendered}")
        return "\n".join(lines)
