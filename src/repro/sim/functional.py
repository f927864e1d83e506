"""Single-cycle functional simulator (instruction-set simulator).

Executes an assembled program at the architectural level: a flat register file,
the preloaded constant table, and one machine operation at a time.  It is the
post-compile validation stage of the paper's flow -- its results are compared
against the golden pairing library in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa.instructions import ISA_BY_NAME
from repro.isa.program import AssembledProgram


_NAME_OF_OPCODE = {op.opcode: name for name, op in ISA_BY_NAME.items()}


@dataclass
class FunctionalResult:
    outputs: dict          # output attr -> int
    executed: int          # number of machine operations executed
    register_file: list


class FunctionalSimulator:
    """Executes assembled programs over F_p."""

    def __init__(self, program: AssembledProgram, p: int):
        self.program = program
        self.p = p

    # -- helpers -------------------------------------------------------------------
    def _register_count(self) -> int:
        program = self.program
        return 1 + max(
            max(column, default=0)
            for column in (program.rd, program.rs1, program.rs2, program.constant_table,
                           program.input_map.values(), program.output_map.values())
        )

    def run(self, inputs: dict) -> FunctionalResult:
        """Run the kernel; ``inputs`` maps input attributes to integers."""
        p = self.p
        program = self.program
        registers = [0] * self._register_count()
        for reg, value in program.constant_table.items():
            registers[reg] = value % p
        for attr, reg in program.input_map.items():
            if attr not in inputs:
                raise SimulationError(f"missing kernel input {attr!r}")
            registers[reg] = inputs[attr] % p

        executed = 0
        names = map(_NAME_OF_OPCODE.get, program.opcodes)
        for name, rd, rs1, rs2 in zip(names, program.rd, program.rs1, program.rs2):
            a = registers[rs1]
            b = registers[rs2]
            if name == "ADD":
                value = (a + b) % p
            elif name == "SUB":
                value = (a - b) % p
            elif name == "NEG":
                value = (-a) % p
            elif name == "DBL":
                value = (2 * a) % p
            elif name == "TPL":
                value = (3 * a) % p
            elif name == "MUL":
                value = (a * b) % p
            elif name == "SQR":
                value = (a * a) % p
            elif name == "INV":
                if a == 0:
                    raise SimulationError("modular inversion of zero")
                value = pow(a, -1, p)
            elif name in ("CVT", "ICV"):
                value = a % p
            elif name == "NOP":
                continue
            elif name == "LDC":
                continue
            else:
                raise SimulationError(f"unsupported machine op {name}")
            registers[rd] = value
            executed += 1

        outputs = {attr: registers[reg] for attr, reg in program.output_map.items()}
        return FunctionalResult(outputs=outputs, executed=executed, register_file=registers)
