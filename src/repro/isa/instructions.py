"""Machine operations of the Finesse ISA.

The ISA is register-register only (all operands live in the on-chip register
banks).  Machine operations split into three execution classes matching the
hardware model:

* ``short`` -- linear operations executed on the mlin/madd units,
* ``long``  -- modular multiplication/squaring on the fully-pipelined mmul unit,
* ``inv``   -- the iterative modular inverter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ISAError


@dataclass(frozen=True)
class MachineOp:
    """One machine operation."""

    name: str
    opcode: int
    operands: int          # number of register sources
    unit: str              # "short", "long", "inv" or "none"


_MACHINE_OPS = [
    MachineOp("NOP", 0x00, 0, "none"),
    MachineOp("ADD", 0x01, 2, "short"),
    MachineOp("SUB", 0x02, 2, "short"),
    MachineOp("NEG", 0x03, 1, "short"),
    MachineOp("DBL", 0x04, 1, "short"),
    MachineOp("TPL", 0x05, 1, "short"),
    MachineOp("MUL", 0x06, 2, "long"),
    MachineOp("SQR", 0x07, 1, "long"),
    MachineOp("INV", 0x08, 1, "inv"),
    MachineOp("CVT", 0x09, 1, "short"),
    MachineOp("ICV", 0x0A, 1, "short"),
    MachineOp("LDC", 0x0B, 0, "short"),   # load constant from the constant table
]

OPCODES = {op.opcode: op for op in _MACHINE_OPS}
ISA_BY_NAME = {op.name: op for op in _MACHINE_OPS}

#: Mapping from low-level IR op names to machine op names.
_IR_TO_MACHINE = {
    "add": "ADD",
    "sub": "SUB",
    "neg": "NEG",
    "dbl": "DBL",
    "tpl": "TPL",
    "mul": "MUL",
    "sqr": "SQR",
    "inv": "INV",
    "cvt": "CVT",
    "icv": "ICV",
    "const": "LDC",
}


def ir_op_to_machine_op(ir_op: str) -> MachineOp:
    name = _IR_TO_MACHINE.get(ir_op)
    if name is None:
        raise ISAError(f"IR op {ir_op!r} has no machine encoding")
    return ISA_BY_NAME[name]
