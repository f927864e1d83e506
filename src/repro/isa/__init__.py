"""Finesse ISA: RISC-flavoured F_p instruction set with a VLIW extension."""

from repro.isa.instructions import MachineOp, OPCODES, ISA_BY_NAME, ir_op_to_machine_op
from repro.isa.encoding import EncodingFormat, ENCODING_32, ENCODING_64, encode_word, decode_word
from repro.isa.program import AssembledProgram, MachineInstruction

__all__ = [
    "MachineOp",
    "OPCODES",
    "ISA_BY_NAME",
    "ir_op_to_machine_op",
    "EncodingFormat",
    "ENCODING_32",
    "ENCODING_64",
    "encode_word",
    "decode_word",
    "AssembledProgram",
    "MachineInstruction",
]
