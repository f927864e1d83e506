"""ASM + Link: translate the scheduled IR into encoded machine code.

Register operands are the (bank, slot) pairs produced by RegAlloc, flattened
into a global register index ``bank * bank_stride + slot``.  Constants and
kernel inputs become entries of the binary's preload table; the single basic
block of the pairing kernel makes linking trivial (the link step resolves the
entry offset and concatenates the preload segment with the text segment).
"""

from __future__ import annotations

from repro.compiler.regalloc import RegisterAllocation
from repro.compiler.schedule import ScheduledProgram
from repro.isa.encoding import EncodingFormat, select_encoding
from repro.isa.instructions import ir_op_to_machine_op
from repro.isa.program import AssembledProgram


def _encoding(schedule: ScheduledProgram, allocation: RegisterAllocation) -> EncodingFormat:
    """The narrowest instruction word that addresses the flattened register file."""
    return select_encoding(schedule.hw.n_banks * max(allocation.registers_per_bank.values()))


def binary_size_bits(schedule: ScheduledProgram, allocation: RegisterAllocation) -> int:
    """Size of the binary :func:`assemble` emits, without assembling it:
    every bundle padded with NOPs to the issue width, one word a slot
    (:meth:`AssembledProgram.binary_size_bits`)."""
    return (len(schedule.bundle_sizes) * schedule.hw.issue_width
            * _encoding(schedule, allocation).word_bits)


def assemble(schedule: ScheduledProgram, allocation: RegisterAllocation,
             name: str | None = None) -> AssembledProgram:
    module = schedule.module
    ops, a_col, b_col = module.ops, module.a, module.b

    bank_stride = max(allocation.registers_per_bank.values())
    n_banks = schedule.hw.n_banks
    # Global register index of every value (meaningless where no register
    # was allocated: slot -1).
    register = [bank * bank_stride + slot
                for bank, slot in zip(schedule.banks, allocation.register_of)]

    order = schedule.order
    # ISAError for an op without a machine encoding (e.g. a muli that was not
    # strength-reduced: run the IROpt pipeline before assembling).
    opcode_of = {op: ir_op_to_machine_op(op).opcode for op in {ops[vid] for vid in order}}

    constant_table = {}
    input_map = {}
    output_map = {}
    for vid, op in enumerate(ops):
        if op == "const":
            constant_table[register[vid]] = module.attrs[vid]
        elif op == "input":
            input_map[module.attrs[vid]] = register[vid]
        elif op == "output":
            output_map[module.attrs[vid]] = register[a_col[vid]]

    return AssembledProgram(
        name=name or module.name,
        encoding=_encoding(schedule, allocation),
        opcodes=[opcode_of[ops[vid]] for vid in order],
        rd=[register[vid] for vid in order],
        rs1=[register[a_col[vid]] if a_col[vid] >= 0 else 0 for vid in order],
        rs2=[register[b_col[vid]] if b_col[vid] >= 0 else 0 for vid in order],
        bundle_sizes=schedule.bundle_sizes,
        constant_table=constant_table,
        input_map=input_map,
        output_map=output_map,
        registers_per_bank=dict(allocation.registers_per_bank),
        n_banks=n_banks,
        issue_width=schedule.hw.issue_width,
    )
