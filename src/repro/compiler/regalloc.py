"""RegAlloc: sequential register allocation within banks, based on liveness.

Constants and inputs are preloaded into registers before the kernel starts and
stay allocated (they are part of the binary's data segment); every other value
gets a register in its bank at definition and releases it after its last use in
issue order.  The per-bank high-water mark sizes the data memory (and therefore
the DMem area of Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import positive_int
from repro.errors import CompilerError
from repro.compiler.schedule import ScheduledProgram


@dataclass
class RegisterAllocation:
    """Result of register allocation."""

    register_of: dict          # vid -> (bank, slot)
    registers_per_bank: dict   # bank -> number of slots used
    preloaded: dict            # vid -> (bank, slot) subset for const/input values

    @property
    def total_registers(self) -> int:
        return sum(self.registers_per_bank.values())


def allocate_registers(schedule: ScheduledProgram) -> RegisterAllocation:
    module = schedule.module
    banks = schedule.banks
    instructions = module.instructions

    # Issue order: preloads first, then bundles in order.
    order: list = []
    for vid, instr in enumerate(instructions):
        if instr.op in ("const", "input"):
            order.append(vid)
    for bundle in schedule.bundles:
        order.extend(bundle)

    position = {vid: idx for idx, vid in enumerate(order)}

    # Last use of every value, in issue order (outputs pin their operand forever).
    last_use: dict = {vid: position[vid] for vid in order}
    pinned: set = set()
    for vid, instr in enumerate(instructions):
        if instr.op == "output":
            pinned.add(instr.args[0])
            continue
        if vid not in position:
            continue
        for arg in instr.args:
            if arg in position:
                last_use[arg] = max(last_use[arg], position[vid])

    free_slots: dict = {}
    next_slot: dict = {}
    register_of: dict = {}
    preloaded: dict = {}
    # Values whose register frees after a given position.
    releases: dict = {}

    def allocate(vid: int) -> None:
        bank = banks[vid]
        slots = free_slots.setdefault(bank, [])
        if slots:
            slot = slots.pop()
        else:
            slot = next_slot.get(bank, 0)
            next_slot[bank] = slot + 1
        register_of[vid] = (bank, slot)

    for idx, vid in enumerate(order):
        instr = instructions[vid]
        allocate(vid)
        if instr.op in ("const", "input"):
            preloaded[vid] = register_of[vid]
            # Preloaded values stay resident for the whole kernel.
            continue
        # Free registers of operands whose last use is this instruction.
        for arg in set(instr.args):
            if arg in register_of and arg not in preloaded and arg not in pinned:
                if last_use.get(arg) == idx:
                    bank, slot = register_of[arg]
                    free_slots.setdefault(bank, []).append(slot)
        releases.setdefault(idx, [])

    registers_per_bank = {bank: count for bank, count in next_slot.items()}
    if not registers_per_bank:
        raise CompilerError("register allocation produced no registers")
    return RegisterAllocation(
        register_of=register_of,
        registers_per_bank=registers_per_bank,
        preloaded=preloaded,
    )


def pipelined_register_demand(allocation: RegisterAllocation, depth: int, n_banks: int) -> dict:
    """Per-bank register demand with ``depth`` renamed instances resident.

    Each pipeline instance carries the full register footprint of one kernel
    (its inputs are DMA'd in while the previous instance runs, so live ranges
    do not shrink), with its banks rotated by the instance index exactly as
    :func:`repro.compiler.bankalloc.rebank_for_instance` rotates the bank map
    the simulator replays.  The result sizes the data memory a
    continuously-fed accelerator needs; at ``depth=1`` it is exactly
    ``allocation.registers_per_bank``.
    """
    positive_int(depth, "pipeline depth", CompilerError)
    n_banks = max(1, n_banks)
    demand: dict = {}
    for instance in range(depth):
        offset = instance % n_banks
        for bank, count in allocation.registers_per_bank.items():
            target = (bank + offset) % n_banks
            demand[target] = demand.get(target, 0) + count
    return {bank: demand[bank] for bank in sorted(demand)}
