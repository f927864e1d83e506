"""RegAlloc: sequential register allocation within banks, based on liveness.

Constants and inputs are preloaded into registers before the kernel starts and
stay allocated (they are part of the binary's data segment); every other value
gets a register in its bank at definition and releases it after its last use in
issue order.  The per-bank high-water mark sizes the data memory (and therefore
the DMem area of Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompilerError
from repro.compiler.schedule import ScheduledProgram


@dataclass
class RegisterAllocation:
    """Result of register allocation."""

    register_of: list          # vid -> slot within bank ``banks[vid]`` (-1 = no register)
    registers_per_bank: dict   # bank -> number of slots used

    @property
    def total_registers(self) -> int:
        return sum(self.registers_per_bank.values())


def allocate_registers(schedule: ScheduledProgram) -> RegisterAllocation:
    module = schedule.module
    banks = schedule.banks
    a_col, b_col = module.a, module.b
    n = len(module)

    # Issue order: preloads first, then bundles in order.
    order = [vid for vid, op in enumerate(module.ops) if op == "const" or op == "input"]
    n_preloaded = len(order)
    order += schedule.order

    # last_use[vid]: position in ``order`` of the last instruction reading the
    # value; -1 = its register is never released.  The order is walked
    # forward and every operand is defined earlier in it, so the last write
    # wins.  The trailing slot absorbs absent operands (-1).
    last_use = [-1] * (n + 1)
    for idx in range(n_preloaded, len(order)):
        vid = order[idx]
        last_use[a_col[vid]] = idx
        last_use[b_col[vid]] = idx
    last_use[n] = -1
    # Preloaded values stay resident for the whole kernel, and outputs pin
    # their operand forever.
    for vid in order[:n_preloaded]:
        last_use[vid] = -1
    for vid in module.outputs:
        last_use[a_col[vid]] = -1

    free_slots: dict = {}
    next_slot: dict = {}
    register_of = [-1] * n
    for idx, vid in enumerate(order):
        bank = banks[vid]
        slots = free_slots.get(bank)
        if slots:
            register_of[vid] = slots.pop()
        else:
            slot = register_of[vid] = next_slot.get(bank, 0)
            next_slot[bank] = slot + 1
        # Free registers of operands whose last use is this instruction.  When
        # both go, they go in ``set`` iteration order -- for small ints that is
        # not argument order, and the order slots re-enter the free list
        # decides every later slot number.
        a, b = a_col[vid], b_col[vid]
        if last_use[a] == idx:
            released = (a,) if b == a or last_use[b] != idx else set((a, b))
        elif last_use[b] == idx:
            released = (b,)
        else:
            continue
        for arg in released:
            free_slots.setdefault(banks[arg], []).append(register_of[arg])

    if not next_slot:
        raise CompilerError("register allocation produced no registers")
    return RegisterAllocation(
        register_of=register_of,
        registers_per_bank=next_slot,
    )
