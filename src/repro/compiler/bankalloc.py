"""BankAlloc: assign SSA values to register banks.

The paper uses a simple residual assignment (value index modulo the number of
banks) as an effective baseline; values that feed the same VLIW slot family end
up spread across banks, which is what the read/write port constraints need.
"""

from __future__ import annotations

from repro.hw.model import HardwareModel
from repro.ir.module import IRModule


def allocate_banks(module: IRModule, hw: HardwareModel) -> list:
    """Return ``bank[vid]`` for every instruction of the module."""
    n_banks = max(1, hw.n_banks)
    banks = [0] * len(module)
    counter = 0
    for vid, op in enumerate(module.ops):
        if op == "output":
            # Outputs are aliases of their operand; keep the operand's bank.
            operand = module.a[vid]
            banks[vid] = banks[operand] if operand >= 0 else 0
            continue
        banks[vid] = counter % n_banks
        counter += 1
    return banks


def rebank_for_instance(banks: list, instance: int, n_banks: int) -> list:
    """Bank map of pipeline-instance ``instance``: the base map rotated by ``instance``.

    Cross-batch pipelining replays the same scheduled program with renamed
    value ids; rotating every value's bank by the instance index keeps
    consecutive in-flight instances out of each other's write-back ports on
    multi-bank models (the Figure 7 conflict, now between *instances* rather
    than within one kernel).  Instance 0 -- and any instance congruent to 0
    modulo the bank count, including every instance on a single-bank model
    such as HW1 -- keeps the original list untouched, so the ``depth=1``
    degenerate case shares the exact object the one-shot simulation used.
    """
    n_banks = max(1, n_banks)
    if instance % n_banks == 0:
        return banks
    offset = instance % n_banks
    return [(bank + offset) % n_banks for bank in banks]
