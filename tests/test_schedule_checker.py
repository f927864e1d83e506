"""The independent legality checker (``tests/schedule_checker.py``) catches
a broken bundle walk and a register allocation that clashes.

It accepts every pinned walk and its allocation: the tests that pin one run
it on that walk (every ``KERNEL_DIGESTS`` kernel and the program-order
baselines in ``test_golden_outputs.py``, the TOY-BN42 schedules on the eight
``SCHEDULE_DIGESTS`` presets in ``test_backend.py``).
"""

import random
from dataclasses import replace

from schedule_checker import check_allocation, check_bundle_walk, check_walk_stats

from repro.compiler.pipeline import compile_pairing
from repro.compiler.regalloc import allocate_registers
from repro.curves.catalog import get_curve
from repro.hw.presets import default_model, paper_hw1, paper_hw2
from repro.sim.cycle import CycleAccurateSimulator


def _walk(schedule, hw=None):
    return CycleAccurateSimulator(hw=hw, record_trace=True).run(schedule)


def test_checker_catches_broken_walks():
    curve = get_curve("TOY-BN42")
    width = curve.params.p.bit_length()
    hw1, hw2 = paper_hw1(width), paper_hw2(width)
    schedule = compile_pairing(curve, hw=hw1).schedule
    stats = _walk(schedule)
    # A multiplier one cycle slower than the one the walk ran: reads come early.
    slower = check_walk_stats(schedule, stats, replace(hw1, long_latency=hw1.long_latency + 1))
    assert any("reads" in line for line in slower)
    # A stall the walk did not count.
    stats.data_stalls += 1
    assert any("bubbles" in line for line in check_walk_stats(schedule, stats))
    # The FIFO model's schedule, read as if it had no FIFO: write-backs collide.
    fifo_schedule = compile_pairing(curve, hw=hw2).schedule
    collided = check_walk_stats(fifo_schedule, _walk(fifo_schedule), hw1)
    assert any("writes bank" in line for line in collided)


def test_checker_catches_an_overfull_bundle():
    # input x; mul(x, x); add(x, x); dbl(x) -- issued as one bundle of three
    # at cycle 0 on a 2-issue model with one linear unit.
    ops, a_col, b_col = ["input", "mul", "add", "dbl"], [-1, 0, 0, 0], [-1, 0, 0, -1]
    two_issue = replace(default_model(64), issue_width=2, n_banks=2, has_writeback_fifo=True)
    errors = check_bundle_walk(ops, a_col, b_col, [1, 2, 3], [3], [0, 0, 1, 1], two_issue,
                               [2], 0, 0, 0, 38)
    assert any("3 ops on a 2-issue model" in line for line in errors)
    assert any("2 short ops" in line for line in errors)
    assert any("reads of bank 0" in line for line in errors)


def test_checker_catches_two_live_values_in_one_register():
    curve = get_curve("TOY-BN42")
    schedule = compile_pairing(curve, hw=paper_hw1(curve.params.p.bit_length())).schedule
    allocation = allocate_registers(schedule)
    assert check_allocation(schedule, allocation) == []
    # Seeded mutant: an op takes the register of an operand it reads, which
    # is live at its issue by construction.
    module, banks, register_of = schedule.module, schedule.banks, allocation.register_of
    candidates = [vid for vid in schedule.order if module.a[vid] >= 0
                  and banks[module.a[vid]] == banks[vid]
                  and register_of[module.a[vid]] != register_of[vid]]
    vid = random.Random(20261019).choice(candidates)
    clashed = replace(allocation, register_of=list(register_of))
    clashed.register_of[vid] = register_of[module.a[vid]]
    assert any(f"{vid} (issued at" in line and f"while {module.a[vid]} holds it" in line
               for line in check_allocation(schedule, clashed))
    # A register past its bank's count.
    overflowed = replace(allocation, register_of=list(register_of))
    overflowed.register_of[vid] = allocation.registers_per_bank[banks[vid]]
    assert any(f"{vid} gets register" in line for line in check_allocation(schedule, overflowed))
