"""An independent legality checker for a schedule and its bundle walk.

The contract is written here a second time, from ``docs/architecture.md``
("The schedule contract") and the fields of :class:`repro.hw.model.HardwareModel`,
so that a wrong latency, unit class or port limit shared by PackSched and the
simulator walks shows up as a disagreement.  It imports neither
``repro.compiler.schedule`` nor ``repro.sim.cycle``.

:func:`check_bundle_walk` takes the module's ``ops`` / ``a`` / ``b`` columns,
the schedule's ``order``, ``bundle_sizes`` and ``banks``, the model, and what
the bundle walk of ``CycleAccurateSimulator(record_trace=True)`` reported: its
per-cycle trace codes, stall counters and total cycles.  Each bundle's issue
cycle is rebuilt from the non-bubble trace entries, and every violation found
is returned as one line (an empty list means the schedule is legal).

The write-back FIFO is unbounded and a register bank is sized by demand, so
neither has a limit to check.  A bank takes one write per cycle: the model has
no write-port field.

:func:`check_registers` checks a register allocation against the same issue
order: walking the preloaded rows and then ``order``, a value holds its
(bank, register) slot from its definition through its last read, and the
constants, inputs and the operands of ``output`` rows to the end; no two
values whose holds overlap may share a slot, and every register must lie
within its bank's ``registers_per_bank``.
"""

from __future__ import annotations

from collections import Counter

#: The unit classes: the modular multiplier runs the Long ops, the linear
#: units the Short ops, and the one inverter ``inv``.
LONG_OPS = frozenset(("mul", "sqr"))
SHORT_OPS = frozenset(("add", "sub", "neg", "dbl", "tpl", "muli", "cvt", "icv"))
INV_OPS = frozenset(("inv",))
#: Trace codes, one per cycle: a bubble, or the widest unit class issued.
BUBBLE, SHORT, LONG, INV = 0, 1, 2, 3
_TRACE_CODE = {"short": SHORT, "long": LONG, "inv": INV}
#: Rows that never issue: their values are in registers from cycle 0.
PRELOADED = frozenset(("const", "input"))
#: A row that reads its operand once the kernel is done.
OUTPUT = "output"


def unit_class(op: str) -> str | None:
    if op in LONG_OPS:
        return "long"
    if op in SHORT_OPS:
        return "short"
    if op in INV_OPS:
        return "inv"
    return None


def check_bundle_walk(ops, a_col, b_col, order, bundle_sizes, banks, hw,
                      trace_codes, data_stalls, writeback_stalls, structural_stalls,
                      total_cycles, limit: int = 20) -> list:
    """Every violation of the schedule contract, one line each (at most ``limit``)."""
    errors: list = []

    def fail(message):
        if len(errors) < limit:
            errors.append(message)

    latency = {"long": hw.long_latency, "short": hw.short_latency, "inv": hw.inv_latency}
    units = {"long": 1, "short": hw.n_linear_units, "inv": 1}

    # The order issues every schedulable row exactly once, and nothing else.
    issued = Counter(order)
    expected = [vid for vid, op in enumerate(ops) if unit_class(op) is not None]
    if sorted(issued) != expected or any(count != 1 for count in issued.values()):
        fail("order is not every schedulable row exactly once")
    if sum(bundle_sizes) != len(order) or any(size < 1 for size in bundle_sizes):
        fail("bundle sizes do not cut the order into non-empty bundles")
        return errors

    # Issue cycle of every bundle: the non-bubble trace entries, in order.
    issue_cycles = [cycle for cycle, code in enumerate(trace_codes) if code != BUBBLE]
    if len(issue_cycles) != len(bundle_sizes):
        fail(f"trace issues {len(issue_cycles)} bundles, the schedule has {len(bundle_sizes)}")
        return errors
    bubbles = len(trace_codes) - len(issue_cycles)
    if data_stalls + writeback_stalls + structural_stalls != bubbles:
        fail(f"stall counters sum to {data_stalls + writeback_stalls + structural_stalls}, "
             f"the trace has {bubbles} bubbles")

    issue_of: dict = {}
    finish_of: dict = {}
    writebacks: set = set()
    last_finish = 0
    start = 0
    for index, (size, cycle) in enumerate(zip(bundle_sizes, issue_cycles)):
        bundle = order[start:start + size]
        start += size
        where = f"bundle {index} (cycle {cycle}, ids {bundle})"
        if size > hw.issue_width:
            fail(f"{where}: {size} ops on a {hw.issue_width}-issue model")
        kinds = Counter(unit_class(ops[vid]) for vid in bundle)
        for kind, count in kinds.items():
            if kind is not None and count > units[kind]:
                fail(f"{where}: {count} {kind} ops, the model has {units[kind]} such units")
        widest = max((_TRACE_CODE[kind] for kind in kinds if kind is not None), default=BUBBLE)
        if trace_codes[cycle] != widest:
            fail(f"{where}: traced as {trace_codes[cycle]}, its ops are {dict(kinds)}")
        reads: Counter = Counter()
        for vid in bundle:
            for operand in (a_col[vid], b_col[vid]):
                if operand < 0:
                    continue
                reads[banks[operand]] += 1
                if ops[operand] in PRELOADED:
                    continue
                ready = finish_of.get(operand)
                if ready is None or ready > cycle:
                    fail(f"{where}: {vid} reads {operand} at cycle {cycle}, "
                         f"written back at {ready}")
        for bank, count in reads.items():
            if count > hw.bank_read_ports:
                fail(f"{where}: {count} reads of bank {bank}, it has {hw.bank_read_ports} ports")
        for vid in bundle:
            issue_of[vid] = cycle
            finish = finish_of[vid] = cycle + latency[unit_class(ops[vid])]
            last_finish = max(last_finish, finish)
            if not hw.has_writeback_fifo:
                if (finish, banks[vid]) in writebacks:
                    fail(f"{where}: {vid} writes bank {banks[vid]} back at cycle {finish}, "
                         f"which another result already does")
                writebacks.add((finish, banks[vid]))
    if total_cycles != last_finish:
        fail(f"total cycles {total_cycles}, the last write-back is at {last_finish}")
    return errors


def check_walk_stats(schedule, stats, hw=None) -> list:
    """:func:`check_bundle_walk` on a schedule and the ``record_trace=True``
    statistics of its bundle walk on ``hw`` (default: the schedule's model)."""
    module = schedule.module
    return check_bundle_walk(
        module.ops, module.a, module.b, schedule.order, schedule.bundle_sizes, schedule.banks,
        hw or schedule.hw, stats.trace.codes, stats.data_stalls, stats.writeback_stalls,
        stats.structural_stalls, stats.total_cycles)


def check_registers(ops, a_col, b_col, order, banks, register_of, registers_per_bank,
                    limit: int = 20) -> list:
    """Every register clash or overflow of an allocation, one line each (at
    most ``limit``); positions are in the preloads-then-``order`` walk."""
    errors: list = []

    def fail(message):
        if len(errors) < limit:
            errors.append(message)

    walk = [vid for vid, op in enumerate(ops) if op in PRELOADED] + list(order)
    end = len(walk)                         # held to the end of the kernel
    last = {vid: position for position, vid in enumerate(walk)}
    for position, vid in enumerate(walk):
        for operand in (a_col[vid], b_col[vid]):
            if operand >= 0:
                last[operand] = position
    for vid, op in enumerate(ops):
        if op in PRELOADED:
            last[vid] = end
        elif op == OUTPUT:
            last[a_col[vid]] = end

    holder: dict = {}                       # (bank, register) -> value holding it
    for position, vid in enumerate(walk):
        bank, register = banks[vid], register_of[vid]
        if not 0 <= register < registers_per_bank.get(bank, 0):
            fail(f"{vid} gets register {register} of bank {bank}, "
                 f"which has {registers_per_bank.get(bank, 0)}")
            continue
        previous = holder.get((bank, register))
        if previous is not None and last[previous] >= position:
            fail(f"{vid} (issued at {position}) takes register {register} of bank {bank} "
                 f"while {previous} holds it until {last[previous]}")
        holder[bank, register] = vid
    return errors


def check_allocation(schedule, allocation) -> list:
    """:func:`check_registers` on a schedule and its register allocation."""
    module = schedule.module
    return check_registers(module.ops, module.a, module.b, schedule.order, schedule.banks,
                           allocation.register_of, allocation.registers_per_bank)
