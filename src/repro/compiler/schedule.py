"""PackSched: operation packing and scheduling (Algorithm 2).

A top-down list scheduler orders the F_p instructions (and packs them into VLIW
issue slots when the hardware model is multi-issue) subject to:

* data dependencies and instruction itineraries (Long/Short/inv latencies),
* per-kind unit limits (one mmul, ``n_linear_units`` linear units per cycle),
* register-bank read ports (2 reads per bank per cycle),
* register-bank write-back ports -- without the write-back FIFO, two results may
  not retire into the same bank in the same cycle, which is exactly the conflict
  Figure 7 illustrates,
* the issue-slot *affinity* heuristic of Section 3.5: issue slots are divided
  into periodic Long/Short-affine positions so that Short instructions are not
  issued where their write-back would collide with an older Long instruction.

The paper's dynamic-programming pack search is approximated greedily in affinity
order, which preserves the optimisation's effect while keeping the scheduler
linear in the program size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import CompilerError
from repro.hw.model import HardwareModel
from repro.ir.module import IRModule
from repro.ir.ops import is_linear, is_multiplicative


_SCHEDULED_OPS = ("add", "sub", "neg", "dbl", "tpl", "muli", "mul", "sqr", "inv", "cvt", "icv")


def unit_of(op: str) -> str:
    """Execution-unit kind of a schedulable op; unknown ops are a caller bug.

    Returning a silent ``"none"`` here would let an op outside
    ``_SCHEDULED_OPS`` slip into a schedule with no unit pressure (and a bogus
    latency), so anything unmapped raises :class:`~repro.errors.CompilerError`
    instead.
    """
    if is_multiplicative(op):
        return "long"
    if op == "inv":
        return "inv"
    if is_linear(op):
        return "short"
    raise CompilerError(f"op {op!r} has no execution unit (not a schedulable op)")


#: Execution unit of every schedulable op; ``.get`` gives ``None`` for the
#: structural const/input/output rows, which never issue.
UNIT_OF_OP = {op: unit_of(op) for op in _SCHEDULED_OPS}
UNITS = ("long", "short", "inv")


def unit_columns(module: IRModule, hw: HardwareModel) -> tuple:
    """Per-value ``(units, latency)`` columns of ``module`` on ``hw``.

    ``units[vid]`` is the execution unit (``None`` = not an issued op) and
    ``latency[vid]`` the cycles until its result is written back (0 for rows
    that never issue).  The scheduler and every simulator walk index these
    instead of classifying the op again at each visit.
    """
    units = [UNIT_OF_OP.get(op) for op in module.ops]
    latency_of = {unit: hw.latency_of_unit(unit) for unit in UNITS}
    latency_of[None] = 0
    return units, [latency_of[unit] for unit in units]


@dataclass
class ScheduledProgram:
    """Result of PackSched: an ordered list of issue bundles of IR value ids."""

    module: IRModule
    hw: HardwareModel
    banks: list
    bundles: list                      # list[list[vid]]
    issue_cycle: list                  # vid -> planned issue cycle (-1 = never issued)
    planned_cycles: int
    affinity_beta: float

    @property
    def instruction_count(self) -> int:
        return sum(len(b) for b in self.bundles)

    def flat_order(self) -> list:
        """The scheduled issue order flattened to one list of value ids.

        This is the canonical stream the multi-core and pipelined simulator
        walks consume (bundle barriers dissolve into per-core in-order
        streams), and the unit of replay for cross-batch pipelining: instance
        ``k`` of a pipelined execution is this order with every value id
        offset by a per-instance stride.
        """
        return [vid for bundle in self.bundles for vid in bundle]

    def planned_ipc(self) -> float:
        if not self.planned_cycles:
            return 0.0
        return self.instruction_count / self.planned_cycles


def program_order_schedule(module: IRModule, hw: HardwareModel, banks: list) -> ScheduledProgram:
    """The unscheduled baseline: original program order, one instruction per bundle."""
    bundles = [[vid] for vid, op in enumerate(module.ops) if op in UNIT_OF_OP]
    issue_cycle = [-1] * len(module)
    for cycle, (vid,) in enumerate(bundles):
        issue_cycle[vid] = cycle
    return ScheduledProgram(
        module=module, hw=hw, banks=banks, bundles=bundles, issue_cycle=issue_cycle,
        planned_cycles=len(bundles), affinity_beta=0.0,
    )


def affinity_schedule(
    module: IRModule,
    hw: HardwareModel,
    banks: list,
    beta: float = 0.05,
    use_affinity: bool = True,
) -> ScheduledProgram:
    """List scheduling with issue-slot affinity (Algorithm 2)."""
    ops, a_col, b_col = module.ops, module.a, module.b
    n = len(ops)
    units, latency = unit_columns(module, hw)
    # Reading a value takes a read port of its bank unless it is an output
    # alias: scheduled results, constants and inputs all live in registers.
    readable = [unit is not None or op == "const" or op == "input"
                for unit, op in zip(units, ops)]
    total_count = n - units.count(None)
    if total_count == 0:
        raise CompilerError("module has no schedulable instructions")
    long_fraction = (total_count - units.count("short")) / total_count

    # Dependency counts and consumer lists, restricted to scheduled (compute) ops.
    deps = [0] * n
    consumers: list = [[] for _ in range(n)]
    for vid, unit in enumerate(units):
        if unit is None:
            continue
        a, b = a_col[vid], b_col[vid]
        if a >= 0 and units[a] is not None:
            deps[vid] = 1
            consumers[a].append(vid)
        if b >= 0 and b != a and units[b] is not None:
            deps[vid] += 1
            consumers[b].append(vid)

    # earliest[vid]: the cycle at which every operand has been written back.
    earliest = [0] * n
    # ready_at[c]: values whose last operand lands at cycle c.  Keys are only
    # ever inserted at >= cycle + 1 and the cycle only advances by one or
    # jumps to the smallest key, so the current cycle is the only key that can
    # be due: the hand-off to the queues is a single pop.
    ready_at: dict = {0: [vid for vid, unit in enumerate(units)
                          if unit is not None and deps[vid] == 0]}
    long_ready: deque = deque()
    short_ready: deque = deque()

    issue_cycle = [-1] * n
    bundles: list = []
    # Write-back slots taken, keyed ``cycle * bank_span + bank`` (only
    # enforced without the FIFO).
    writeback_busy: set = set()
    bank_span = max(banks, default=0) + 1
    enforce_wb = not hw.has_writeback_fifo
    issue_width, read_ports = hw.issue_width, hw.bank_read_ports
    unit_limit = {unit: hw.units_of_kind(unit) for unit in UNITS}
    units_used = dict.fromkeys(UNITS, 0)
    reads_per_bank: dict = {}
    deferred: list = []

    period = max(1, hw.long_latency - hw.short_latency)
    long_share = min(1.0, long_fraction + beta)

    remaining = total_count
    cycle = 0
    while remaining > 0:
        # Move instructions whose operands are ready by this cycle into the queues.
        for vid in ready_at.pop(cycle, ()):
            (short_ready if units[vid] == "short" else long_ready).append(vid)

        if not long_ready and not short_ready:
            # Idle: jump to the next cycle where something becomes ready.
            if not ready_at:
                raise CompilerError("deadlock in scheduler: nothing ready, nothing pending")
            cycle = min(ready_at)
            continue

        prefer_long = ((cycle % period) / period) <= long_share if use_affinity else True
        order = (long_ready, short_ready) if prefer_long else (short_ready, long_ready)

        bundle: list = []
        free_slots = issue_width
        for unit in UNITS:
            units_used[unit] = 0
        reads_per_bank.clear()

        for queue in order:
            while queue and free_slots:
                vid = queue.popleft()
                unit = units[vid]
                ok = units_used[unit] < unit_limit[unit]
                # Read-port constraint: one read per operand on its bank.
                if ok:
                    a, b = a_col[vid], b_col[vid]
                    bank_a = banks[a] if a >= 0 and readable[a] else -1
                    bank_b = banks[b] if b >= 0 and readable[b] else -1
                    if bank_a == bank_b:
                        ok = bank_a < 0 or reads_per_bank.get(bank_a, 0) + 2 <= read_ports
                    else:
                        ok = ((bank_a < 0 or reads_per_bank.get(bank_a, 0) < read_ports)
                              and (bank_b < 0 or reads_per_bank.get(bank_b, 0) < read_ports))
                # Write-back port constraint (Figure 7).
                if ok and enforce_wb:
                    wb_key = (cycle + latency[vid]) * bank_span + banks[vid]
                    ok = wb_key not in writeback_busy
                if not ok:
                    deferred.append(vid)
                    continue
                # Issue it.
                bundle.append(vid)
                free_slots -= 1
                units_used[unit] += 1
                if bank_a >= 0:
                    reads_per_bank[bank_a] = reads_per_bank.get(bank_a, 0) + 1
                if bank_b >= 0:
                    reads_per_bank[bank_b] = reads_per_bank.get(bank_b, 0) + 1
                if enforce_wb:
                    writeback_busy.add(wb_key)
            if not free_slots:
                break

        if deferred:
            for vid in deferred:
                (short_ready if units[vid] == "short" else long_ready).append(vid)
            deferred.clear()

        if not bundle:
            cycle += 1
            continue

        next_cycle = cycle + 1
        for vid in bundle:
            issue_cycle[vid] = cycle
            finish = cycle + latency[vid]
            for consumer in consumers[vid]:
                deps[consumer] -= 1
                if finish > earliest[consumer]:
                    earliest[consumer] = finish
                if deps[consumer] == 0:
                    due = earliest[consumer] if earliest[consumer] > cycle else next_cycle
                    if due in ready_at:
                        ready_at[due].append(consumer)
                    else:
                        ready_at[due] = [consumer]
        bundles.append(bundle)
        remaining -= len(bundle)
        cycle = next_cycle

    last_finish = max(issue_cycle[vid] + latency[vid] for bundle in bundles for vid in bundle)
    return ScheduledProgram(
        module=module, hw=hw, banks=banks, bundles=bundles, issue_cycle=issue_cycle,
        planned_cycles=last_finish, affinity_beta=beta if use_affinity else 0.0,
    )
