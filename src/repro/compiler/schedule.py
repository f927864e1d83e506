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
order, which preserves the optimisation's effect.  A cycle pops the ops it
issues and the ops it refuses.  The scan of a queue stops once every op left
in it needs a unit that is exhausted for the cycle, so a refused op is one that
loses a read or write-back port, or one scanned before its unit ran out.  The
work is O(ops + cycles + refusals), and one cycle refuses at most the length
of its ready queues, so the bound is not linear in the worst case.  On
BLS12-381 a scan pops 1.45 ops per issued op on the default model and 2.1 on
``L8-S2-lin2``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat

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
#: The unit kinds; a *unit code* is an index into this tuple.
UNITS = ("long", "short", "inv")
_LONG, _SHORT, _INV = range(len(UNITS))
_CODE_OF_OP = {op: UNITS.index(unit) for op, unit in UNIT_OF_OP.items()}
#: A walk prunes its write-back slots once they outnumber this and twice what it last kept.
_PRUNE_SIZE = 4096
#: How far the Long-affine share of a period's issue slots exceeds the Long ops' share.
AFFINITY_BETA = 0.05


def prune_slots(busy: set, floor: int) -> tuple:
    """Write-back slots ``busy`` without those below ``floor``, and the size at
    which to prune again.

    A walk claims slots at or above its current cycle's ``floor`` only, so the
    ones below are dead; pruning when the set doubles keeps the work linear.
    Walks start from a size of 0: the first prune, of a near-empty set, sets
    the pace.
    """
    busy = {key for key in busy if key >= floor}
    return busy, max(_PRUNE_SIZE, 2 * len(busy))


def unit_columns(module: IRModule, hw: HardwareModel) -> tuple:
    """Per-value ``(codes, latency)`` columns of ``module`` on ``hw``.

    ``codes[vid]`` is the unit code of the value's execution unit (its index
    in :data:`UNITS`; ``-1`` = not an issued op) and ``latency[vid]`` the
    cycles until its result is written back (0 for rows that never issue).
    The scheduler and every simulator walk index these instead of classifying
    the op again at each visit.
    """
    codes = list(map(_CODE_OF_OP.get, module.ops, repeat(-1)))
    latency_of = [hw.latency_of_unit(unit) for unit in UNITS] + [0]
    return codes, list(map(latency_of.__getitem__, codes))


@dataclass
class ScheduledProgram:
    """Result of PackSched: the issue order of the IR value ids, cut into bundles.

    ``order`` is every issued value id, bundle after bundle, and
    ``bundle_sizes`` how many of them each bundle issues together.  The
    order is the stream the bundle walk, the multi-core and pipelined walks,
    RegAlloc and ASM all read (bundle barriers dissolve into per-core
    in-order streams), and the unit of replay for cross-batch pipelining:
    instance ``k`` of a pipelined execution is this order with every value
    id offset by a per-instance stride.
    """

    module: IRModule
    hw: HardwareModel
    banks: list
    order: list                        # value ids in issue order
    bundle_sizes: list                 # ops issued together, per bundle
    planned_cycles: int

    @property
    def bundles(self) -> list:
        """The order cut into one list of value ids per bundle (built on each read)."""
        ids = iter(self.order)
        return [list(islice(ids, size)) for size in self.bundle_sizes]

    @property
    def instruction_count(self) -> int:
        return len(self.order)

    def planned_ipc(self) -> float:
        if not self.planned_cycles:
            return 0.0
        return self.instruction_count / self.planned_cycles


def program_order_schedule(module: IRModule, hw: HardwareModel, banks: list) -> ScheduledProgram:
    """The unscheduled baseline: original program order, one instruction per bundle."""
    order = [vid for vid, op in enumerate(module.ops) if op in UNIT_OF_OP]
    return ScheduledProgram(
        module=module, hw=hw, banks=banks, order=order, bundle_sizes=[1] * len(order),
        planned_cycles=len(order),
    )


def affinity_schedule(
    module: IRModule,
    hw: HardwareModel,
    banks: list,
    use_affinity: bool = True,
) -> ScheduledProgram:
    """List scheduling with issue-slot affinity (Algorithm 2).

    ``hw`` is validated first: the scan below relies on a validated model's
    guarantee that an empty bundle accepts any op its write-back port does.
    """
    hw.validate()
    ops, a_col, b_col = module.ops, module.a, module.b
    n = len(ops)
    codes, latency = unit_columns(module, hw)
    total_count = n - codes.count(-1)
    if total_count == 0:
        raise CompilerError("module has no schedulable instructions")
    long_fraction = (total_count - codes.count(_SHORT)) / total_count

    # Per-value columns, computed once.  Reading a value takes a read port of
    # its bank unless it is an output alias (scheduled results, constants and
    # inputs all live in registers); ``read_a`` / ``read_b`` hold the bank
    # each operand reads, -1 for none (the trailing pad absorbs an absent
    # operand).  A single-issue bundle closes at its first op, before any
    # read port is counted, so only a multi-issue model needs them.
    issue_width, read_ports = hw.issue_width, hw.bank_read_ports
    if issue_width > 1:
        read_bank = [bank if code >= 0 or op == "const" or op == "input" else -1
                     for bank, code, op in zip(banks, codes, ops)]
        read_bank.append(-1)
        read_a = [read_bank[a] for a in a_col]
        read_b = [read_bank[b] for b in b_col]
        del read_bank
    else:
        read_a = read_b = None
    # Write-back slots taken are keyed ``cycle * bank_span + bank``, so an op
    # issued at ``cycle`` claims ``cycle * bank_span + wb_offset[vid]`` (only
    # enforced without the FIFO).
    bank_span = max(banks, default=0) + 1
    enforce_wb = not hw.has_writeback_fifo
    wb_offset = [lat * bank_span + bank for lat, bank in zip(latency, banks)] if enforce_wb else None
    # Dependency counts and the consumers of every value, restricted to
    # scheduled (compute) ops, as one CSR: value v's consumers are
    # ``consumers[first[v]:first[v + 1]]``, in ascending id.  ``first`` is
    # built as the running fanout total and filled back to front, so each
    # entry ends where its value's row starts.
    scheduled = [code >= 0 for code in codes]
    scheduled.append(False)            # an absent operand
    deps = [0] * n
    fanout = [0] * (n + 1)
    for vid in compress(range(n), scheduled):
        a, b = a_col[vid], b_col[vid]
        if scheduled[a]:
            deps[vid] = 1
            fanout[a] += 1
        if scheduled[b] and b != a:
            deps[vid] += 1
            fanout[b] += 1
    first = list(accumulate(fanout))
    del fanout
    consumers = [0] * first[-1]
    for vid in reversed(list(compress(range(n), deps))):
        a, b = a_col[vid], b_col[vid]
        if scheduled[b] and b != a:
            first[b] -= 1
            consumers[first[b]] = vid
        if scheduled[a]:
            first[a] -= 1
            consumers[first[a]] = vid
    del scheduled

    # earliest[vid]: the cycle at which every operand has been written back.
    earliest = [0] * n
    # ready_at[c]: values whose last operand lands at cycle c.  Keys are only
    # ever inserted at >= cycle + 1 and the cycle only advances by one or
    # jumps to the smallest key, so the current cycle is the only key that can
    # be due: the hand-off to the queues is a single pop.
    ready_at: dict = {0: [vid for vid, code in enumerate(codes) if code >= 0 and deps[vid] == 0]}
    # Short ops queue on their own; long and inv ops share the other queue,
    # which holds ``inv_queued`` inv ops.
    long_ready: deque = deque()
    short_ready: deque = deque()
    inv_queued = 0

    order: list = []
    bundle_sizes: list = []
    refused: list = []                 # the ops a queue's scan refused, this cycle
    writeback_busy: set = set()
    prune_size = 0
    unit_limit = [hw.units_of_kind(unit) for unit in UNITS]
    long_limit, inv_limit = unit_limit[_LONG], unit_limit[_INV]

    # Which queue a cycle scans first, by ``cycle % period``.
    period = max(1, hw.long_latency - hw.short_latency) if use_affinity else 1
    long_share = min(1.0, long_fraction + AFFINITY_BETA)
    orders = [(long_ready, short_ready) if not use_affinity or phase / period <= long_share
              else (short_ready, long_ready) for phase in range(period)]

    remaining = total_count
    last_finish = 0
    cycle = 0
    while remaining > 0:
        # Move instructions whose operands are ready by this cycle into the queues.
        for vid in ready_at.pop(cycle, ()):
            code = codes[vid]
            if code == _SHORT:
                short_ready.append(vid)
            else:
                long_ready.append(vid)
                if code == _INV:
                    inv_queued += 1

        if not long_ready and not short_ready:
            # Idle: jump to the next cycle where something becomes ready.
            if not ready_at:
                raise CompilerError("deadlock in scheduler: nothing ready, nothing pending")
            cycle = min(ready_at)
            continue

        free_slots = issue_width
        wb_base = cycle * bank_span
        next_cycle = cycle + 1

        for queue in orders[cycle % period]:
            while queue:
                vid = queue.popleft()
                code = codes[vid]
                # An empty bundle has every unit and both read ports of every
                # bank free, so only a later candidate can be refused by them.
                if free_slots < issue_width:
                    if units_used[code] >= unit_limit[code]:
                        refused.append(vid)
                        continue
                    # Read-port constraint: one read per operand on its bank.
                    bank_a, bank_b = read_a[vid], read_b[vid]
                    if bank_a == bank_b:
                        if bank_a >= 0 and reads_per_bank.get(bank_a, 0) + 2 > read_ports:
                            refused.append(vid)
                            continue
                    elif ((bank_a >= 0 and reads_per_bank.get(bank_a, 0) >= read_ports)
                          or (bank_b >= 0 and reads_per_bank.get(bank_b, 0) >= read_ports)):
                        refused.append(vid)
                        continue
                # Write-back port constraint (Figure 7).
                if enforce_wb:
                    wb_key = wb_base + wb_offset[vid]
                    if wb_key in writeback_busy:
                        refused.append(vid)
                        continue
                    writeback_busy.add(wb_key)
                # Issue it, and hand its consumers their write-back cycle.
                order.append(vid)
                finish = cycle + latency[vid]
                if finish > last_finish:
                    last_finish = finish
                for consumer in consumers[first[vid]:first[vid + 1]]:
                    deps[consumer] -= 1
                    if finish > earliest[consumer]:
                        earliest[consumer] = finish
                    if deps[consumer] == 0:
                        due = earliest[consumer] if earliest[consumer] > cycle else next_cycle
                        if due in ready_at:
                            ready_at[due].append(consumer)
                        else:
                            ready_at[due] = [consumer]
                if code == _INV:
                    inv_queued -= 1
                free_slots -= 1
                if not free_slots:
                    break
                # Account what the next candidate of this bundle competes for,
                # from its first op on (a single-issue bundle is full by now).
                if free_slots == issue_width - 1:
                    units_used = [0, 0, 0]
                    reads_per_bank: dict = {}
                units_used[code] += 1
                bank_a, bank_b = read_a[vid], read_b[vid]
                if bank_a >= 0:
                    reads_per_bank[bank_a] = reads_per_bank.get(bank_a, 0) + 1
                if bank_b >= 0:
                    reads_per_bank[bank_b] = reads_per_bank.get(bank_b, 0) + 1
                # Every op left in this queue is refused once the units it can
                # use are exhausted: stop popping them.
                if units_used[code] >= unit_limit[code] and (
                        code == _SHORT or (units_used[_LONG] >= long_limit
                                           and (units_used[_INV] >= inv_limit or not inv_queued))):
                    break
            if refused:
                # The full scan's order: refused ops rotate behind the ones
                # left unscanned only when the bundle is full.
                if free_slots and queue:
                    queue.extendleft(reversed(refused))
                else:
                    queue.extend(refused)
                refused.clear()
            if not free_slots:
                break

        if free_slots < issue_width:
            bundle_sizes.append(issue_width - free_slots)
            remaining -= issue_width - free_slots
            if len(writeback_busy) > prune_size:
                writeback_busy, prune_size = prune_slots(writeback_busy, wb_base)
        cycle = next_cycle

    return ScheduledProgram(
        module=module, hw=hw, banks=banks, order=order, bundle_sizes=bundle_sizes,
        planned_cycles=last_finish,
    )
