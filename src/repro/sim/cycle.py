"""Cycle-accurate pipeline simulator.

Models the in-order issue pipeline described by the hardware abstraction:
instructions (or VLIW bundles) issue in program order; an issue stalls until all
source operands have been written back, until the required execution unit is
free to accept a new operation this cycle, and -- when the hardware model has no
write-back FIFO -- until the result's write-back cycle does not collide with an
earlier write to the same register bank (the conflict of Figure 7).

The same simulator therefore scores the unscheduled baseline ("Init." rows /
"before" of Figure 9) and the scheduled program: the schedule determines the
issue order and packing, the simulator determines the cycles.

Multi-core batched kernels
--------------------------
:meth:`CycleAccurateSimulator.run_multicore` extends the model to the
``n_cores`` dimension of the hardware abstraction for *batched* kernels
(:func:`repro.compiler.codegen.generate_multi_pairing_ir`): the independent
per-pair line evaluations carry a batch *lane* tag, lanes are distributed
across replicated cores by a deterministic longest-processing-time list
schedule (:func:`assign_lanes_to_cores`), and every core is simulated as its
own in-order pipeline with the full unit/write-back constraints while operand
readiness is tracked globally (a consumer on one core waits for the producing
core's write-back).  The schedule and the simulation are pure functions of the
scheduled program and the core count, so the statistics are bit-identical for
any enumeration order of the lanes.

The same machinery serves both accumulator modes of the batched kernel: in the
shared mode the lanes are per-pair line evaluations and the single accumulator
chain rides the shared lane on core 0; in the split mode
(``compile_multi_pairing(..., split_accumulators=True)``) each lane is one
complete accumulator *group* -- its pairs' lines plus its own chain -- and the
shared lane holds only the cross-group merge and the final exponentiation, so
the cores run with no cross-core serialisation until the merge.

Cross-batch pipelined execution
-------------------------------
:meth:`CycleAccurateSimulator.run_pipelined` models the *continuously-fed*
accelerator: ``depth`` renamed instances of the same scheduled batch kernel
are kept in flight at once.  Instance ``k`` is an instance-tagged replay of
the scheduled program -- value ids offset by a per-instance stride and
register banks rotated by ``k`` (:func:`repro.compiler.bankalloc.rebank_for_instance`)
-- appended to the same per-core in-order streams, so the cores left idle by
instance ``k``'s serial tail (the final exponentiation on the shared lane of
core 0) immediately start instance ``k+1``'s Miller lanes.  The walk's
fill/drain cycles and *steady-state* cycles per batch instance -- the
sustained-throughput figure the DSE and service layers rank on -- are read off
the same :class:`CycleStats` every walk answers with, and ``depth=1`` is
:meth:`run_multicore` bit for bit (both walks are the one stream engine).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq

from repro.compiler.bankalloc import rebank_for_instance
from repro.compiler.schedule import UNITS, ScheduledProgram, prune_slots, unit_columns
from repro.config import positive_int
from repro.errors import SimulationError
from repro.hw.model import HardwareModel
from repro.sim.trace import BUBBLE, INV, LONG, SHORT, IssueTrace


@dataclass
class CycleStats:
    """Output of one simulator walk -- :meth:`CycleAccurateSimulator.run`,
    ``run_multicore`` and ``run_pipelined`` all answer with this record.

    ``depth`` instances of the scheduled kernel were kept in flight (one,
    except under ``run_pipelined``) and the counters aggregate all of them.
    Every number is stored once: the totals, ``n_cores``, ``depth`` and the
    pipeline figures are properties over the per-core and per-instance columns.
    """

    total_cycles: int
    data_stalls: int
    writeback_stalls: int
    structural_stalls: int
    per_core_cycles: list              # finish cycle of each core's last result
    per_core_instructions: list
    #: Completion cycle of every instance, in instance order (strictly
    #: increasing: each core replays the instances in order).
    instance_cycles: list
    #: First issue cycle of every instance, in instance order.
    instance_start_cycles: list
    #: Per-kernel-phase telemetry keyed by the instruction ``phase`` tag
    #: ("miller", "final_exp") over all cores and instances: instruction count,
    #: first issue cycle, last write-back cycle and the spanned cycle count.
    #: Untagged instructions (phase ``None``) are not attributed.
    phase_stats: dict = field(default_factory=dict)
    #: ``(instance, phase) -> {"instructions", "first_issue", "last_finish",
    #: "cycles"}`` spans, so overlap between instance ``i``'s final
    #: exponentiation and instance ``i+1``'s Miller phase is directly
    #: assertable.
    instance_phase_spans: dict = field(default_factory=dict)
    #: lane (None = shared) -> core index; ``None`` from the bundle walk of
    #: :meth:`CycleAccurateSimulator.run`, which knows no lanes.
    lane_assignment: dict | None = None
    trace: IssueTrace | None = None
    #: Sorted issue cycles of every core, kept by ``run_pipelined`` only (the
    #: hot one-shot walks skip them); what :attr:`phase_occupancy` reads.
    core_issue_cycles: list | None = None

    @property
    def n_cores(self) -> int:
        return len(self.per_core_cycles)

    @property
    def depth(self) -> int:
        return len(self.instance_cycles)

    @property
    def instructions(self) -> int:
        return sum(self.per_core_instructions)

    @property
    def stall_cycles(self) -> int:
        return self.data_stalls + self.writeback_stalls + self.structural_stalls

    @property
    def ipc(self) -> float:
        if not self.total_cycles:
            return 0.0
        return self.instructions / self.total_cycles

    @property
    def fill_cycles(self) -> int:
        """Completion cycle of the first instance: the pipeline's fill time."""
        return self.instance_cycles[0]

    @property
    def drain_cycles(self) -> int:
        """Cycles spent after the last instance began issuing: the drain tail a
        continuously-fed accelerator would overlap with further instances."""
        return self.total_cycles - self.instance_start_cycles[-1]

    @property
    def steady_cycles_per_batch(self) -> float:
        """Steady-state cycles per batch instance -- the throughput figure
        consumers rank on: the average completion-to-completion gap between
        consecutive instances once the pipeline is past its fill transient
        (``(finish of last instance - finish of first) / (depth - 1)``; at
        depth 1 it degenerates to the one-shot batch latency)."""
        if self.depth > 1:
            return (self.instance_cycles[-1] - self.fill_cycles) / (self.depth - 1)
        return float(self.total_cycles)

    @property
    def phase_occupancy(self) -> dict:
        """Per-phase core occupancy (empty unless the issue cycles were kept).

        For each phase, the issue activity of *every* core (any phase, any
        instance) inside that phase's aggregate [first_issue, last_finish)
        span -- ``core_issues`` per core, ``busy_cores`` (cores with at least
        one issue in the span) and the average issue slots used per span
        cycle.  This is where cross-batch overlap shows up: at depth 1 a
        shared kernel's final exponentiation keeps one core busy; at depth
        >= 2 the other cores run the next instance's Miller lanes inside the
        same span.
        """
        occupancy: dict = {}
        if self.core_issue_cycles is None:
            return occupancy
        for phase, entry in self.phase_stats.items():
            first = entry["first_issue"]
            last = entry["last_finish"]
            core_issues = [
                bisect_left(cycles, last) - bisect_left(cycles, first)
                for cycles in self.core_issue_cycles
            ]
            span = max(1, last - first)
            occupancy[phase] = {
                "first_issue": first,
                "last_finish": last,
                "core_issues": core_issues,
                "busy_cores": sum(1 for count in core_issues if count),
                "issue_slots_per_cycle": round(sum(core_issues) / span, 4),
            }
        return occupancy

    def describe(self) -> dict:
        """The keys the walk has data for, in one order: the core columns when
        lanes were dispatched, the pipeline figures when issue cycles were kept."""
        dispatched = self.lane_assignment is not None
        pipelined = self.core_issue_cycles is not None
        summary = {"cycles": self.total_cycles}
        if dispatched:
            summary["n_cores"] = self.n_cores
        if pipelined:
            summary["depth"] = self.depth
        summary.update(
            instructions=self.instructions,
            ipc=round(self.ipc, 4),
            stall_cycles=self.stall_cycles,
            data_stalls=self.data_stalls,
            writeback_stalls=self.writeback_stalls,
            structural_stalls=self.structural_stalls,
        )
        if dispatched:
            summary["per_core_cycles"] = list(self.per_core_cycles)
            summary["per_core_instructions"] = list(self.per_core_instructions)
        if pipelined:
            summary.update(
                fill_cycles=self.fill_cycles,
                drain_cycles=self.drain_cycles,
                steady_cycles_per_batch=round(self.steady_cycles_per_batch, 1),
                instance_cycles=list(self.instance_cycles),
            )
        if self.phase_stats:
            summary["phases"] = {name: dict(stats) for name, stats in self.phase_stats.items()}
        occupancy = self.phase_occupancy
        if occupancy:
            summary["phase_occupancy"] = occupancy
        return summary


def validate_core_count(n_cores) -> int:
    """Core counts must be integral (bools rejected) and at least 1.

    ``True`` would silently simulate one core and a float would truncate, so
    both are treated as caller bugs rather than coerced.
    """
    return positive_int(n_cores, "core count", SimulationError)


def validate_pipeline_depth(depth) -> int:
    """Pipeline depths likewise: integral (bools rejected) and at least 1."""
    return positive_int(depth, "pipeline depth", SimulationError)


def assign_lanes_to_cores(lane_costs: dict, n_cores: int) -> dict:
    """Deterministic LPT list-schedule of batch lanes onto replicated cores.

    ``lane_costs`` maps each lane to its instruction count (the throughput
    proxy on an in-order core).  The shared lane ``None`` -- accumulator
    squarings, cross-group merges and the final exponentiation -- is pinned to
    core 0; the remaining lanes are placed longest-first on the least-loaded
    core.  Both orders carry an *explicit* tie-break so the result is a pure
    function of the contents of ``lane_costs``: lanes of equal cost are taken
    in ascending lane id, and equally-loaded cores are filled in ascending
    core index.  Equal-cost lanes therefore land round-robin on cores
    ``0, 1, 2, ...`` regardless of dict insertion order, worker enumeration
    order, or any other incidental ordering -- which is what makes multi-core
    cycle counts reproducible.
    """
    n_cores = validate_core_count(n_cores)
    assignment = {None: 0}
    loads = [0] * n_cores
    loads[0] += lane_costs.get(None, 0)
    # sort key: cost descending, then lane id ascending (the explicit
    # tie-break; lane ids are ints, so this never falls back to dict order).
    for lane in sorted(
        (lane for lane in lane_costs if lane is not None),
        key=lambda lane: (-lane_costs[lane], lane),
    ):
        core = min(range(n_cores), key=lambda index: (loads[index], index))
        assignment[lane] = core
        loads[core] += lane_costs[lane]
    return assignment


def assign_split_lanes_to_cores(lane_costs: dict, n_cores: int) -> dict:
    """Deterministic lane assignment for *split-accumulator* kernels.

    In a split kernel every non-shared lane is one complete accumulator group
    (its pairs' line evaluations plus its own squaring chain) and the shared
    lane ``None`` is a pure *tail*: the cross-group merge product and the
    final exponentiation, which run after the groups finish.  Counting that
    tail as core-0 load -- what the plain LPT of
    :func:`assign_lanes_to_cores` does -- would steer groups away from core 0
    and double them up on another core while core 0 idles through the whole
    Miller phase.

    Groups are therefore balanced by *group* load only: longest-first (ties
    by ascending lane id) onto the least group-loaded core, with equal loads
    broken toward the **highest** core index so core 0 -- which must also run
    the merge tail -- is loaded last.  With ``n_groups <= n_cores`` (the shape
    ``compile_multi_pairing(..., split_accumulators=True)`` emits) every group
    gets a dedicated core and nothing overlaps the merge host until the merge
    itself.  Like the LPT, the result is a pure function of the contents of
    ``lane_costs``.
    """
    n_cores = validate_core_count(n_cores)
    assignment = {None: 0}
    loads = [0] * n_cores
    for lane in sorted(
        (lane for lane in lane_costs if lane is not None),
        key=lambda lane: (-lane_costs[lane], lane),
    ):
        core = min(range(n_cores), key=lambda index: (loads[index], -index))
        assignment[lane] = core
        loads[core] += lane_costs[lane]
    return assignment


def _phase_summary(entries: dict) -> dict:
    """Per-phase ``[count, first_issue, last_finish]`` accumulators as the
    :attr:`CycleStats.phase_stats` / ``instance_phase_spans`` records.

    The stream walk fills the accumulators inline and the bundle walk reads
    them back off its ``ready`` column: a walk's cycle never decreases, so the
    first issue recorded for a key is its earliest.
    """
    return {
        key: {
            "instructions": count,
            "first_issue": first,
            "last_finish": last,
            "cycles": last - first,
        }
        for key, (count, first, last) in entries.items()
    }


def _issue_constraints(module, hw: HardwareModel) -> tuple:
    """The in-order issue constraint model shared by every simulator walk.

    Returns the per-value unit ``codes`` / ``latency`` columns
    (:func:`repro.compiler.schedule.unit_columns`), the unit limits indexed by
    unit code and the write-back switch.  :meth:`CycleAccurateSimulator.run`
    applies them in bundle-barrier mode (a VLIW bundle issues atomically)
    while the stream walk behind ``run_multicore`` / ``run_pipelined`` applies
    them once per core in greedy in-order mode; taking all four from here is
    what guarantees the two walks can never drift apart on the constraint
    model itself.
    """
    codes, latency = unit_columns(module, hw)
    unit_limit = [hw.units_of_kind(unit) for unit in UNITS]
    # Write-back bank conflicts are only enforced without the FIFO (the
    # Figure 7 conflict).
    return codes, latency, unit_limit, not hw.has_writeback_fifo


def _simulate_stream(
    schedule: ScheduledProgram,
    hw: HardwareModel,
    n_cores: int,
    depth: int,
    collect_events: bool = False,
) -> CycleStats:
    """The per-core in-order stream engine behind ``run_multicore``/``run_pipelined``.

    ``depth`` renamed instances of the scheduled program are appended to the
    same per-core in-order streams: instance ``k``'s value ids are offset by
    ``k * stride`` (data dependencies are intra-instance, so the
    renaming is a pure replay), and its register banks are rotated by ``k``
    (:func:`repro.compiler.bankalloc.rebank_for_instance`).  Every core is an
    independent in-order pipeline with its own execution units and write-back
    port constraints; operand readiness is global.  ``depth=1`` *is* the
    multi-core walk -- same loop, same counters, bit for bit.  ``collect_events``
    keeps every issue cycle per core (:attr:`CycleStats.core_issue_cycles`).
    """
    module = schedule.module
    banks = schedule.banks
    a_col, b_col, lane_col, phase_col = module.a, module.b, module.lanes, module.phases
    codes, latency, unit_limit, enforce_wb = _issue_constraints(module, hw)
    issue_width = hw.issue_width
    # [count, first_issue, last_finish] per phase and per (instance, phase).
    phases: dict = {}
    instance_phases: dict = {}

    # Split the scheduled issue order per core while preserving relative
    # order (each core stays in-order).
    order = schedule.order
    lane_costs: dict = {}
    for vid in order:
        lane = lane_col[vid]
        lane_costs[lane] = lane_costs.get(lane, 0) + 1
    # Split-accumulator kernels (module metadata set by the batched
    # codegen and preserved through lowering/IROpt) balance whole
    # accumulator groups with the merge tail excluded from the load
    # model; shared kernels use the classic LPT with the accumulator
    # chain pinned as core-0 load.
    if module.meta.get("split_accumulators"):
        assignment = assign_split_lanes_to_cores(lane_costs, n_cores)
    else:
        assignment = assign_lanes_to_cores(lane_costs, n_cores)
    core_streams: list = [[] for _ in range(n_cores)]
    for vid in order:
        core_streams[assignment.get(lane_col[vid], 0)].append(vid)
    # Instance k replays the same per-core streams with renamed (offset)
    # value ids and rotated banks; the lane -> core assignment is identical
    # for every instance, so each core's queue is the concatenation of its
    # stream across instances (in-order per instance, instances in order).
    # Each instance owns ``stride = len(module) + 1`` consecutive global ids:
    # the extra trailing slot is where an absent operand (-1) of the *next*
    # instance lands, so operand lookups need no branch.
    stride = len(module) + 1
    instance_banks = [rebank_for_instance(banks, k, hw.n_banks) for k in range(depth)]
    queues: list = [
        [k * stride + vid for k in range(depth) for vid in stream]
        for stream in core_streams
    ]

    # ready[gid]: cycle the value is available.  Inputs, constants and the
    # pad slots are preloaded (0: always ready; the continuously-fed model
    # DMAs the next instance's inputs while the current one runs); a
    # *scheduled* value holds -1 until it issues -- a consumer that finds -1
    # has a producer still queued on another core and waits for it.
    ready = [0] * stride
    for vid in order:
        ready[vid] = -1
    ready *= depth
    # Write-back slots taken, keyed ``(cycle * bank_span + bank) * n_cores + core``.
    writeback_busy = set()
    prune_size = 0
    bank_span = max(max(banks, default=0) + 1, hw.n_banks)   # rotated banks stay < n_banks
    events: list | None = [[] for _ in range(n_cores)] if collect_events else None

    heads = [0] * n_cores
    per_core_issued = [0] * n_cores
    per_core_finish = [0] * n_cores
    instance_first: list = [None] * depth
    instance_finish = [0] * depth
    data_stalls = 0
    writeback_stalls = 0
    structural_stalls = 0
    cycle = 0
    remaining = len(order) * depth

    while remaining > 0:
        issued_this_cycle = 0
        stall_events = 0
        next_wakeups = []
        for core in range(n_cores):
            queue = queues[core]
            head = heads[core]
            if head >= len(queue):
                continue
            units_used = [0, 0, 0]
            slots = 0
            stalled = None
            while head < len(queue) and slots < issue_width:
                gid = queue[head]
                instance, vid = divmod(gid, stride)
                code = codes[vid]
                if units_used[code] >= unit_limit[code]:
                    stalled = "structural"
                    break
                base = gid - vid
                ready_a, ready_b = ready[base + a_col[vid]], ready[base + b_col[vid]]
                if ready_a < 0 or ready_b < 0 or ready_a > cycle or ready_b > cycle:
                    stalled = "data"
                    if ready_a >= 0 and ready_b >= 0:
                        next_wakeups.append(ready_a if ready_a > ready_b else ready_b)
                    break
                finish = cycle + latency[vid]
                if enforce_wb:
                    wb_key = (finish * bank_span + instance_banks[instance][vid]) * n_cores + core
                    if wb_key in writeback_busy:
                        stalled = "writeback"
                        break
                # Issue.
                ready[gid] = finish
                phase = phase_col[vid]
                if phase is not None:
                    entry = phases.get(phase)
                    if entry is None:
                        phases[phase] = [1, cycle, finish]
                    else:
                        entry[0] += 1
                        if finish > entry[2]:
                            entry[2] = finish
                    entry = instance_phases.get((instance, phase))
                    if entry is None:
                        instance_phases[instance, phase] = [1, cycle, finish]
                    else:
                        entry[0] += 1
                        if finish > entry[2]:
                            entry[2] = finish
                if enforce_wb:
                    writeback_busy.add(wb_key)
                if events is not None:
                    events[core].append(cycle)
                if instance_first[instance] is None:
                    instance_first[instance] = cycle
                if finish > instance_finish[instance]:
                    instance_finish[instance] = finish
                units_used[code] += 1
                per_core_issued[core] += 1
                if finish > per_core_finish[core]:
                    per_core_finish[core] = finish
                head += 1
                slots += 1
            if slots:
                issued_this_cycle += slots
            elif stalled == "data":
                stall_events += 1
                data_stalls += 1
            elif stalled == "writeback":
                stall_events += 1
                writeback_stalls += 1
            elif stalled == "structural":
                stall_events += 1
                structural_stalls += 1
            heads[core] = head
            remaining -= slots
        if len(writeback_busy) > prune_size:
            writeback_busy, prune_size = prune_slots(writeback_busy, cycle * bank_span * n_cores)
        if issued_this_cycle:
            cycle += 1
        elif next_wakeups and len(next_wakeups) == stall_events:
            # Every stalled core is waiting on a known in-flight write-back
            # (no write-back/structural/unissued-producer blocks, which can
            # clear earlier): jump straight to the earliest one, charging
            # each stalled core one data-stall bubble per skipped cycle so
            # the counters equal a cycle-by-cycle walk.
            target = min(next_wakeups)
            data_stalls += (target - (cycle + 1)) * stall_events
            cycle = target
        else:
            cycle += 1

    return CycleStats(
        total_cycles=max([cycle] + per_core_finish),
        data_stalls=data_stalls,
        writeback_stalls=writeback_stalls,
        structural_stalls=structural_stalls,
        per_core_cycles=per_core_finish,
        per_core_instructions=per_core_issued,
        instance_cycles=instance_finish,
        instance_start_cycles=[first or 0 for first in instance_first],
        phase_stats=_phase_summary(phases),
        instance_phase_spans=_phase_summary(instance_phases),
        lane_assignment=assignment,
        core_issue_cycles=events,
    )


class CycleAccurateSimulator:
    """Simulates a :class:`~repro.compiler.schedule.ScheduledProgram` on its hardware model."""

    def __init__(self, hw: HardwareModel | None = None, record_trace: bool = False):
        self.hw = hw
        self.record_trace = record_trace

    def run(self, schedule: ScheduledProgram) -> CycleStats:
        """Walk the schedule bundle by bundle: a bundle issues, all its ops
        together, at the first cycle every operand has been written back and,
        without the FIFO, its result's write-back slot is free.

        The model is validated first, and a bundle wider than ``issue_width``
        or needing more units of a kind than the model has raises
        :class:`~repro.errors.SimulationError`: no bundle can then stall on a
        unit.  A validated model without the FIFO issues one op per cycle, so
        only a one-op bundle can stall on write-back; every other stall is a
        data stall, waited out in one step.
        """
        hw = (self.hw or schedule.hw).validate()
        module = schedule.module
        banks = schedule.banks
        a_col, b_col, phase_col = module.a, module.b, module.phases
        codes, latency, unit_limit, enforce_wb = _issue_constraints(module, hw)
        issue_width = hw.issue_width
        trace_codes = [] if self.record_trace else None
        trace_of_unit = [{"long": LONG, "short": SHORT, "inv": INV}[unit] for unit in UNITS]

        # ready[vid]: cycle the result is available (0 = preloaded); the
        # trailing slot is where an absent operand (-1) lands.
        ready = [0] * (len(module) + 1)
        # Write-back slots taken, keyed ``cycle * bank_span + bank``.
        writeback_busy = set()
        prune_size = 0
        bank_span = max(banks, default=0) + 1

        cycle = 0
        data_stalls = 0
        writeback_stalls = 0

        order = schedule.order
        start = 0
        for size in schedule.bundle_sizes:
            if size == 1:
                vid = order[start]
                start += 1
                ready_a, ready_b = ready[a_col[vid]], ready[b_col[vid]]
                operands_ready = ready_a if ready_a > ready_b else ready_b
            else:
                bundle = order[start:start + size]
                start += size
                units_used = [0, 0, 0]
                for vid in bundle:
                    units_used[codes[vid]] += 1
                if size > issue_width or any(map(int.__gt__, units_used, unit_limit)):
                    raise SimulationError(
                        f"bundle of value ids {bundle} at cycle {cycle} needs {size} issue "
                        f"slots and {dict(zip(UNITS, units_used))} units; model {hw.name!r} "
                        f"has {issue_width} and {dict(zip(UNITS, unit_limit))}")
                operands_ready = max(max(ready[a_col[vid]], ready[b_col[vid]]) for vid in bundle)
            # The bundle waits for its last operand in one step.
            wait = operands_ready - cycle
            if wait > 0:
                data_stalls += wait
                if trace_codes is not None:
                    trace_codes += [BUBBLE] * wait
                cycle += wait
            if size == 1:
                finish = cycle + latency[vid]
                if enforce_wb:
                    # Without the FIFO a bundle is one op: it steps over the
                    # taken write-back slots of its bank.
                    key = finish * bank_span + banks[vid]
                    while key in writeback_busy:
                        writeback_stalls += 1
                        if trace_codes is not None:
                            trace_codes.append(BUBBLE)
                        cycle += 1
                        finish += 1
                        key += bank_span
                    writeback_busy.add(key)
                    if len(writeback_busy) > prune_size:
                        writeback_busy, prune_size = prune_slots(writeback_busy, cycle * bank_span)
                ready[vid] = finish
                if trace_codes is not None:
                    trace_codes.append(trace_of_unit[codes[vid]])
            else:
                for vid in bundle:
                    ready[vid] = cycle + latency[vid]
                if trace_codes is not None:
                    trace_codes.append(max(trace_of_unit[codes[vid]] for vid in bundle))
            cycle += 1

        # Everything else is read back off ``ready[vid] = issue + latency``
        # (0 for a value that never issues), so the loop above pays nothing
        # for it.  Cycles never decrease along the order: a phase's first
        # value in it issued first.
        total_cycles = max(cycle, max(ready))
        phase_of = list(map(phase_col.__getitem__, order))
        spans = {}
        for phase in dict.fromkeys(phase_of):
            if phase is not None:
                ids = list(compress(order, map(eq, phase_of, repeat(phase))))
                spans[phase] = (len(ids), ready[ids[0]] - latency[ids[0]],
                                max(map(ready.__getitem__, ids)))
        phase_stats = _phase_summary(spans)
        first = order[0] if order else None
        # One core, one instance: the per-core and per-instance columns carry
        # the totals, and the instance's phase spans are the phase spans.
        return CycleStats(
            total_cycles=total_cycles,
            data_stalls=data_stalls,
            writeback_stalls=writeback_stalls,
            structural_stalls=0,
            per_core_cycles=[total_cycles],
            per_core_instructions=[len(order)],
            instance_cycles=[total_cycles],
            instance_start_cycles=[0 if first is None else ready[first] - latency[first]],
            phase_stats=phase_stats,
            instance_phase_spans={(0, phase): dict(span) for phase, span in phase_stats.items()},
            trace=IssueTrace(trace_codes) if trace_codes is not None else None,
        )

    def run_multicore(self, schedule: ScheduledProgram, n_cores: int | None = None) -> CycleStats:
        """Simulate a batched (lane-tagged) kernel on ``n_cores`` replicated cores.

        Each lane's instruction stream is dispatched to one core by the
        deterministic list schedule of :func:`assign_lanes_to_cores` (shared
        work, lane ``None``, runs on core 0) and the cores are walked by the
        stream engine: operand readiness is global, so a shared accumulator
        update waits for the line evaluation it consumes no matter which core
        produced it.  With ``n_cores=1`` and a single-issue model this
        degenerates to exactly the single-core simulation of :meth:`run` --
        total cycles and stall counters alike (skipped idle windows are
        charged one bubble per stalled core per cycle).
        """
        hw = self.hw or schedule.hw
        n_cores = validate_core_count(hw.n_cores if n_cores is None else n_cores)
        return _simulate_stream(schedule, hw, n_cores, depth=1)

    def run_pipelined(
        self,
        schedule: ScheduledProgram,
        n_cores: int | None = None,
        depth: int = 1,
    ) -> CycleStats:
        """Simulate ``depth`` instances of a batched kernel kept in flight.

        The continuously-fed accelerator model of the module docstring: cores
        left idle by instance ``k``'s serial final-exponentiation tail start
        instance ``k+1``'s Miller lanes immediately.  ``depth=1`` is
        :meth:`run_multicore` plus the kept issue cycles (same stream engine);
        deeper pipelines trade fill/drain transients for a lower steady-state
        cycles-per-batch -- the figure
        :attr:`CycleStats.steady_cycles_per_batch` reports.  The design
        evaluation does not rank on it: the area model prices one register
        file, and ``depth`` instances keep ``depth`` of them resident.
        """
        hw = self.hw or schedule.hw
        n_cores = validate_core_count(hw.n_cores if n_cores is None else n_cores)
        depth = validate_pipeline_depth(depth)
        return _simulate_stream(schedule, hw, n_cores, depth, collect_events=True)
