"""SSA IR container, stored column-wise.

Values are identified by their defining instruction's index.  A module holds
one list per instruction field (struct of arrays) rather than one object per
instruction, which is what lets the back end sweep the several hundred
thousand F_p instructions of the largest curves as integer columns.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from repro.errors import IRError
from repro.ir.ops import op_info


class Instruction(NamedTuple):
    """Row view of one SSA instruction: ``%id = op(args) : degree [attr] [lane] [phase]``.

    Built on demand by :meth:`IRModule.instruction` for listings, validation
    messages and tests; the compiler never creates one per F_p operation.

    ``lane`` partitions a batched kernel into independent work streams: the
    per-pair line evaluations of a multi-pairing carry their pair index, while
    the shared accumulator/final-exponentiation work stays on lane ``None``.
    The multi-core scheduler (:mod:`repro.sim.cycle`) distributes lanes across
    :attr:`~repro.hw.model.HardwareModel.n_cores`; single-pairing kernels are
    entirely lane-``None`` and unaffected.

    ``phase`` tags the kernel phase that emitted the instruction (``"miller"``
    or ``"final_exp"`` for the pairing kernels, ``None`` = untagged) the same
    way lanes tag batch streams; the cycle-accurate simulators aggregate
    per-phase instruction and cycle telemetry from it
    (:attr:`repro.sim.cycle.CycleStats.phase_stats`).
    """

    op: str
    args: tuple
    degree: int = 1
    attr: object = None
    lane: object = None
    phase: object = None

    def __repr__(self) -> str:
        attr = f" attr={self.attr!r}" if self.attr is not None else ""
        lane = f" lane={self.lane}" if self.lane is not None else ""
        phase = f" phase={self.phase}" if self.phase is not None else ""
        return f"{self.op}({', '.join(map(str, self.args))}) : fp{self.degree}{attr}{lane}{phase}"


class IRModule:
    """A single-basic-block SSA module (the pairing kernel is fully unrolled).

    Row ``vid`` of the parallel columns ``ops`` / ``a`` / ``b`` / ``attrs`` /
    ``lanes`` / ``phases`` / ``degrees`` is instruction ``%vid``.  ``a`` and
    ``b`` are the operand value ids with ``-1`` meaning "no such operand"; the
    only variadic op, the high-level ``pack``, carries its operand tuple in
    ``attrs`` (it has no attribute of its own).
    """

    def __init__(self, name: str = "module", level: str = "high"):
        self.name = name
        self.level = level                 # "high" or "low"
        self.ops: list = []
        self.a: list = []
        self.b: list = []
        self.attrs: list = []
        self.lanes: list = []
        self.phases: list = []
        self.degrees: list = []
        self.inputs: list = []             # instruction ids of input ops
        self.outputs: list = []            # instruction ids of output ops
        #: Instructions that occupy an issue slot (maintained by ``emit``).
        self.compute_ops = 0
        #: Lane stamped on emitted instructions (``None`` = shared work).
        self.current_lane = None
        #: Kernel phase stamped on emitted instructions (``None`` = untagged).
        self.current_phase = None
        #: Kernel-level facts that must survive lowering and every IROpt
        #: rebuild (each pass copies it alongside the lanes).  The batched
        #: codegen records the kernel shape here -- most importantly
        #: ``split_accumulators``/``accumulator_groups``, which tell the
        #: multi-core scheduler whether the lanes are per-pair line streams
        #: feeding one shared chain (shared mode) or complete independent
        #: accumulator groups whose shared lane is a pure merge tail (split
        #: mode).
        self.meta: dict = {}

    # -- construction ------------------------------------------------------------
    def emit(self, op: str, args: tuple = (), degree: int = 1, attr=None) -> int:
        vid = len(self.ops)
        count = len(args)
        if op == "pack" or count > 2:
            if op != "pack":
                raise IRError(f"{op}: at most two operands, got {count}")
            attr, count = tuple(args), 0
        self.ops.append(op)
        self.a.append(args[0] if count else -1)
        self.b.append(args[1] if count == 2 else -1)
        self.attrs.append(attr)
        self.lanes.append(self.current_lane)
        self.phases.append(self.current_phase)
        self.degrees.append(degree)
        if op == "input":
            self.inputs.append(vid)
        elif op == "output":
            self.outputs.append(vid)
        elif op != "const":
            self.compute_ops += 1
        return vid

    def splice(self, ops: list, a: list, b: list, lookup: list) -> range:
        """Append a block of F_p compute rows (no ``input`` / ``output`` /
        ``const``, no attribute) and return their value ids.

        ``a`` / ``b`` index the caller's renaming: ``lookup`` (value ids of
        this module), then the block's own rows; ``-1`` stays "no operand".
        Every row is stamped with the current lane and phase.  Column
        extension: what ``emit`` does row by row, for a block recorded
        elsewhere (a lowering template).
        """
        first, count = len(self.ops), len(ops)
        ids = range(first, first + count)
        rename = [*lookup, *ids, -1].__getitem__
        self.ops += ops
        self.a.extend(map(rename, a))
        self.b.extend(map(rename, b))
        self.attrs += [None] * count
        self.lanes += [self.current_lane] * count
        self.phases += [self.current_phase] * count
        self.degrees += [1] * count
        self.compute_ops += count
        return ids

    def successor(self, remap: list, ops: list, a: list, b: list, attrs: list,
                  lanes: list, phases: list) -> "IRModule":
        """The module an IROpt pass rebuilt from this one, adopting its columns.

        ``remap[old vid]`` is the new value id; passes keep every input and
        output row, so those lists carry over through it.
        """
        new = IRModule(name=self.name, level=self.level)
        new.meta = dict(self.meta)
        new.ops, new.a, new.b, new.attrs, new.lanes, new.phases = ops, a, b, attrs, lanes, phases
        new.degrees = [1] * len(ops)
        new.inputs = [remap[vid] for vid in self.inputs]
        new.outputs = [remap[vid] for vid in self.outputs]
        new.compute_ops = len(ops) - ops.count("const") - len(new.inputs) - len(new.outputs)
        return new

    def __len__(self) -> int:
        return len(self.ops)

    # -- row views ---------------------------------------------------------------
    def instruction(self, vid: int) -> Instruction:
        """Materialise row ``vid`` (cold paths only: ``dump``, ``validate``, tests)."""
        op, attr = self.ops[vid], self.attrs[vid]
        if op == "pack":
            args, attr = attr, None
        else:
            args = tuple(arg for arg in (self.a[vid], self.b[vid]) if arg >= 0)
        return Instruction(op, args, self.degrees[vid], attr, self.lanes[vid], self.phases[vid])

    @property
    def instructions(self) -> list:
        return [self.instruction(vid) for vid in range(len(self.ops))]

    # -- inspection --------------------------------------------------------------
    def _compute_histogram(self, tags: list) -> dict:
        return dict(Counter(tag for op, tag in zip(self.ops, tags)
                            if op not in ("const", "input", "output")))

    def lane_histogram(self) -> dict:
        """Compute-op counts per lane (``None`` = shared accumulator work)."""
        return self._compute_histogram(self.lanes)

    def phase_histogram(self) -> dict:
        """Compute-op counts per kernel phase (``None`` = untagged work)."""
        return self._compute_histogram(self.phases)

    def op_histogram(self) -> dict:
        return dict(Counter(self.ops))

    def count_compute_ops(self) -> int:
        """Number of instructions that occupy an issue slot (not const/input/output)."""
        return self.compute_ops

    def dump(self, limit: int | None = None) -> str:
        """Readable listing (useful for small modules and documentation examples)."""
        shown = len(self.ops) if limit is None else min(limit, len(self.ops))
        lines = [f"%{vid} = {self.instruction(vid)!r}" for vid in range(shown)]
        if shown < len(self.ops):
            lines.append(f"... ({len(self.ops) - shown} more)")
        return "\n".join(lines)

    # -- validation ---------------------------------------------------------------
    def validate(self) -> None:
        """Structural SSA validation; raises :class:`~repro.errors.IRError`."""
        for vid, instr in enumerate(self.instructions):
            info = op_info(instr.op)
            if info.arity >= 0 and len(instr.args) != info.arity:
                raise IRError(f"%{vid} = {instr.op}: expected {info.arity} args, got {len(instr.args)}")
            if info.has_attr and instr.attr is None:
                raise IRError(f"%{vid} = {instr.op}: missing attribute")
            for arg in instr.args:
                if not (0 <= arg < vid):
                    raise IRError(f"%{vid} = {instr.op}: argument %{arg} not yet defined (SSA violation)")
            if self.level == "low" and instr.degree != 1:
                raise IRError(f"%{vid}: low-level IR must only contain degree-1 values")
