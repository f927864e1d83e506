"""IROpt: SSA data-flow optimisations on the F_p-level IR.

The pass set follows Section 3.5: constant propagation (with the Frobenius
constant tables already materialised as ``const`` instructions by lowering),
strength reduction, global value numbering exploiting commutativity, and dead
code elimination.  Together they also realise the dense-times-sparse
multiplication optimisation "for free": the structural zeros of the line
evaluations fold away.

Each pass is one linear sweep over the module's columns that appends the
rebuilt rows to fresh columns and records ``remap[old vid] = new vid``; no
per-instruction object is created, which keeps the whole pipeline O(n) with a
small constant for the several-hundred-thousand instruction kernels of the
largest curves.  ``remap`` carries one extra trailing ``-1`` so that an absent
operand (``-1``) maps to itself without a branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress

from repro.ir.module import IRModule
from repro.ir.ops import LOW_LEVEL_OPS, op_info

_COMMUTATIVE = frozenset(op for op in LOW_LEVEL_OPS if op_info(op).commutative)


@dataclass
class OptStats:
    """Compute-op counts (Table 7): ``per_pass`` holds the count after every named
    pass (``"iteration-1/constfold"`` ...) and whole iteration (``"iteration-1"`` ...)."""

    initial: int = 0
    final: int = 0
    per_pass: dict = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        if not self.initial:
            return 0.0
        return 1.0 - self.final / self.initial


def constant_folding(module: IRModule, p: int) -> IRModule:
    """Fold operations whose operands are all compile-time constants."""
    # Folding rewrites rows in place (no row appears or disappears), so the
    # pass patches copies of the columns and value ids do not move.
    ops, a_col, b_col, attr_col = module.ops[:], module.a[:], module.b[:], module.attrs[:]
    for vid, (op, a, b) in enumerate(zip(module.ops, a_col, b_col)):
        if op == "const":
            attr_col[vid] %= p
        elif (a >= 0 and op != "output" and ops[a] == "const"
              and (b < 0 or ops[b] == "const")):
            fold = _FOLD.get(op)
            value = fold and fold(attr_col[a], attr_col[b], attr_col[vid], p)
            if value is not None:
                ops[vid], a_col[vid], b_col[vid], attr_col[vid] = "const", -1, -1, value
    return module.successor(range(len(ops)), ops, a_col, b_col, attr_col,
                            module.lanes[:], module.phases[:])


#: op -> f(x, y, attr, p): the folded value (``y`` is arbitrary for unary ops).
_FOLD = {
    "add": lambda x, y, k, p: (x + y) % p,
    "sub": lambda x, y, k, p: (x - y) % p,
    "neg": lambda x, y, k, p: -x % p,
    "dbl": lambda x, y, k, p: 2 * x % p,
    "tpl": lambda x, y, k, p: 3 * x % p,
    "muli": lambda x, y, k, p: k * x % p,
    "mul": lambda x, y, k, p: x * y % p,
    "sqr": lambda x, y, k, p: x * x % p,
    "inv": lambda x, y, k, p: pow(x, -1, p) if x else None,
}


def strength_reduction(module: IRModule, p: int) -> IRModule:
    """Rewrite operations with special constant operands into cheaper linear forms."""
    ops, a_col, b_col, attr_col, lane_col, phase_col = [], [], [], [], [], []
    remap = [0] * len(module) + [-1]
    zero = ("const", -1, -1, 0)
    for vid, (op, a, b, attr, lane, phase) in enumerate(zip(
            module.ops, module.a, module.b, module.attrs, module.lanes, module.phases)):
        a, b = remap[a], remap[b]
        ca = attr_col[a] if a >= 0 and ops[a] == "const" else None
        cb = attr_col[b] if b >= 0 and ops[b] == "const" else None
        alias = -1
        if op == "add":
            if ca == 0:
                alias = b
            elif cb == 0:
                alias = a
            elif a == b:
                op, b, attr = "dbl", -1, None
        elif op == "sub":
            if cb == 0:
                alias = a
            elif a == b:
                op, a, b, attr = zero
            elif ca == 0:
                op, a, b, attr = "neg", b, -1, None
        elif op == "mul":
            # x is the operand facing the constant c (if exactly one side is).
            x, c = (b, ca) if ca is not None and cb is None else (a, cb)
            if c == 0:
                op, a, b, attr = zero
            elif c == 1:
                alias = x
            elif c == 2:
                op, a, b, attr = "dbl", x, -1, None
            elif c == 3:
                op, a, b, attr = "tpl", x, -1, None
            elif c == p - 1:
                op, a, b, attr = "neg", x, -1, None
            elif c == p - 2:
                op, a, b, attr = "neg", len(ops), -1, None
                ops.append("dbl")
                a_col.append(x)
                b_col.append(-1)
                attr_col.append(None)
                lane_col.append(lane)
                phase_col.append(phase)
            elif a == b:
                op, b, attr = "sqr", -1, None
        elif op == "sqr":
            if ca is not None:
                op, a, attr = "const", -1, (ca * ca) % p
        elif op == "dbl" or op == "tpl" or op == "neg":
            if ca is not None:
                factor = {"dbl": 2, "tpl": 3, "neg": -1}[op]
                op, a, attr = "const", -1, (factor * ca) % p
        elif op == "muli":
            if attr == 0:
                op, a, b, attr = zero
            elif attr == 1:
                alias = a
            elif attr == 2 or attr == 3:
                op, attr = ("dbl" if attr == 2 else "tpl"), None
        if alias >= 0:
            remap[vid] = alias
            continue
        remap[vid] = len(ops)
        ops.append(op)
        a_col.append(a)
        b_col.append(b)
        attr_col.append(attr)
        lane_col.append(lane)
        phase_col.append(phase)
    return module.successor(remap, ops, a_col, b_col, attr_col, lane_col, phase_col)


def global_value_numbering(module: IRModule, p: int) -> IRModule:
    """Reuse identical computations (commutative ops are normalised by operand order)."""
    n = len(module)
    lanes, phases = module.lanes[:], module.phases[:]
    canon = list(range(n)) + [-1]      # the earliest value computing the same thing
    keep = bytearray(b"\x01") * n
    table: dict = {}
    for vid, (op, a, b, attr) in enumerate(zip(module.ops, module.a, module.b, module.attrs)):
        if op == "input" or op == "output":
            continue
        a, b = canon[a], canon[b]
        if op == "const":
            key = (op, attr % p)
        elif b < a and op in _COMMUTATIVE:
            key = (op, b, a, attr)
        else:
            key = (op, a, b, attr)
        hit = table.setdefault(key, vid)
        if hit != vid:
            # A value shared by two different lanes is no longer private work:
            # whether the lanes are per-pair line streams (shared-accumulator
            # kernels) or whole accumulator groups (split kernels), a
            # cross-lane/cross-group GVN merge is demoted to the shared lane so
            # the multi-core partition stays honest -- the value now feeds two
            # cores, and keeping it on either one would hide that dependence
            # from the LPT load model (the dependence tracking keeps the
            # *simulation* correct either way).
            if lanes[hit] != lanes[vid]:
                lanes[hit] = None
            # A value shared by two phases is likewise demoted to untagged so
            # the per-phase telemetry never double-attributes it.
            if phases[hit] != phases[vid]:
                phases[hit] = None
            canon[vid] = hit
            keep[vid] = 0
    return _compact(module, keep, canon, lanes, phases)


def dead_code_elimination(module: IRModule) -> IRModule:
    """Drop instructions that cannot reach an output (inputs are always kept)."""
    n = len(module)
    a_col, b_col = module.a, module.b
    live = bytearray(n + 1)            # slot n == index -1 absorbs absent operands
    for vid in module.inputs + module.outputs:
        live[vid] = 1
    for vid in range(n - 1, -1, -1):
        if live[vid]:
            live[a_col[vid]] = 1
            live[b_col[vid]] = 1
    live.pop()
    return _compact(module, live, range(n + 1), module.lanes, module.phases)


def _compact(module: IRModule, keep: bytearray, canon, lanes: list, phases: list) -> IRModule:
    """Drop the rows whose ``keep`` flag is 0 and renumber the rest.

    An operand ``v`` of a kept row is renamed to the new id of ``canon[v]``
    (the kept value standing in for it); ``lanes`` / ``phases`` are the tag
    columns to carry over.
    """
    rank = list(accumulate(keep, initial=0))
    rank[len(keep)] = -1               # canon[-1] == -1: an absent operand stays absent
    remap = [rank[v] for v in canon]
    return module.successor(
        remap, list(compress(module.ops, keep)),
        [remap[a] for a in compress(module.a, keep)],
        [remap[b] for b in compress(module.b, keep)],
        list(compress(module.attrs, keep)), list(compress(lanes, keep)),
        list(compress(phases, keep)),
    )


_PASSES = (
    ("constfold", constant_folding),
    ("strength", strength_reduction),
    ("gvn", global_value_numbering),
    ("dce", lambda module, p: dead_code_elimination(module)),
)


def optimize(module: IRModule, p: int, iterations: int = 2) -> tuple:
    """Run the full IROpt pipeline; returns (optimised module, OptStats)."""
    stats = OptStats(initial=module.compute_ops)
    for i in range(iterations):
        for name, run in _PASSES:
            module = run(module, p)
            stats.per_pass[f"iteration-{i + 1}/{name}"] = module.compute_ops
        stats.per_pass[f"iteration-{i + 1}"] = module.compute_ops
    stats.final = module.compute_ops
    return module, stats
