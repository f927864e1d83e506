"""IROpt: SSA data-flow optimisations on the F_p-level IR.

The pass set follows Section 3.5: constant propagation (with the Frobenius
constant tables already materialised as ``const`` instructions by lowering),
strength reduction, global value numbering exploiting commutativity, and dead
code elimination.  Together they also realise the dense-times-sparse
multiplication optimisation "for free": the structural zeros of the line
evaluations fold away.

Each rule (:func:`_folded`, :func:`_reduced`, :func:`_key` / :func:`_merge`,
:func:`_live`) is written once and shared by the four public passes, each one
linear sweep that rebuilds the module's columns, and :func:`optimize`, which
computes their fixed schedule ``(constfold -> strength -> gvn -> dce) x 2`` in
two sweeps over one id space and one final compaction.  Iteration 1 folds,
reduces and value-numbers every row in place on copies of the columns, each
pass with its own view of the rows before it; dead code elimination is a
backward liveness walk.  It leaves for iteration 2 only the rows whose
operands became constant or equal after they were reduced, and what changing
those changes.  Per-row lists carry one trailing slot so that an absent
operand (``-1``) maps to itself without a branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress

from repro.ir.module import IRModule
from repro.ir.ops import HIGH_LEVEL_OPS, LOW_LEVEL_OPS, op_info

_COMMUTATIVE = frozenset(op for op in LOW_LEVEL_OPS if op_info(op).commutative)
_NEG_DBL = "neg(dbl)"                  # mul(x, p - 2): neg of a dbl(x) row put in before it
_ZERO = ("const", -1, -1, 0)
#: GVN packs the key of a row without an attribute into one int instead of a
#: tuple: ``b`` above bit ``_KEY_SHIFT``, then the op's index, then ``a + 1`` in
#: the low ``_ID_BITS`` bits (``_OP_TAG[op]`` carries the index and the ``+ 1``).
#: An ``a`` too large for its field keeps the tuple, so two rows share a key
#: only if they are equal; with ``a`` in the low bits, the dict's first probe
#: spreads over the operands instead of piling up on one op.
_ID_BITS = 32
_ID_LIMIT = (1 << _ID_BITS) - 1
_OP_TAG = {op: code << _ID_BITS | 1 for code, op in enumerate(sorted(HIGH_LEVEL_OPS | LOW_LEVEL_OPS))}
_KEY_SHIFT = _ID_BITS + len(_OP_TAG).bit_length()
#: Ops iteration 1 always visits: a constant folds, ``muli`` reduces by its
#: attribute, and inputs and outputs are never value-numbered.
_VISITED = frozenset(("const", "muli", "input", "output"))


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


def _folded(op, a, b, attr, value, p):
    """The constant row ``op(a, b)`` folds to, or None if it stays
    (``value[v]``: row v's folded constant, None if it has none)."""
    if op == "const":
        return attr % p
    fold = _FOLD.get(op)
    if fold and value[a] is not None and (b < 0 or value[b] is not None):
        return fold(value[a], value[b], attr, p)
    return None


def constant_folding(module: IRModule, p: int) -> IRModule:
    """Fold operations whose operands are all compile-time constants."""
    # Folding rewrites rows in place (no row appears or disappears), so the
    # pass patches copies of the columns and value ids do not move.
    ops, a_col, b_col, attr_col = module.ops[:], module.a[:], module.b[:], module.attrs[:]
    value = [None] * (len(ops) + 1)
    for vid, (op, a, b, attr) in enumerate(zip(module.ops, module.a, module.b, module.attrs)):
        folded = value[vid] = _folded(op, a, b, attr, value, p)
        if folded is not None:
            ops[vid], a_col[vid], b_col[vid], attr_col[vid] = "const", -1, -1, folded
    return module.successor(range(len(ops)), ops, a_col, b_col, attr_col,
                            module.lanes[:], module.phases[:])


def _reduced(op, a, b, attr, ca, cb, p):
    """Strength reduction of row ``op(a, b)`` whose operands hold the constants
    ``ca`` / ``cb`` (None: not a constant): the operand it aliases (an int),
    the rewritten row ``(op, a, b, attr)``, or None if it stays."""
    if op == "add":
        if ca == 0:
            return b
        if cb == 0:
            return a
        if a == b:
            return ("dbl", a, -1, None)
    elif op == "sub":
        if cb == 0:
            return a
        if a == b:
            return _ZERO
        if ca == 0:
            return ("neg", b, -1, None)
    elif op == "mul":
        # x is the operand facing the constant c (if exactly one side is).
        x, c = (b, ca) if ca is not None and cb is None else (a, cb)
        if c == 0:
            return _ZERO
        if c == 1:
            return x
        unary = {p - 2: _NEG_DBL, p - 1: "neg", 3: "tpl", 2: "dbl"}.get(c)   # later keys win
        if unary:
            return (unary, x, -1, None)
        if a == b:
            return ("sqr", a, -1, None)
    elif op == "sqr" or op == "dbl" or op == "tpl" or op == "neg":
        if ca is not None:
            return ("const", -1, -1, _FOLD[op](ca, None, attr, p))
    elif op == "muli":
        if attr == 0:
            return _ZERO
        if attr == 1:
            return a
        if attr == 2 or attr == 3:
            return ("dbl" if attr == 2 else "tpl", a, b, None)
    return None


def strength_reduction(module: IRModule, p: int) -> IRModule:
    """Rewrite operations with special constant operands into cheaper linear forms."""
    ops, a_col, b_col, attr_col, lane_col, phase_col = columns = ([], [], [], [], [], [])
    remap = [0] * len(module) + [-1]
    for vid, (op, a, b, attr, lane, phase) in enumerate(zip(
            module.ops, module.a, module.b, module.attrs, module.lanes, module.phases)):
        a, b = remap[a], remap[b]
        row = _reduced(op, a, b, attr, attr_col[a] if a >= 0 and ops[a] == "const" else None,
                       attr_col[b] if b >= 0 and ops[b] == "const" else None, p)
        if type(row) is int:
            remap[vid] = row
            continue
        if row is not None:
            op, a, b, attr = row
            if op is _NEG_DBL:
                for column, item in zip(columns, ("dbl", a, -1, None, lane, phase)):
                    column.append(item)
                op, a = "neg", len(ops) - 1
        remap[vid] = len(ops)
        for column, item in zip(columns, (op, a, b, attr, lane, phase)):
            column.append(item)
    return module.successor(remap, ops, a_col, b_col, attr_col, lane_col, phase_col)


def _key(op, a, b, attr, p):
    """GVN's key of row ``op(a, b)``: rows with equal keys compute the same value."""
    if op == "const":
        return (op, attr % p)
    if b < a and op in _COMMUTATIVE:
        a, b = b, a
    if attr is None and a < _ID_LIMIT:
        return b << _KEY_SHIFT | _OP_TAG[op] + a
    return (op, a, b, attr)


def _merge(canon, lanes, phases, hit, vid):
    """Let value ``hit`` stand in for the identical value ``vid``.

    A value shared by two lanes (per-pair line streams or whole accumulator
    groups) is demoted to the shared lane: it now feeds two cores, and keeping
    it on either would hide that dependence from the LPT load model (dependence
    tracking keeps the *simulation* correct either way).  A value shared by two
    phases is demoted to untagged so per-phase telemetry never counts it twice.
    """
    canon[vid] = hit
    if lanes[hit] != lanes[vid]:
        lanes[hit] = None
    if phases[hit] != phases[vid]:
        phases[hit] = None


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
        hit = table.setdefault(_key(op, canon[a], canon[b], attr, p), vid)
        if hit != vid:
            _merge(canon, lanes, phases, hit, vid)
            keep[vid] = 0
    return _compact(module, keep, canon,
                    (module.ops, module.a, module.b, module.attrs, lanes, phases))


def _live(module: IRModule, order, a_col: list, b_col: list) -> bytearray:
    """Rows that reach an output (inputs are always kept), walking ``order`` (each
    row after its operands) backwards; a trailing slot absorbs absent operands."""
    live = bytearray(len(a_col) + 1)
    for vid in module.inputs + module.outputs:
        live[vid] = 1
    for vid in reversed(order):
        if live[vid]:
            live[a_col[vid]] = live[b_col[vid]] = 1
    live.pop()
    return live


def dead_code_elimination(module: IRModule) -> IRModule:
    """Drop instructions that cannot reach an output (inputs are always kept)."""
    n = len(module)
    live = _live(module, range(n), module.a, module.b)
    return _compact(module, live, range(n + 1), (module.ops, module.a, module.b,
                                                 module.attrs, module.lanes, module.phases))


def _compact(module: IRModule, keep: bytearray, canon, columns: tuple) -> IRModule:
    """Drop the rows of ``columns`` (ops, a, b, attrs, lanes, phases) whose ``keep``
    flag is 0 and rename operand ``v`` of the rest to the new id of row ``canon[v]``
    (the kept value standing in for it; ``canon[-1]``, ``-1`` or ``len(keep)``, keeps
    an absent operand absent)."""
    rank = list(accumulate(keep, initial=0))
    rank[len(keep)] = -1
    remap = [rank[v] for v in canon]
    del rank
    renamed = remap.__getitem__
    ops, a_col, b_col, attrs, lanes, phases = columns
    return module.successor(remap, list(compress(ops, keep)),
                            list(map(renamed, compress(a_col, keep))),
                            list(map(renamed, compress(b_col, keep))),
                            *(list(compress(column, keep)) for column in (attrs, lanes, phases)))


def optimize(module: IRModule, p: int) -> tuple:
    """Run the full IROpt pipeline; returns (optimised module, OptStats), both
    equal to those of the four passes run twice in order."""
    n = len(module)
    ops, a_col, b_col, attrs = module.ops[:], module.a[:], module.b[:], module.attrs[:]
    lanes, phases = module.lanes[:], module.phases[:]
    value = [None] * (n + 1)           # constant folding: the row's folded constant
    const = [None] * (n + 1)           # strength reduction: the row's constant
    alias = list(range(n)) + [-1]      # strength reduction: the row standing in for it
    canon = alias[:]                   # GVN: the first row computing the same value
    anchor: dict = {}                  # inserted dbl(x) row -> the neg row it feeds
    seeds, removed = [], [0, 0, 0]     # rows iteration 2 must visit; rows folded, reduced, merged

    def position(v):                   # an inserted row sits just before its neg
        return 2 * v + 1 if v < n else 2 * anchor[v]

    def visit(vid, op, a, b, attr, renumber):
        if op == "const" or value[a] is not None:
            folded = _folded(op, a, b, attr, value, p)
            if folded is not None:
                value[vid] = folded
                removed[0] += op != "const"
                op, a, b, attr = "const", -1, -1, folded
        a, b = alias[a], alias[b]
        if const[a] is not None or const[b] is not None or a == b or op == "muli":
            row = _reduced(op, a, b, attr, const[a], const[b], p)
            if type(row) is int:
                alias[vid], canon[vid] = row, canon[row]
                removed[1] += 1
                return
            if row is not None:
                op, a, b, attr = row
                removed[1] += (op == "const") - (op is _NEG_DBL)
            if op is _NEG_DBL:         # number a dbl(x) row put in just before
                d = len(ops)
                anchor[d] = vid
                for column, item in zip((ops, a_col, b_col, attrs, lanes, phases),
                                        ("dbl", a, -1, None, lanes[vid], phases[vid])):
                    column.append(item)
                for state, item in zip((value, const, alias, canon), (None, None, d, d)):
                    state.insert(-1, item)
                number(d, "dbl", a, -1, None, renumber)
                op, a = "neg", d
        number(vid, op, a, b, attr, renumber)

    def number(vid, op, a, b, attr, renumber):
        a, b = canon[a], canon[b]
        if op == "const":
            const[vid] = attr
        if op != "input" and op != "output":
            hit = renumber(_key(op, a, b, attr, p), vid)
            if hit != vid:
                _merge(canon, lanes, phases, hit, vid)
                removed[2] += op != "const"
                return
            if a == b >= 0 or (const[a] is not None and (b < 0 or const[b] is not None)):
                seeds.append(vid)
        ops[vid], a_col[vid], b_col[vid], attrs[vid] = op, a, b, attr

    stats = OptStats(initial=module.compute_ops)
    table: dict = {}
    setdefault = table.setdefault
    for vid, (op, a, b, attr) in enumerate(zip(module.ops, module.a, module.b, module.attrs)):
        # Most rows neither fold nor reduce: they are value-numbered here.
        # ``canon[v]`` is ``canon[alias[v]]`` and a constant's canon is a
        # constant, so a row whose canonical operands differ and are not
        # constants has nothing for ``visit`` to fold, reduce or seed.
        x, y = canon[a], canon[b]
        if x == y or const[x] is not None or const[y] is not None or op in _VISITED:
            visit(vid, op, a, b, attr, setdefault)
            continue
        hit = setdefault(_key(op, x, y, attr, p), vid)
        if hit != vid:
            _merge(canon, lanes, phases, hit, vid)
            removed[2] += 1
        else:
            a_col[vid], b_col[vid] = x, y
    order = sorted(range(len(ops)), key=position) if anchor else range(n)
    live = _live(module, order, a_col, b_col)
    count = _tally(stats, 1, module, module.compute_ops, removed, list(compress(ops, live)))

    # Iteration 2.  A row changes only if it is a seed or an operand changed,
    # and two unchanged rows never share a key, so a changed row's key is
    # looked up among the changes first, then in iteration 1's table, where a
    # hit counts if it is live and unchanged: an earlier one absorbs the row,
    # a later one is flagged to merge into the row when the scan reaches it.
    def renumber(key, vid):
        hit = changed.get(key)
        if hit is None:
            hit = table.get(key, vid)
            if hit == vid or not live[hit] or flag[hit]:
                hit = vid
            elif position(hit) > position(vid):
                flag[hit], hit = 1, vid
            changed[key] = hit
        return hit

    removed[:], value[:] = [0, 0, 0], const
    changed, flag, touched = {}, bytearray(len(ops)), bytearray(len(ops) + 1)
    for vid in seeds:
        flag[vid] = 1
    for vid in order:
        if (flag[vid] or touched[a_col[vid]] or touched[b_col[vid]]) and live[vid]:
            flag[vid] = 1
            row = (ops[vid], a_col[vid], b_col[vid], attrs[vid])
            visit(vid, *row, renumber)
            touched[vid] = canon[vid] != vid or row != (ops[vid], a_col[vid], b_col[vid], attrs[vid])

    # Compaction reads the columns only: free the GVN tables and the per-row
    # state before it builds the new columns.
    for state in (table, changed, value, const, alias, canon):
        state.clear()
    order = sorted(range(len(ops)), key=position) if anchor else order
    live = _live(module, order, a_col, b_col)
    columns, where = (ops, a_col, b_col, attrs, lanes, phases), range(len(ops) + 1)
    if anchor:                         # lay the rows out in position order
        where = sorted(range(len(ops)), key=order.__getitem__) + [len(ops)]
        columns = [list(map(column.__getitem__, order)) for column in columns]
        live = bytearray(map(live.__getitem__, order))
    optimized = _compact(module, live, where, columns)
    stats.final = _tally(stats, 2, module, count, removed, optimized.ops)
    return optimized, stats


def _tally(stats: OptStats, i: int, module: IRModule, count: int, removed: list, kept: list) -> int:
    """Record iteration ``i``'s counts: ``removed`` per pass, then the ``kept`` rows."""
    for name, gone in zip(("constfold", "strength", "gvn"), removed):
        count -= gone
        stats.per_pass[f"iteration-{i}/{name}"] = count
    count = len(kept) - kept.count("const") - len(module.inputs) - len(module.outputs)
    stats.per_pass[f"iteration-{i}/dce"] = stats.per_pass[f"iteration-{i}"] = count
    return count
