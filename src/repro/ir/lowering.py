"""Cross-layer lowering: high-level IR -> F_p-level IR.

This is the ``map_lowering[op, variant]`` step of Figure 4: every high-level
operation on an extension-field value is scalarised into F_p operations by
:class:`~repro.fields.scalarise.TowerScalariser` -- the one recursion that
applies the operator-variant formulas selected by a
:class:`~repro.fields.variants.VariantConfig` down the tower, shared with the
Python kernels of :mod:`repro.fields.kernels` -- running over the IR leaves
below.  The recursion runs once per *kind* of tower operation, over a
recording leaf whose F_p-level values are references (:class:`_Template`);
every use of that kind splices the recorded rows into the module being built
with its operands renamed (:meth:`_Lowerer.instantiate`).
Frobenius maps become multiplications by the precomputed constant tables,
adjunctions become constant multiplications, and syntactic zeros stay
syntactic so the later data-flow optimisations recover the paper's
dense-times-sparse savings.
"""

from __future__ import annotations

from itertools import islice

from repro.errors import IRError
from repro.fields.scalarise import TowerScalariser
from repro.fields.tower import W_STORAGE_ORDER
from repro.fields.variants import VariantConfig
from repro.ir.module import IRModule


class _Lowerer:
    """The scalariser's IR leaf (:mod:`repro.fields.scalarise`): one row per
    F_p operation, constants pooled."""

    def __init__(self, p: int):
        self.p = p
        self.low = IRModule(name="lowered", level="low")
        #: ``emit(op, args, attr=...)``: rows go straight into the module's columns.
        self.emit = self.low.emit
        self._const_cache: dict = {}

    def const(self, value: int) -> int:
        vid = self._const_cache.get(value)
        if vid is None:
            # The constant pool is shared across lanes and phases (see
            # IRBuilder.constant).
            previous = (self.low.current_lane, self.low.current_phase)
            self.low.current_lane = None
            self.low.current_phase = None
            try:
                vid = self.emit("const", (), attr=value)
            finally:
                self.low.current_lane, self.low.current_phase = previous
            self._const_cache[value] = vid
        return vid

    def const_element(self, element) -> tuple:
        return tuple(self.const(int(c)) for c in element.to_base_coeffs())

    def instantiate(self, template: "_Template", operands: list) -> tuple:
        """The values of ``template``'s operation on ``operands`` (the values
        of its operands, concatenated), its rows spliced into the module.

        A constant is a row of the pool, not of the template: the first
        instantiation to meet a value emits it where the recursion asked for
        it, and from then on an instantiation is pure column extension.
        """
        low, lookup, start = self.low, list(operands), 0
        ops, a, b = template.ops, template.a, template.b
        for position, value in template.consts:
            lookup += low.splice(ops[start:position], a[start:position], b[start:position], lookup)
            lookup.append(self.const(value))
            start = position + 1
        lookup += low.splice(ops[start:], a[start:], b[start:], lookup)
        return tuple([lookup[ref] for ref in template.result])

    # -- the leaf protocol ------------------------------------------------------------
    def add(self, x: int, y: int) -> int:
        return self.emit("add", (x, y))

    def sub(self, x: int, y: int) -> int:
        return self.emit("sub", (x, y))

    def neg(self, x: int) -> int:
        return self.emit("neg", (x,))

    def mul(self, x: int, y: int) -> int:
        return self.emit("mul", (x, y))

    def sqr(self, x: int) -> int:
        return self.emit("sqr", (x,))

    def inv(self, x: int) -> int:
        return self.emit("inv", (x,))

    def zero(self) -> int:
        return self.const(0)

    def settle(self, x: int) -> int:
        return x                    # every row already is a canonical residue

    def scale(self, x: int, k: int) -> int:
        if k == 0:
            return self.zero()
        if k < 0:
            return self.neg(self.scale(x, -k))
        if k == 1:
            return x
        if k == 2:
            return self.emit("dbl", (x,))
        if k == 3:
            return self.emit("tpl", (x,))
        if k % 2 == 0:
            return self.emit("dbl", (self.scale(x, k // 2),))
        if k % 3 == 0:
            return self.emit("tpl", (self.scale(x, k // 3),))
        return self.add(self.scale(x, k - 1), x)

    def mul_residue(self, x: int, value: int) -> int:
        if value == 1:
            return x
        if value == self.p - 1:
            return self.neg(x)
        if value in (2, 3):
            return self.scale(x, value)
        if value == self.p - 2:
            return self.neg(self.scale(x, 2))
        return self.mul(x, self.const(value))


class _Template(_Lowerer):
    """The recording leaf: one kind of tower operation, scalarised once.

    The leaf rules are :class:`_Lowerer`'s; only where a row goes differs.  A
    value is a reference into the list an instantiation renames through --
    the ``width`` operand values, then one entry per recorded row -- and a
    constant holds a row's place (``consts``: position and value) for the
    pool's row, wherever that is.
    """

    def __init__(self, p: int, variant_for, method: str, field, widths: tuple, extra: tuple):
        self.p = p
        self.width = sum(widths)
        self.ops: list = []
        self.a: list = []
        self.b: list = []
        self.consts: list = []
        self._const_cache: dict = {}
        slots = iter(range(self.width))
        self.result = getattr(TowerScalariser(self, variant_for), method)(
            field, *(tuple(islice(slots, width)) for width in widths), *extra)

    def emit(self, op: str, args: tuple) -> int:
        self.ops.append(op)
        self.a.append(args[0])
        self.b.append(args[1] if len(args) == 2 else -1)
        return self.width + len(self.ops) - 1

    def const(self, value: int) -> int:
        ref = self._const_cache.get(value)
        if ref is None:
            self.consts.append((len(self.ops), value))
            ref = self._const_cache[value] = self.emit("const", (-1,))
        return ref


#: High-level ops that are one scalariser method on (field of the result, operand).
_TOWER_OPS = {"sqr": "sqr", "inv": "inverse", "adj": "mul_by_nonresidue", "conj": "conjugate"}


def lower_module(hl: IRModule, levels: dict, config: VariantConfig | None = None) -> IRModule:
    """Lower a high-level module to F_p-level IR.

    ``levels`` maps absolute extension degrees to the concrete tower fields (a
    :class:`~repro.fields.tower.PairingTower`'s ``levels`` attribute); ``config``
    selects the operator variants.
    """
    config = config or VariantConfig.all_karatsuba()
    leaf = _Lowerer(next(iter(levels.values())).p)
    low, emit = leaf.low, leaf.emit
    templates: dict = {}
    # Kernel-level facts (accumulator mode, batch shape) ride along with the
    # lanes: scalarisation changes the instruction granularity, not the
    # kernel's multi-core structure.
    low.meta = dict(hl.meta)
    expansion: list = [None] * len(hl)
    degrees = hl.degrees

    def field_of(degree: int):
        try:
            return levels[degree]
        except KeyError as exc:
            raise IRError(f"no tower level of degree {degree} available for lowering") from exc

    def tower(method: str, field, *operands, extra: tuple = ()) -> tuple:
        """``TowerScalariser.<method>(field, *operands, *extra)`` on the
        module: recorded at the first call of its kind, spliced at every one."""
        widths = tuple(map(len, operands))
        key = (method, field.degree, widths, extra)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _Template(
                leaf.p, config.variant_for, method, field, widths, extra)
        return leaf.instantiate(template, [value for operand in operands for value in operand])

    for vid, (op, a_id, b_id, attr) in enumerate(zip(hl.ops, hl.a, hl.b, hl.attrs)):
        degree = degrees[vid]
        # Every F_p instruction expanded from this high-level op inherits its
        # batch lane and kernel phase, keeping the per-pair partition (and the
        # miller/final-exp telemetry split) visible after scalarisation.
        low.current_lane = hl.lanes[vid]
        low.current_phase = hl.phases[vid]
        x = expansion[a_id] if a_id >= 0 else None
        if op == "input":
            out = tuple(emit("input", (), attr=(attr, j)) for j in range(degree))
        elif op == "const":
            out = leaf.const_element(attr)
        elif op == "output":
            for j, part in enumerate(x):
                emit("output", (part,), attr=(attr, j))
            out = x
        elif op in ("add", "sub"):
            out = tuple(map(getattr(leaf, op), x, expansion[b_id]))
        elif op == "neg":
            out = tuple(map(leaf.neg, x))
        elif op == "muli":
            out = tuple(leaf.scale(part, attr) for part in x)
        elif op == "mul":
            # Operands of different levels: the lower one scales the
            # coefficients of the higher one over its own level.
            y = expansion[b_id]
            if len(x) < len(y):
                x, y = y, x
            out = tower("mul_sublevel", field_of(len(y)), x, y)
        elif op in _TOWER_OPS:
            field = field_of(degree)
            if op == "conj" and getattr(field, "m", None) != 2:
                raise IRError("conj lowering requires a quadratic top-level step")
            out = tower(_TOWER_OPS[op], field, x)
        elif op == "frob":
            out = tower("frobenius", field_of(degree), x, extra=(attr,))
        elif op == "exp":
            if attr < 0:
                raise IRError("exp lowering requires a non-negative exponent")
            field = field_of(degree)
            out = x if attr else leaf.const_element(field.one())
            for bit in bin(attr)[3:]:
                out = tower("sqr", field, out)
                if bit == "1":
                    out = tower("mul", field, out, x)
        elif op == "pack":
            parts = [expansion[arg] for arg in attr]
            if len(parts) != 6:
                raise IRError("pack expects exactly 6 coefficients over the twist field")
            out = tuple(v for index in W_STORAGE_ORDER for v in parts[index])
        elif op == "ext":
            # Coefficient selection is pure wiring: slice the producer's
            # expansion at the storage slot of w-power index attr.
            if attr not in W_STORAGE_ORDER:
                raise IRError(f"ext expects a w-power index in 0..5, got {attr!r}")
            if len(x) != 6 * degree:
                raise IRError("ext requires a full-field operand over the twist field")
            slot = W_STORAGE_ORDER.index(attr)
            out = x[slot * degree:(slot + 1) * degree]
        else:
            raise IRError(f"cannot lower high-level op {op!r}")
        expansion[vid] = out

    low.current_lane = None
    low.current_phase = None
    return low
