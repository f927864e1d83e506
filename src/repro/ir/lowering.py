"""Cross-layer lowering: high-level IR -> F_p-level IR.

This is the ``map_lowering[op, variant]`` step of Figure 4: every high-level
operation on an extension-field value is scalarised into F_p operations by
recursively applying the operator-variant formulas selected by a
:class:`~repro.fields.variants.VariantConfig`.  Frobenius maps become
multiplications by the precomputed constant tables, adjunctions become
constant multiplications, and syntactic zeros stay syntactic so the later
data-flow optimisations recover the paper's dense-times-sparse savings.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.fields.extension import ExtensionField
from repro.fields.fp import PrimeField
from repro.fields.variants import StepOps, VariantConfig
from repro.ir.module import IRModule


class _StepAdapter(StepOps):
    """Adapter exposing one extension step to the variant formulas.

    Operands are tuples of F_p-level value ids whose length is the degree of the
    step's base field.
    """

    __slots__ = ("lowerer", "field")

    def __init__(self, lowerer: "_Lowerer", field: ExtensionField):
        self.lowerer = lowerer
        self.field = field

    def add(self, a, b):
        return self.lowerer.add_vec(a, b)

    def sub(self, a, b):
        return self.lowerer.sub_vec(a, b)

    def neg(self, a):
        return self.lowerer.neg_vec(a)

    def mul(self, a, b):
        return self.lowerer.mul_rec(self.field.base, a, b)

    def sqr(self, a):
        return self.lowerer.sqr_rec(self.field.base, a)

    def adj(self, a):
        return self.lowerer.mul_const_rec(self.field.base, a, self.field.non_residue)

    def muli(self, k, a):
        return self.lowerer.mul_small_vec(a, k)


class _Lowerer:
    def __init__(self, levels: dict, config: VariantConfig):
        self.low = IRModule(name="lowered", level="low")
        #: ``emit(op, args, attr=...)``: rows go straight into the module's columns.
        self.emit = self.low.emit
        self.levels = levels
        self.config = config
        self._const_cache: dict = {}
        self._zero = None

    # -- F_p-level emission helpers -------------------------------------------------
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

    def zero(self) -> int:
        if self._zero is None:
            self._zero = self.const(0)
        return self._zero

    # -- vector (component-wise) helpers ----------------------------------------------
    def add_vec(self, a, b):
        return tuple(self.emit("add", (x, y)) for x, y in zip(a, b))

    def sub_vec(self, a, b):
        return tuple(self.emit("sub", (x, y)) for x, y in zip(a, b))

    def neg_vec(self, a):
        return tuple(self.emit("neg", (x,)) for x in a)

    def _mul_small_scalar(self, vid: int, k: int) -> int:
        if k == 0:
            return self.zero()
        if k < 0:
            return self.emit("neg", (self._mul_small_scalar(vid, -k),))
        if k == 1:
            return vid
        if k == 2:
            return self.emit("dbl", (vid,))
        if k == 3:
            return self.emit("tpl", (vid,))
        if k % 2 == 0:
            return self.emit("dbl", (self._mul_small_scalar(vid, k // 2),))
        if k % 3 == 0:
            return self.emit("tpl", (self._mul_small_scalar(vid, k // 3),))
        return self.emit("add", (self._mul_small_scalar(vid, k - 1), vid))

    def mul_small_vec(self, a, k: int):
        return tuple(self._mul_small_scalar(x, k) for x in a)

    # -- recursive tower lowering -------------------------------------------------------
    def _split(self, field: ExtensionField, ids):
        chunk = field.base.degree
        return [tuple(ids[i * chunk:(i + 1) * chunk]) for i in range(field.m)]

    def mul_rec(self, field, a, b):
        if isinstance(field, PrimeField):
            return (self.emit("mul", (a[0], b[0])),)
        variant = self.config.variant_for("mul", field.degree, field.m)
        adapter = _StepAdapter(self, field)
        chunks = variant.apply(adapter, tuple(self._split(field, a)), tuple(self._split(field, b)))
        return tuple(v for chunk in chunks for v in chunk)

    def sqr_rec(self, field, a):
        if isinstance(field, PrimeField):
            return (self.emit("sqr", (a[0],)),)
        variant = self.config.variant_for("sqr", field.degree, field.m)
        adapter = _StepAdapter(self, field)
        chunks = variant.apply(adapter, tuple(self._split(field, a)))
        return tuple(v for chunk in chunks for v in chunk)

    def mul_const_rec(self, field, a, constant):
        """Multiply a flattened value by a compile-time constant of the same field."""
        if constant.is_zero():
            return tuple(self.zero() for _ in a)
        if isinstance(field, PrimeField):
            value = constant.value
            p = field.p
            if value == 1:
                return a
            if value == p - 1:
                return self.neg_vec(a)
            if value == 2:
                return (self.emit("dbl", (a[0],)),)
            if value == 3:
                return (self.emit("tpl", (a[0],)),)
            if value == p - 2:
                return self.neg_vec((self.emit("dbl", (a[0],)),))
            return (self.emit("mul", (a[0], self.const(value))),)
        if constant.is_one():
            return a
        a_chunks = self._split(field, a)
        const_coeffs = constant.coeffs
        xi = field.non_residue
        buckets: list = [None] * field.m
        for i, chunk in enumerate(a_chunks):
            for j, coeff in enumerate(const_coeffs):
                if coeff.is_zero():
                    continue
                effective = coeff if i + j < field.m else coeff * xi
                term = self.mul_const_rec(field.base, chunk, effective)
                k = (i + j) % field.m
                buckets[k] = term if buckets[k] is None else self.add_vec(buckets[k], term)
        zero_chunk = tuple(self.zero() for _ in range(field.base.degree))
        return tuple(v for bucket in buckets for v in (bucket if bucket is not None else zero_chunk))

    def mixed_mul(self, big_field, big_ids, small_field, small_ids):
        """Multiply a value by an element of a lower tower level (coefficient scaling)."""
        if small_field.degree == big_field.degree:
            return self.mul_rec(big_field, big_ids, small_ids)
        chunk = small_field.degree
        groups = [big_ids[i:i + chunk] for i in range(0, len(big_ids), chunk)]
        out = []
        for group in groups:
            out.extend(self.mul_rec(small_field, tuple(group), small_ids))
        return tuple(out)

    def frob_rec(self, field, a, n: int):
        if isinstance(field, PrimeField):
            return a
        data = field.frobenius_data(n)
        results: list = [None] * field.m
        for i, chunk in enumerate(self._split(field, a)):
            dest, constant = data[i]
            sub = self.frob_rec(field.base, chunk, n)
            if not constant.is_one():
                sub = self.mul_const_rec(field.base, sub, constant)
            results[dest] = sub
        return tuple(v for chunk in results for v in chunk)

    def inv_rec(self, field, a):
        if isinstance(field, PrimeField):
            return (self.emit("inv", (a[0],)),)
        base = field.base
        chunks = self._split(field, a)
        if field.m == 2:
            a0, a1 = chunks
            t0 = self.sqr_rec(base, a0)
            t1 = self.mul_const_rec(base, self.sqr_rec(base, a1), field.non_residue)
            norm = self.sub_vec(t0, t1)
            inv_norm = self.inv_rec(base, norm)
            c0 = self.mul_rec(base, a0, inv_norm)
            c1 = self.neg_vec(self.mul_rec(base, a1, inv_norm))
            return c0 + c1
        a0, a1, a2 = chunks
        xi = field.non_residue
        c0 = self.sub_vec(self.sqr_rec(base, a0), self.mul_const_rec(base, self.mul_rec(base, a1, a2), xi))
        c1 = self.sub_vec(self.mul_const_rec(base, self.sqr_rec(base, a2), xi), self.mul_rec(base, a0, a1))
        c2 = self.sub_vec(self.sqr_rec(base, a1), self.mul_rec(base, a0, a2))
        norm = self.add_vec(
            self.mul_rec(base, a0, c0),
            self.add_vec(
                self.mul_const_rec(base, self.mul_rec(base, a2, c1), xi),
                self.mul_const_rec(base, self.mul_rec(base, a1, c2), xi),
            ),
        )
        inv_norm = self.inv_rec(base, norm)
        out = []
        for c in (c0, c1, c2):
            out.extend(self.mul_rec(base, c, inv_norm))
        return tuple(out)

    def exp_rec(self, field, a, exponent: int):
        if exponent < 0:
            raise IRError("exp lowering requires a non-negative exponent")
        if exponent == 0:
            one = field.one()
            return self.const_element(one)
        result = a
        for bit in bin(exponent)[3:]:
            result = self.sqr_rec(field, result)
            if bit == "1":
                result = self.mul_rec(field, result, a)
        return result

    def const_element(self, element):
        return tuple(self.const(int(c)) for c in element.to_base_coeffs())

    # -- field lookup ----------------------------------------------------------------------
    def field_of_degree(self, degree: int):
        try:
            return self.levels[degree]
        except KeyError as exc:
            raise IRError(f"no tower level of degree {degree} available for lowering") from exc


def lower_module(hl: IRModule, levels: dict, config: VariantConfig | None = None) -> IRModule:
    """Lower a high-level module to F_p-level IR.

    ``levels`` maps absolute extension degrees to the concrete tower fields (a
    :class:`~repro.fields.tower.PairingTower`'s ``levels`` attribute); ``config``
    selects the operator variants.
    """
    config = config or VariantConfig.all_karatsuba()
    lowerer = _Lowerer(levels, config)
    # Kernel-level facts (accumulator mode, batch shape) ride along with the
    # lanes: scalarisation changes the instruction granularity, not the
    # kernel's multi-core structure.
    lowerer.low.meta = dict(hl.meta)
    expansion: list = [None] * len(hl)
    degrees = hl.degrees

    for vid, (op, a_id, b_id, attr) in enumerate(zip(hl.ops, hl.a, hl.b, hl.attrs)):
        degree = degrees[vid]
        # Every F_p instruction expanded from this high-level op inherits its
        # batch lane and kernel phase, keeping the per-pair partition (and the
        # miller/final-exp telemetry split) visible after scalarisation.
        lowerer.low.current_lane = hl.lanes[vid]
        lowerer.low.current_phase = hl.phases[vid]
        operand = expansion[a_id] if a_id >= 0 else None
        if op == "input":
            expansion[vid] = tuple(
                lowerer.emit("input", (), attr=(attr, j)) for j in range(degree)
            )
        elif op == "const":
            expansion[vid] = lowerer.const_element(attr)
        elif op == "output":
            for j, part in enumerate(operand):
                lowerer.emit("output", (part,), attr=(attr, j))
            expansion[vid] = operand
        elif op == "add":
            expansion[vid] = lowerer.add_vec(operand, expansion[b_id])
        elif op == "sub":
            expansion[vid] = lowerer.sub_vec(operand, expansion[b_id])
        elif op == "neg":
            expansion[vid] = lowerer.neg_vec(operand)
        elif op == "muli":
            expansion[vid] = lowerer.mul_small_vec(operand, attr)
        elif op == "mul":
            b_parts = expansion[b_id]
            a_deg, b_deg = degrees[a_id], degrees[b_id]
            if a_deg == b_deg:
                expansion[vid] = lowerer.mul_rec(lowerer.field_of_degree(a_deg), operand, b_parts)
            else:
                big, small = (operand, b_parts) if a_deg > b_deg else (b_parts, operand)
                big_deg, small_deg = max(a_deg, b_deg), min(a_deg, b_deg)
                expansion[vid] = lowerer.mixed_mul(
                    lowerer.field_of_degree(big_deg), big,
                    lowerer.field_of_degree(small_deg), small,
                )
        elif op == "sqr":
            expansion[vid] = lowerer.sqr_rec(lowerer.field_of_degree(degree), operand)
        elif op == "inv":
            expansion[vid] = lowerer.inv_rec(lowerer.field_of_degree(degree), operand)
        elif op == "conj":
            field = lowerer.field_of_degree(degree)
            if not isinstance(field, ExtensionField) or field.m != 2:
                raise IRError("conj lowering requires a quadratic top-level step")
            half = len(operand) // 2
            expansion[vid] = operand[:half] + lowerer.neg_vec(operand[half:])
        elif op == "frob":
            expansion[vid] = lowerer.frob_rec(lowerer.field_of_degree(degree), operand, attr)
        elif op == "adj":
            field = lowerer.field_of_degree(degree)
            chunk = field.base.degree
            wrapped = lowerer.mul_const_rec(field.base, operand[-chunk:], field.non_residue)
            expansion[vid] = wrapped + operand[:-chunk]
        elif op == "exp":
            expansion[vid] = lowerer.exp_rec(lowerer.field_of_degree(degree), operand, attr)
        elif op == "pack":
            # w-power basis: full = (c0 + c2 v + c4 v^2) + (c1 + c3 v + c5 v^2) w.
            parts = [expansion[arg] for arg in attr]
            if len(parts) != 6:
                raise IRError("pack expects exactly 6 coefficients over the twist field")
            order = (0, 2, 4, 1, 3, 5)
            expansion[vid] = tuple(v for index in order for v in parts[index])
        elif op == "ext":
            # Coefficient selection is pure wiring: slice the producer's
            # expansion at the storage slot of w-power index attr.  The
            # storage layout interleaves even/odd w powers (see "pack").
            if not isinstance(attr, int) or not 0 <= attr < 6:
                raise IRError(f"ext expects a w-power index in 0..5, got {attr!r}")
            if len(operand) != 6 * degree:
                raise IRError("ext requires a full-field operand over the twist field")
            slot = attr // 2 if attr % 2 == 0 else 3 + attr // 2
            expansion[vid] = operand[slot * degree:(slot + 1) * degree]
        else:
            raise IRError(f"cannot lower high-level op {op!r}")

    lowerer.low.current_lane = None
    lowerer.low.current_phase = None
    return lowerer.low
