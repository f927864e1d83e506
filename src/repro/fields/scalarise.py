"""The one tower recursion: ``map_lowering[op, variant]`` written once.

An operation on an element of a tower level is *scalarised* into F_p-level
operations by applying the operator-variant formulas of
:mod:`repro.fields.variants` recursively down the tower.  That recursion lives
here and nowhere else; what an F_p-level operation *is* belongs to a **leaf**:

* :class:`repro.fields.kernels.KernelBuilder` -- values are unreduced integer
  expressions, the result is the straight-line Python kernel the concrete
  tower executes;
* :class:`repro.ir.lowering._Lowerer` -- values are ids of F_p-level IR rows,
  the result is the compiler's low-level module.

A leaf provides, on single F_p-level values: ``add(x, y)``, ``sub(x, y)``,
``neg(x)``, ``mul(x, y)``, ``sqr(x)``, ``inv(x)``, ``scale(x, k)`` (``k`` a
small integer, any sign), ``mul_residue(x, value)`` (``value`` a constant in
``[1, p)``), ``zero()`` and ``settle(x)`` -- "bring ``x`` back to a canonical
residue", the identity for a leaf whose values do not grow.

Tower values are flat tuples of ``field.degree`` leaf values in the
``to_base_coeffs()`` order (block ``i`` of ``field.base.degree`` values is the
coefficient of ``t^i``).  Constants (the adjunction ``xi``, Frobenius
constants) are tower *elements*, specialised from their value: zero
coefficients vanish, one is the identity, a coefficient that wraps past
``t^m`` is folded to ``coeff * xi`` before it is applied.

The order of operations is the IR's: the compiled kernels are pinned byte for
byte (``tests/test_golden_outputs.py``), the Python kernels by value.
"""

from __future__ import annotations

from repro.fields.variants import StepOps


def _split(field, vec) -> tuple:
    chunk = field.base.degree
    return tuple(vec[i:i + chunk] for i in range(0, len(vec), chunk))


def _join(chunks) -> tuple:
    return tuple(x for chunk in chunks for x in chunk)


class _Step(StepOps):
    """One extension step as the variant formulas see it: operands are the
    step's coefficients, each a flat tuple of ``field.base.degree`` values."""

    __slots__ = ("tower", "leaf", "field")

    def __init__(self, tower: "TowerScalariser", field):
        self.tower = tower
        self.leaf = tower.leaf
        self.field = field

    def add(self, a, b):
        return tuple(map(self.leaf.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.leaf.sub, a, b))

    def neg(self, a):
        return tuple(map(self.leaf.neg, a))

    def mul(self, a, b):
        return self.tower.mul(self.field.base, a, b)

    def sqr(self, a):
        return self.tower.sqr(self.field.base, a)

    def adj(self, a):
        return self.tower.mul_const(self.field.base, a, self.field.non_residue)

    def muli(self, k, a):
        return tuple(self.leaf.scale(x, k) for x in a)


class TowerScalariser:
    """Tower operations over a leaf's values.

    ``variant_for(op, absolute_degree, step_degree)`` names the formula for
    ``op`` ("mul" | "sqr") at each extension step.
    """

    def __init__(self, leaf, variant_for):
        self.leaf = leaf
        self.variant_for = variant_for

    def _apply(self, op: str, field, *operands) -> tuple:
        variant = self.variant_for(op, field.degree, field.m)
        return _join(variant.apply(_Step(self, field), *(_split(field, x) for x in operands)))

    def settle(self, vec) -> tuple:
        return tuple(map(self.leaf.settle, vec))

    def mul(self, field, a, b) -> tuple:
        if field.degree == 1:
            return (self.leaf.mul(a[0], b[0]),)
        return self._apply("mul", field, a, b)

    def sqr(self, field, a) -> tuple:
        if field.degree == 1:
            return (self.leaf.sqr(a[0]),)
        return self._apply("sqr", field, a)

    def mul_sublevel(self, small_field, a, b) -> tuple:
        """``a`` (of a level above ``small_field``) times ``b`` in
        ``small_field``: coefficient scaling."""
        return _join(self.mul(small_field, a[i:i + small_field.degree], b)
                     for i in range(0, len(a), small_field.degree))

    def mul_const(self, field, a, constant) -> tuple:
        """``a`` times a constant element of ``field``: schoolbook over the
        constant's non-zero coefficients."""
        if constant.is_zero():
            return tuple(self.leaf.zero() for _ in a)
        if field.degree == 1:
            return (self.leaf.mul_residue(a[0], constant.value),)
        if constant.is_one():
            return a
        m, xi, add = field.m, field.non_residue, self.leaf.add
        # Every slot is filled: a non-zero coefficient j reaches slot k from
        # i = (k - j) mod m.
        out: list = [None] * m
        for i, chunk in enumerate(_split(field, a)):
            for j, coeff in enumerate(constant.coeffs):
                if coeff.is_zero():
                    continue
                term = self.mul_const(field.base, chunk, coeff if i + j < m else coeff * xi)
                k = (i + j) % m
                out[k] = term if out[k] is None else tuple(map(add, out[k], term))
        return _join(out)

    def mul_by_nonresidue(self, field, a) -> tuple:
        """``a`` times the adjoined ``t``: rotate the coefficients, wrap with xi."""
        chunk = field.base.degree
        return self.mul_const(field.base, a[-chunk:], field.non_residue) + a[:-chunk]

    def conjugate(self, field, a) -> tuple:
        """Conjugation over the base of a quadratic step."""
        half = len(a) // 2
        return a[:half] + tuple(map(self.leaf.neg, a[half:]))

    def frobenius(self, field, a, n: int) -> tuple:
        if field.degree == 1:
            return a
        out: list = [None] * field.m
        for chunk, (dest, constant) in zip(_split(field, a), field.frobenius_data(n)):
            image = self.frobenius(field.base, chunk, n)
            out[dest] = image if constant.is_one() else self.mul_const(field.base, image, constant)
        return _join(out)

    def inverse(self, field, a) -> tuple:
        """Norm-descent inversion.  The norm (and the cubic step's cofactors)
        and the result are settled at every level, so a leaf whose values grow
        does not compound widths down and back up the tower."""
        if field.degree == 1:
            return (self.leaf.inv(a[0]),)
        ops, settle = _Step(self, field), self.settle
        if field.m == 2:
            a0, a1 = _split(field, a)
            norm = ops.sub(ops.sqr(a0), ops.adj(ops.sqr(a1)))
            inv = self.inverse(field.base, settle(norm))
            return settle(ops.mul(a0, inv) + ops.neg(ops.mul(a1, inv)))
        a0, a1, a2 = _split(field, a)
        c0 = settle(ops.sub(ops.sqr(a0), ops.adj(ops.mul(a1, a2))))
        c1 = settle(ops.sub(ops.adj(ops.sqr(a2)), ops.mul(a0, a1)))
        c2 = settle(ops.sub(ops.sqr(a1), ops.mul(a0, a2)))
        norm = ops.add(ops.mul(a0, c0),
                       ops.add(ops.adj(ops.mul(a2, c1)), ops.adj(ops.mul(a1, c2))))
        inv = self.inverse(field.base, settle(norm))
        return settle(ops.mul(c0, inv) + ops.mul(c1, inv) + ops.mul(c2, inv))
