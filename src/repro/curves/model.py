"""Short-Weierstrass elliptic curves over arbitrary finite fields.

This is the reference ("golden") group arithmetic: affine coordinates with full
special-case handling.  Scalar multiplication alone leaves them: its one
ladder, :meth:`EllipticCurve.multi_scalar_mul` (of which
:meth:`AffinePoint.scalar_mul` is the one-term call), runs the branch-free
Jacobian formulas of :mod:`repro.curves.formulas`, compiled into kernels on raw
residues, and hands every exceptional case back to the complete affine law
below.
"""

from __future__ import annotations

import operator
import random
from functools import partial

from repro.curves.formulas import (
    jacobian_add,
    jacobian_add_mixed,
    jacobian_double,
    jacobian_to_affine,
)
from repro.errors import CurveError
from repro.fields.cyclotomic import batch_inverse
from repro.fields.kernels import build_formula_kernel
from repro.fields.sqrt import field_sqrt, is_field_square
from repro.nt.recoding import signed_windows

#: Width of the signed-window recoding :meth:`EllipticCurve.multi_scalar_mul`
#: walks (:func:`repro.nt.recoding.signed_windows`): per term ``2**(WINDOW - 2)``
#: odd multiples are tabulated and one addition is paid per ``WINDOW + 1``
#: doublings on average.  Chosen by measurement over BLS12-381's G1, on 255-bit
#: scalars and on the service's 128-bit ones, for 1, 4 and 8 terms (128 bits at
#: reference speed: 0.88, 1.65 and 2.6 ms, against 0.92, 3.6 and 7.0 ms for as
#: many one-term walks): 4 read fastest or within 1 % of it in every cell, 3
#: and 5 up to 8 % and 11 % slower.
WINDOW = 4


def ladder_kernels(curve) -> tuple:
    """``(double, add_mixed, add)`` of ``curve`` on raw Jacobian residues: the
    formulas of :mod:`repro.curves.formulas`, compiled on first use and kept on
    the field per coefficient ``a`` (``b`` enters no formula).  Filling the
    cache is idempotent, so two threads may both build."""
    field = curve.field
    kernels = field._formula_kernels.get(curve.a)
    if kernels is None:
        point = (field,) * 3
        kernels = field._formula_kernels[curve.a] = (
            build_formula_kernel(partial(jacobian_double, a=curve.a), (point,), "jacobian_double"),
            build_formula_kernel(jacobian_add_mixed, (point, (field,) * 2), "jacobian_add_mixed"),
            build_formula_kernel(jacobian_add, (point, point), "jacobian_add"),
        )
    return kernels


class EllipticCurve:
    """The curve ``y^2 = x^3 + a x + b`` over a finite field."""

    __slots__ = ("field", "a", "b", "name")

    def __init__(self, field, a, b, name: str | None = None):
        self.field = field
        self.a = field(a) if not hasattr(a, "field") else a
        self.b = field(b) if not hasattr(b, "field") else b
        self.name = name or "E"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EllipticCurve)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash(("EllipticCurve", hash(self.field), hash(self.a), hash(self.b)))

    def __repr__(self) -> str:
        return f"{self.name}: y^2 = x^3 + a x + b over {self.field!r}"

    # -- points -----------------------------------------------------------------
    def infinity(self) -> "AffinePoint":
        return AffinePoint(self, None, None)

    def point(self, x, y) -> "AffinePoint":
        x = self.field(x) if not hasattr(x, "field") else x
        y = self.field(y) if not hasattr(y, "field") else y
        point = AffinePoint(self, x, y)
        if not point.is_on_curve():
            raise CurveError("point is not on the curve")
        return point

    def lift_x(self, x) -> "AffinePoint | None":
        """Return a point with the given x coordinate, or ``None`` if none exists."""
        x = self.field(x) if not hasattr(x, "field") else x
        rhs = x * x.square() + self.a * x + self.b
        if not is_field_square(rhs):
            return None
        y = field_sqrt(rhs)
        return AffinePoint(self, x, y)

    def random_point(self, rng: random.Random) -> "AffinePoint":
        """Sample a uniformly-ish random affine point (rejection sampling on x)."""
        for _ in range(1000):
            x = self.field.random(rng)
            point = self.lift_x(x)
            if point is not None:
                if rng.randrange(2):
                    point = -point
                return point
        raise CurveError("failed to sample a random curve point")

    # -- scalar multiplication --------------------------------------------------
    def multi_scalar_mul(self, points, scalars) -> "AffinePoint":
        """``sum(scalar * point)`` for any integers: one interleaved (Straus)
        signed-window ladder in Jacobian coordinates on raw residues
        (:func:`ladder_kernels`).  Every term has its own digit row and table
        of odd multiples; the doubling chain, as long as the longest row, is
        shared, and so are the two inversions -- one for all the tables, one
        at the end.  No order is assumed of any point.

        The Jacobian formulas know no exceptional case, so every one is looked
        for on the settled ``Z`` they answer with -- ``Z = 0`` is the point at
        infinity, or an addition whose operands shared an ``x`` -- and resolved
        by the complete affine law (``+`` / :meth:`AffinePoint.double`).
        """
        points, scalars = list(points), list(scalars)
        if len(points) != len(scalars):
            raise CurveError(f"{len(points)} points for {len(scalars)} scalars")
        field = self.field
        double, add_mixed, add = ladder_kernels(self)
        one = field.one().flat
        infinity = (one, one, field.zero().flat)           # Z = 0, whatever X and Y

        def affine(T) -> "AffinePoint":
            if not any(T[2]):
                return self.infinity()
            return AffinePoint(self, *jacobian_to_affine([field.from_flat(c) for c in T]))

        def jacobian(point) -> tuple:
            return infinity if point.is_infinity() else (point.x.flat, point.y.flat, one)

        # Per term: its digits, and the odd multiples P, 3P, ... up to the
        # largest of them -- ``table`` in affine form, ``odd`` still Jacobian.
        terms = []
        for point, scalar in zip(points, scalars):
            try:
                scalar = operator.index(scalar)
            except TypeError:
                raise CurveError(
                    f"a scalar must be an integer, got {type(scalar).__name__}") from None
            if point.curve != self:
                raise CurveError("points lie on different curves")
            if scalar < 0:
                point, scalar = -point, -scalar
            if scalar == 0 or point.is_infinity():
                continue
            digits = signed_windows(scalar, WINDOW)
            table, odd = [point], [jacobian(point)]
            twice = double(odd[0])
            for _ in range(max(map(abs, digits)) // 2):
                odd.append(add(odd[-1], twice))
            if not all(any(Z) for _, _, Z in odd + [twice]):
                # A point of small order: some multiple met itself, its
                # negative or infinity on the way up.
                step = point.double()
                for _ in odd[1:]:
                    table.append(table[-1] + step)
                odd = []
            terms.append((digits, table, odd[1:]))
        # One shared inversion brings every table to affine form; the terms
        # draw their inverses from it in the order they put their Z in.
        inverses = iter(batch_inverse(
            [field.from_flat(Z) for _, _, odd in terms for _, _, Z in odd]))
        rows = [[] for _ in range(max((len(digits) for digits, _, _ in terms), default=0))]
        for digits, table, odd in terms:
            for X, Y, _ in odd:
                z_inv = next(inverses)
                z_inv2 = z_inv.square()
                table.append(AffinePoint(self, field.from_flat(X) * z_inv2,
                                         field.from_flat(Y) * (z_inv2 * z_inv)))
            addends = {}             # by signed digit; an odd multiple at infinity adds nothing
            for index, multiple in enumerate(table):
                if not multiple.is_infinity():
                    addends[2 * index + 1] = (multiple.x.flat, multiple.y.flat)
                    addends[-2 * index - 1] = (multiple.x.flat, (-multiple.y).flat)
            for position, digit in enumerate(digits):
                if digit in addends:
                    rows[position].append(addends[digit])
        T = infinity
        for row in reversed(rows):
            T = double(T)
            for addend in row:
                total = add_mixed(T, addend)
                if not any(total[2]):       # T at infinity, or the same x: T = +-addend
                    total = jacobian(affine(T) + AffinePoint(self, *map(field.from_flat, addend)))
                T = total
        return affine(T)


class AffinePoint:
    """An affine point; ``x is None`` encodes the point at infinity."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: EllipticCurve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    # -- predicates ----------------------------------------------------------------
    def is_infinity(self) -> bool:
        return self.x is None

    def is_on_curve(self) -> bool:
        if self.is_infinity():
            return True
        lhs = self.y.square()
        rhs = self.x * self.x.square() + self.curve.a * self.x + self.curve.b
        return lhs == rhs

    # -- group law -------------------------------------------------------------------
    def __neg__(self) -> "AffinePoint":
        if self.is_infinity():
            return self
        return AffinePoint(self.curve, self.x, -self.y)

    def __add__(self, other: "AffinePoint") -> "AffinePoint":
        if self.curve != other.curve:
            raise CurveError("points lie on different curves")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return self.curve.infinity()
            return self.double()
        slope = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return AffinePoint(self.curve, x3, y3)

    def __sub__(self, other: "AffinePoint") -> "AffinePoint":
        return self + (-other)

    def double(self) -> "AffinePoint":
        if self.is_infinity():
            return self
        if self.y.is_zero():
            return self.curve.infinity()
        field = self.curve.field
        three = field(3)
        two_inv = (self.y + self.y).inverse()
        slope = (self.x.square() * three + self.curve.a) * two_inv
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return AffinePoint(self.curve, x3, y3)

    def scalar_mul(self, scalar: int) -> "AffinePoint":
        """``scalar * self`` for any integer: the one-term walk of
        :meth:`EllipticCurve.multi_scalar_mul`, the only ladder there is."""
        return self.curve.multi_scalar_mul([self], [scalar])

    def __mul__(self, scalar: int) -> "AffinePoint":
        return self.scalar_mul(scalar)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, AffinePoint):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity():
            return hash(("AffinePoint", "infinity"))
        return hash(("AffinePoint", hash(self.x), hash(self.y)))

    def __repr__(self) -> str:
        if self.is_infinity():
            return "Point(infinity)"
        return f"Point({self.x!r}, {self.y!r})"
