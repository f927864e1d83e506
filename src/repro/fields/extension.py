"""Generic tower extension fields ``K[t]/(t^m - xi)`` with m in {2, 3}.

Towers of these steps build every field the framework needs (F_p2 ... F_p24),
following the "finite division lattice" construction the paper's operator kit
uses.  Concrete arithmetic reuses the operator-variant formulas from
:mod:`repro.fields.variants` so that the reference semantics and the compiler's
lowering rules can never diverge.
"""

from __future__ import annotations

import random

from repro.errors import FieldError
from repro.fields.variants import (
    ConcreteStepOps,
    get_variant,
)


class ExtensionField:
    """One extension step ``base[t]/(t^m - non_residue)``."""

    __slots__ = (
        "base",
        "m",
        "non_residue",
        "p",
        "degree",
        "name",
        "_ops",
        "_mul_variant",
        "_sqr_variant",
        "_frob_cache",
        "_one",
        "_zero",
    )

    def __init__(self, base, m: int, non_residue, name: str | None = None):
        if m not in (2, 3):
            raise FieldError("extension steps must have degree 2 or 3")
        if non_residue.field != base:
            raise FieldError("non-residue must belong to the base field")
        if non_residue.is_zero():
            raise FieldError("non-residue must be non-zero")
        self.base = base
        self.m = m
        self.non_residue = non_residue
        self.p = base.p
        self.degree = base.degree * m
        self.name = name or f"F_p{self.degree}"
        self._ops = ConcreteStepOps(non_residue)
        self._mul_variant = get_variant("mul", m, "karatsuba")
        self._sqr_variant = get_variant("sqr", m, "complex" if m == 2 else "ch-sqr2")
        self._frob_cache: dict = {}
        self._one = None
        self._zero = None

    # -- structural properties ----------------------------------------------------
    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def backend(self) -> str:
        """Name of the F_p backend this tower bottoms out in.

        Extension arithmetic is written entirely against the element interface
        of its base field, so the backend choice propagates transparently from
        the :class:`~repro.fields.fp.PrimeField` at the bottom of the tower.
        """
        return self.base.backend

    def order(self) -> int:
        return self.p ** self.degree

    def tower_steps(self) -> list:
        """The chain of extension steps from F_p up to this field (bottom first)."""
        steps = []
        fld = self
        while isinstance(fld, ExtensionField):
            steps.append(fld)
            fld = fld.base
        steps.reverse()
        return steps

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and other.m == self.m
            and other.base == self.base
            and other.non_residue == self.non_residue
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.m, hash(self.base), hash(self.non_residue)))

    def __repr__(self) -> str:
        return f"{self.name}(degree={self.degree}, bits={self.p.bit_length()})"

    # -- element constructors -------------------------------------------------------
    def element(self, coeffs) -> "ExtElement":
        coeffs = tuple(coeffs)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return ExtElement(self, coeffs)

    def __call__(self, value) -> "ExtElement":
        """Coerce an int, a base-field element or an element of this field."""
        if isinstance(value, ExtElement) and value.field == self:
            return value
        base_value = self.base(value)
        zeros = tuple(self.base.zero() for _ in range(self.m - 1))
        return ExtElement(self, (base_value,) + zeros)

    def zero(self) -> "ExtElement":
        if self._zero is None:
            self._zero = self(0)
        return self._zero

    def one(self) -> "ExtElement":
        if self._one is None:
            self._one = self(1)
        return self._one

    def gen(self) -> "ExtElement":
        """The adjoined element ``t`` of this step."""
        coeffs = [self.base.zero() for _ in range(self.m)]
        coeffs[1] = self.base.one()
        return ExtElement(self, tuple(coeffs))

    def random(self, rng: random.Random) -> "ExtElement":
        return ExtElement(self, tuple(self.base.random(rng) for _ in range(self.m)))

    def from_base_coeffs(self, coeffs) -> "ExtElement":
        """Build an element from a flat little-endian list of ``degree`` F_p integers."""
        coeffs = list(coeffs)
        if len(coeffs) != self.degree:
            raise FieldError(f"expected {self.degree} base coefficients, got {len(coeffs)}")
        chunk = self.base.degree
        parts = [
            self.base.from_base_coeffs(coeffs[i * chunk:(i + 1) * chunk])
            for i in range(self.m)
        ]
        return ExtElement(self, tuple(parts))

    # -- Frobenius constants ----------------------------------------------------------
    def frobenius_data(self, n: int) -> list:
        """Per-coefficient action of the p^n-power Frobenius on this step.

        Returns, for each source coefficient index ``i``, a pair
        ``(destination_index, constant)`` such that::

            frob_n(sum_i a_i t^i) = sum_i frob_n(a_i) * constant_i * t^{dest_i}

        The constants live in the base field and are cached; this is the
        "Frobenius constant table" the paper's constant-propagation pass consumes.
        """
        n = n % (self.degree)
        if n in self._frob_cache:
            return self._frob_cache[n]
        pn = pow(self.p, n)
        data = []
        base_order_minus_1 = self.base.order() - 1
        for i in range(self.m):
            power = i * pn
            dest = power % self.m
            q = (power - dest) // self.m
            constant = self.non_residue ** (q % base_order_minus_1) if q else self.base.one()
            data.append((dest, constant))
        self._frob_cache[n] = data
        return data


class ExtElement:
    """An element of an :class:`ExtensionField`, stored as a coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- ring operations ----------------------------------------------------------
    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "ExtElement":
        field = self.field
        if isinstance(other, ExtElement) and other.field == field:
            result = field._mul_variant.apply(field._ops, self.coeffs, other.coeffs)
            return ExtElement(field, tuple(result))
        # Multiplication by an element of a sub-tower level (including F_p): scale
        # the coefficients recursively.  This mirrors the paper's IR rule that
        # ``mul`` accepts mixed fp-like operands whose degrees divide each other.
        other_field = getattr(other, "field", None)
        if other_field is None:
            return NotImplemented
        if other_field.characteristic != field.characteristic:
            raise FieldError("cannot multiply elements of different characteristics")
        if field.degree % other_field.degree != 0 or other_field.degree == field.degree:
            raise FieldError("mixed multiplication requires a sub-tower operand")
        return ExtElement(field, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def square(self) -> "ExtElement":
        field = self.field
        result = field._sqr_variant.apply(field._ops, self.coeffs)
        return ExtElement(field, tuple(result))

    def mul_small(self, k: int) -> "ExtElement":
        return ExtElement(self.field, tuple(c.mul_small(k) for c in self.coeffs))

    def double(self) -> "ExtElement":
        return self.mul_small(2)

    def triple(self) -> "ExtElement":
        return self.mul_small(3)

    def mul_by_nonresidue(self) -> "ExtElement":
        """Multiply by the adjoined element ``t`` (shift coefficients, wrap with xi)."""
        field = self.field
        coeffs = self.coeffs
        wrapped = coeffs[-1] * field.non_residue
        return ExtElement(field, (wrapped,) + coeffs[:-1])

    def inverse(self) -> "ExtElement":
        field = self.field
        xi = field.non_residue
        if field.m == 2:
            a0, a1 = self.coeffs
            norm = a0.square() - (a1.square() * xi)
            inv_norm = norm.inverse()
            return ExtElement(field, (a0 * inv_norm, -(a1 * inv_norm)))
        a0, a1, a2 = self.coeffs
        c0 = a0.square() - (a1 * a2) * xi
        c1 = a2.square() * xi - a0 * a1
        c2 = a1.square() - a0 * a2
        norm = a0 * c0 + (a2 * c1) * xi + (a1 * c2) * xi
        inv_norm = norm.inverse()
        return ExtElement(field, (c0 * inv_norm, c1 * inv_norm, c2 * inv_norm))

    def __pow__(self, exponent: int) -> "ExtElement":
        exponent = int(exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        if exponent == 0:
            return result
        base = self
        for bit in bin(exponent)[2:]:
            result = result.square()
            if bit == "1":
                result = result * base
        return result

    # -- tower-uniform operations ---------------------------------------------------
    def frobenius(self, n: int = 1) -> "ExtElement":
        """Apply the p^n-power Frobenius endomorphism."""
        field = self.field
        n = n % field.degree
        if n == 0:
            return self
        data = field.frobenius_data(n)
        new_coeffs = [None] * field.m
        for i, (dest, constant) in enumerate(data):
            value = self.coeffs[i].frobenius(n)
            if not constant.is_one():
                value = value * constant
            new_coeffs[dest] = value
        return ExtElement(field, tuple(new_coeffs))

    def conjugate(self) -> "ExtElement":
        """Conjugation over the base field (only defined for quadratic steps)."""
        if self.field.m != 2:
            raise FieldError("conjugate() requires a quadratic top-level step")
        a0, a1 = self.coeffs
        return ExtElement(self.field, (a0, -a1))

    # -- structure --------------------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and all(c.is_zero() for c in self.coeffs[1:])

    def to_base_coeffs(self) -> list:
        flat: list = []
        for c in self.coeffs:
            flat.extend(c.to_base_coeffs())
        return flat

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.degree, tuple(self.to_base_coeffs())))

    def __repr__(self) -> str:
        return f"{self.field.name}({self.to_base_coeffs()})"


def embed(element, target_field):
    """Embed an element of a sub-tower field into ``target_field`` built on top of it.

    Raises :class:`~repro.errors.FieldError` if ``target_field`` is not an extension
    tower whose chain of base fields contains the element's field.
    """
    chain = []
    fld = target_field
    while isinstance(fld, ExtensionField) and fld != element.field:
        chain.append(fld)
        fld = fld.base
    if fld != element.field:
        raise FieldError("element field is not part of the target tower")
    value = element
    for step in reversed(chain):
        zeros = tuple(step.base.zero() for _ in range(step.m - 1))
        value = ExtElement(step, (value,) + zeros)
    return value
