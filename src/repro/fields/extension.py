"""Generic tower extension fields ``K[t]/(t^m - xi)`` with m in {2, 3}.

Towers of these steps build every field the framework needs (F_p2 ... F_p24),
following the "finite division lattice" construction the paper's operator kit
uses.

Representation: an :class:`ExtElement` holds one flat tuple of ``field.degree``
canonical residues in ``[0, p)`` (``int``, or ``mpz`` under the gmpy2 residue
type), little-endian down the tower -- the coefficient of ``t^i`` occupies the
``i``-th block of ``base.degree`` residues, exactly the order of
``to_base_coeffs()``.  Arithmetic is delegated to straight-line kernels on such
tuples that :mod:`repro.fields.kernels` generates, once per (field, operation)
and on first use, from the operator-variant formulas of
:mod:`repro.fields.variants` -- the formulas the compiler's lowering rules
consume -- so the reference semantics and the hardware mapping cannot diverge.
``ExtElement.coeffs`` is a derived view (the ``m`` base-field elements) for
code that inspects the tower structure.
"""

from __future__ import annotations

import random
from functools import cached_property

from repro.errors import FieldError
from repro.fields.fp import FpElement, require_same_field
from repro.fields.kernels import build_kernel


def _kernel(op: str) -> cached_property:
    """A field attribute holding the kernel of ``op``, built when first read."""
    return cached_property(lambda field: build_kernel(field, op))


class ExtensionField:
    """One extension step ``base[t]/(t^m - non_residue)``."""

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
        self._m = base._m                  # the modulus in the residue type
        self._hash = hash(("ExtensionField", m, base, non_residue))
        #: Lower tower levels by degree: the operands mixed products accept.
        self._levels = {**getattr(base, "_levels", {}), base.degree: base}
        zero = self._m - self._m
        self._zero = ExtElement(self, (zero,) * self.degree)
        self._one = ExtElement(self, (zero + 1,) + (zero,) * (self.degree - 1))
        self._frob_cache: dict = {}
        self._frobenius_kernels: dict = {}
        self._formula_kernels: dict = {}   # filled by repro.curves.model

    def __reduce__(self):
        return (ExtensionField, (self.base, self.m, self.non_residue, self.name))

    # -- structural properties ----------------------------------------------------
    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def backend(self) -> str:
        """Name of the F_p backend (residue type) this tower bottoms out in."""
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
        return self is other or (
            isinstance(other, ExtensionField)
            and other.m == self.m
            and other.base == self.base
            and other.non_residue == self.non_residue
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}(degree={self.degree}, bits={self.p.bit_length()})"

    # -- kernels on flat residue tuples, generated on first use -----------------------
    _mul = _kernel("mul")
    _sqr = _kernel("sqr")
    _add = _kernel("add")
    _sub = _kernel("sub")
    _neg = _kernel("neg")
    _mul_small = _kernel("mul_small")
    _mul_by_nonresidue = _kernel("mul_by_nonresidue")
    _conjugate = _kernel("conjugate")
    _inverse = _kernel("inverse")

    def _frobenius(self, n: int):
        kernel = self._frobenius_kernels.get(n)
        if kernel is None:
            kernel = self._frobenius_kernels[n] = build_kernel(self, "frobenius", power=n)
        return kernel

    # -- element constructors -------------------------------------------------------
    def element(self, coeffs) -> "ExtElement":
        """Build an element from its ``m`` coefficients in the base field."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        flat: tuple = ()
        for coeff in coeffs:
            if coeff.field is not self.base and coeff.field != self.base:
                raise FieldError(f"coefficients of {self.name} must lie in its base field")
            flat += coeff.flat
        return ExtElement(self, flat)

    def __call__(self, value) -> "ExtElement":
        """Coerce an int, a base-field element or an element of this field."""
        if isinstance(value, ExtElement) and value.field == self:
            return value
        head = self.base(value).flat
        return ExtElement(self, head + self._zero.flat[len(head):])

    def zero(self) -> "ExtElement":
        return self._zero

    def one(self) -> "ExtElement":
        return self._one

    def gen(self) -> "ExtElement":
        """The adjoined element ``t`` of this step."""
        flat = list(self._zero.flat)
        flat[self.base.degree] = self._one.flat[0]
        return ExtElement(self, tuple(flat))

    def random(self, rng: random.Random) -> "ExtElement":
        return self.from_base_coeffs([rng.randrange(self.p) for _ in range(self.degree)])

    def from_flat(self, flat: tuple) -> "ExtElement":
        """The element holding the canonical residues ``flat``, unchecked."""
        return ExtElement(self, flat)

    def from_base_coeffs(self, coeffs) -> "ExtElement":
        """Build an element from a flat little-endian list of ``degree`` F_p integers."""
        coeffs = list(coeffs)
        if len(coeffs) != self.degree:
            raise FieldError(f"expected {self.degree} base coefficients, got {len(coeffs)}")
        modulus = self._m
        return ExtElement(self, tuple(int(c) % modulus for c in coeffs))

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
    """An element of an :class:`ExtensionField`: ``degree`` residues in ``[0, p)``."""

    __slots__ = ("field", "flat")

    def __init__(self, field: ExtensionField, flat: tuple):
        self.field = field
        self.flat = flat

    @property
    def coeffs(self) -> tuple:
        """The ``m`` coefficients over the base field (a derived view)."""
        base = self.field.base
        flat = self.flat
        if base.degree == 1:
            return tuple(FpElement(base, c) for c in flat)
        chunk = base.degree
        return tuple(ExtElement(base, flat[i:i + chunk]) for i in range(0, len(flat), chunk))

    # -- ring operations ----------------------------------------------------------
    def __add__(self, other: "ExtElement") -> "ExtElement":
        field = self.field
        if other.field is not field:
            require_same_field(field, other)
        return ExtElement(field, field._add(self.flat, other.flat))

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        field = self.field
        if other.field is not field:
            require_same_field(field, other)
        return ExtElement(field, field._sub(self.flat, other.flat))

    def __neg__(self) -> "ExtElement":
        field = self.field
        return ExtElement(field, field._neg(self.flat))

    def __mul__(self, other) -> "ExtElement":
        field = self.field
        other_field = getattr(other, "field", None)
        if other_field is field or other_field == field:
            return ExtElement(field, field._mul(self.flat, other.flat))
        if other_field is None:
            return NotImplemented
        # Multiplication by an element of a sub-tower level (including F_p): scale
        # the coefficients over that level.  This mirrors the paper's IR rule that
        # ``mul`` accepts mixed fp-like operands whose degrees divide each other.
        if other_field.characteristic != field.characteristic:
            raise FieldError("cannot multiply elements of different characteristics")
        if other_field.degree > field.degree:
            return other * self            # the higher level scales by this one
        if field._levels.get(other_field.degree) != other_field:
            raise FieldError("mixed multiplication requires a sub-tower operand")
        flat = self.flat
        if other_field.degree == 1:
            k, modulus = other.raw, field._m
            return ExtElement(field, tuple([(c * k) % modulus for c in flat]))
        mul, scalar, chunk = other_field._mul, other.flat, other_field.degree
        scaled: tuple = ()
        for i in range(0, field.degree, chunk):
            scaled += mul(flat[i:i + chunk], scalar)
        return ExtElement(field, scaled)

    __rmul__ = __mul__

    def square(self) -> "ExtElement":
        field = self.field
        return ExtElement(field, field._sqr(self.flat))

    def mul_small(self, k: int) -> "ExtElement":
        field = self.field
        return ExtElement(field, field._mul_small(self.flat, k))

    def double(self) -> "ExtElement":
        return self.mul_small(2)

    def triple(self) -> "ExtElement":
        return self.mul_small(3)

    def mul_by_nonresidue(self) -> "ExtElement":
        """Multiply by the adjoined element ``t`` (shift coefficients, wrap with xi)."""
        field = self.field
        return ExtElement(field, field._mul_by_nonresidue(self.flat))

    def inverse(self) -> "ExtElement":
        field = self.field
        if not any(self.flat):
            raise FieldError("zero has no inverse")
        return ExtElement(field, field._inverse(self.flat))

    def __pow__(self, exponent: int) -> "ExtElement":
        exponent = int(exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        field = self.field
        mul, sqr, base = field._mul, field._sqr, self.flat
        result = field._one.flat
        for bit in bin(exponent)[2:]:
            result = sqr(result)
            if bit == "1":
                result = mul(result, base)
        return ExtElement(field, result)

    # -- tower-uniform operations ---------------------------------------------------
    def frobenius(self, n: int = 1) -> "ExtElement":
        """Apply the p^n-power Frobenius endomorphism."""
        field = self.field
        n = n % field.degree
        if n == 0:
            return self
        return ExtElement(field, field._frobenius(n)(self.flat))

    def conjugate(self) -> "ExtElement":
        """Conjugation over the base field (only defined for quadratic steps)."""
        field = self.field
        if field.m != 2:
            raise FieldError("conjugate() requires a quadratic top-level step")
        return ExtElement(field, field._conjugate(self.flat))

    # -- structure --------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.flat)

    def is_one(self) -> bool:
        return self.flat == self.field._one.flat

    def to_base_coeffs(self) -> list:
        return [int(c) for c in self.flat]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtElement, FpElement)):
            return NotImplemented
        if other.field is not self.field:
            require_same_field(self.field, other)
        return other.flat == self.flat

    def __hash__(self) -> int:
        return hash((self.field.degree, tuple(map(int, self.flat))))

    def __repr__(self) -> str:
        return f"{self.field.name}({self.to_base_coeffs()})"


def embed(element, target_field):
    """Embed an element of a sub-tower field into ``target_field`` built on top of it.

    Raises :class:`~repro.errors.FieldError` if ``target_field`` is not an extension
    tower whose chain of base fields contains the element's field.
    """
    if element.field == target_field:
        return element
    levels = getattr(target_field, "_levels", {})
    if levels.get(element.field.degree) != element.field:
        raise FieldError("element field is not part of the target tower")
    head = element.flat
    return ExtElement(target_field, head + target_field._zero.flat[len(head):])
