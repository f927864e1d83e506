"""Base prime field F_p and its elements.

Elements are thin immutable wrappers around the canonical residue in
``[0, p)``; all higher tower levels are built on top of this class by
:mod:`repro.fields.extension`.  Ring operations, inversion and exponentiation
are plain modular expressions on that residue.  The backend
(:mod:`repro.fields.backends`) only picks the integer type they run on --
Python ``int`` or GMP-backed ``mpz`` -- so ``value``/``to_base_coeffs`` yield
the same integers either way and the compiler, the curve catalog and the cache
digests never see the backend.
"""

from __future__ import annotations

import random

from repro.errors import FieldError
from repro.fields.backends import resolve_backend
from repro.nt.primes import is_probable_prime


class PrimeField:
    """The prime field F_p.

    The same object doubles as the degree-1 "tower level" so that generic code can
    treat F_p and its extensions uniformly (``degree``, ``zero``, ``one``,
    ``from_base_coeffs`` ...).

    ``backend`` selects the residue type by name (``python`` | ``gmpy2`` |
    ``fast``); when omitted the process default applies
    (``FINESSE_FP_BACKEND``, then ``python``).  Two fields over the same
    modulus compare equal regardless of backend, and their elements mix freely.
    """

    __slots__ = ("p", "backend", "_m", "_one", "_zero", "_formula_kernels")

    def __init__(self, p: int, backend: str | None = None):
        if not isinstance(p, int) or p < 3 or p % 2 == 0:
            raise FieldError("PrimeField requires an odd prime modulus")
        if not is_probable_prime(p):
            raise FieldError(f"PrimeField modulus {p} is composite; an odd prime is required")
        self.p = p
        self.backend = resolve_backend(explicit=backend)
        if self.backend == "gmpy2":
            import gmpy2

            self._m = gmpy2.mpz(p)
        else:
            self._m = p
        self._zero = None
        self._one = None
        self._formula_kernels: dict = {}   # filled by repro.curves.model

    def __reduce__(self):
        return (PrimeField, (self.p, self.backend))   # the compiled kernels stay behind

    # -- structural properties -------------------------------------------------
    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        """Extension degree over F_p (1 for the base field itself)."""
        return 1

    def order(self) -> int:
        return self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F_p(bits={self.p.bit_length()}, backend={self.backend})"

    # -- element constructors ---------------------------------------------------
    def element(self, value: int) -> "FpElement":
        return FpElement(self, value % self._m)

    def __call__(self, value) -> "FpElement":
        if isinstance(value, FpElement):
            if value.field != self:
                raise FieldError("element belongs to a different prime field")
            return value
        return self.element(int(value))

    def zero(self) -> "FpElement":
        if self._zero is None:
            self._zero = self.element(0)
        return self._zero

    def one(self) -> "FpElement":
        if self._one is None:
            self._one = self.element(1)
        return self._one

    def random(self, rng: random.Random) -> "FpElement":
        return self.element(rng.randrange(self.p))

    def from_flat(self, flat: tuple) -> "FpElement":
        """The element holding the canonical residues ``flat``, unchecked."""
        return FpElement(self, flat[0])

    def from_base_coeffs(self, coeffs) -> "FpElement":
        """Build an element from its flat F_p coefficient list (length 1)."""
        if len(coeffs) != 1:
            raise FieldError("F_p elements have exactly one coefficient")
        return self.element(int(coeffs[0]))


def require_same_field(field, other) -> None:
    """Raise unless ``other`` is an element of a field equal to ``field``.

    The slow path of ``+`` / ``-`` / ``==`` at every tower level: operands of
    one field object never get here, equal fields built twice pass, and
    elements of different levels or moduli fail loudly instead of combining
    coefficient by coefficient.
    """
    if other.field != field:
        raise FieldError(
            f"cannot combine an element of {field!r} with one of {other.field!r}"
        )


class FpElement:
    """An element of F_p.

    ``raw`` is the canonical residue in ``[0, p)`` as the field's integer type
    (``int`` or ``mpz``); ``value`` is the same residue as a Python ``int``.
    Constructing elements directly is internal API -- go through
    ``field(...)`` / ``field.element(...)``.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field: PrimeField, raw):
        self.field = field
        self.raw = raw

    @property
    def value(self) -> int:
        """The canonical integer in ``[0, p)``."""
        return int(self.raw)

    @property
    def flat(self) -> tuple:
        """The residues as every tower level holds them: a tuple of ``degree``."""
        return (self.raw,)

    # -- ring operations ---------------------------------------------------------
    def __add__(self, other: "FpElement") -> "FpElement":
        field = self.field
        if other.field is not field:
            require_same_field(field, other)
        return FpElement(field, (self.raw + other.raw) % field._m)

    def __sub__(self, other: "FpElement") -> "FpElement":
        field = self.field
        if other.field is not field:
            require_same_field(field, other)
        return FpElement(field, (self.raw - other.raw) % field._m)

    def __mul__(self, other: "FpElement") -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        field = self.field
        return FpElement(field, (self.raw * other.raw) % field._m)

    def __neg__(self) -> "FpElement":
        field = self.field
        return FpElement(field, (-self.raw) % field._m)

    def square(self) -> "FpElement":
        field = self.field
        return FpElement(field, (self.raw * self.raw) % field._m)

    def mul_small(self, k: int) -> "FpElement":
        """Multiply by a small (possibly negative) integer constant."""
        field = self.field
        return FpElement(field, (self.raw * k) % field._m)

    def double(self) -> "FpElement":
        return self.mul_small(2)

    def triple(self) -> "FpElement":
        return self.mul_small(3)

    def inverse(self) -> "FpElement":
        field = self.field
        if not self.raw:
            raise FieldError("zero has no inverse")
        return FpElement(field, pow(self.raw, -1, field._m))

    def __pow__(self, exponent: int) -> "FpElement":
        exponent = int(exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        field = self.field
        return FpElement(field, pow(self.raw, exponent, field._m))

    # -- tower-uniform operations -------------------------------------------------
    def frobenius(self, n: int = 1) -> "FpElement":
        """The Frobenius endomorphism is the identity on F_p."""
        return self

    def conjugate(self) -> "FpElement":
        return self

    # -- structure ----------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.raw == 0

    def is_one(self) -> bool:
        return self.raw == 1

    def to_base_coeffs(self) -> list:
        return [self.value]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpElement):
            # An extension element answers (by raising) through its reflected
            # ``__eq__``; anything else is simply not equal.
            return NotImplemented
        if other.field is not self.field:
            require_same_field(self.field, other)
        return other.raw == self.raw

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return f"Fp({self.value})"
