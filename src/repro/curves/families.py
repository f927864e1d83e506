"""Pairing-friendly curve families (BN, BLS12, BLS24).

A family is defined by its parameter polynomials p(x), r(x), t(x) and its
embedding degree; a concrete curve is obtained by evaluating them at a seed
``u`` for which both p and r are prime.  This mirrors Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import CurveError
from repro.nt.primes import is_probable_prime


@dataclass(frozen=True)
class FamilyParams:
    """Concrete integer parameters of one curve of a family."""

    family: str
    u: int
    p: int
    r: int
    t: int
    k: int

    @property
    def cofactor_g1(self) -> int:
        return (self.p + 1 - self.t) // self.r

    def validate(self) -> None:
        if not is_probable_prime(self.p):
            raise CurveError("p is not prime")
        if not is_probable_prime(self.r):
            raise CurveError("r is not prime")
        if (self.p + 1 - self.t) % self.r != 0:
            raise CurveError("r does not divide the curve order p + 1 - t")
        if self.p % 3 != 1:
            raise CurveError("p must be 1 mod 3 for a j=0 sextic-twist construction")


@dataclass(frozen=True)
class CurveFamily:
    """A polynomial family of pairing-friendly curves."""

    name: str
    k: int
    p_poly: Callable[[int], int]
    r_poly: Callable[[int], int]
    t_poly: Callable[[int], int]
    #: Degree of p(x), r(x) in the seed variable (used by the final-exp solver).
    p_degree: int
    r_degree: int
    #: Polynomial coefficients (low degree first) of p(x) and r(x); rational
    #: coefficients are expressed as (numerator, denominator) over a common
    #: denominator ``poly_denominator``.
    p_coeffs: tuple
    r_coeffs: tuple
    poly_denominator: int
    #: Constraint on the seed (e.g. BLS needs u = 1 mod 3).
    seed_constraint: Callable[[int], bool]
    #: Loop parameter of the Miller loop as a function of u ("6u+2" for BN, "u" for BLS).
    miller_loop_scalar: Callable[[int], int]

    def instantiate(self, u: int) -> FamilyParams:
        if not self.seed_constraint(u):
            raise CurveError(f"seed {u} violates the {self.name} family constraint")
        p = self.p_poly(u)
        r = self.r_poly(u)
        t = self.t_poly(u)
        if p <= 3 or r <= 3:
            raise CurveError("seed is too small")
        params = FamilyParams(family=self.name, u=u, p=p, r=r, t=t, k=self.k)
        params.validate()
        return params

    def is_valid_seed(self, u: int) -> bool:
        """Cheap check used by the parameter search (primality of p and r)."""
        if not self.seed_constraint(u):
            return False
        p = self.p_poly(u)
        r = self.r_poly(u)
        if p % 3 != 1 or p % 2 == 0:
            return False
        return is_probable_prime(p) and is_probable_prime(r)


def _bn_p(x: int) -> int:
    return 36 * x**4 + 36 * x**3 + 24 * x**2 + 6 * x + 1


def _bn_r(x: int) -> int:
    return 36 * x**4 + 36 * x**3 + 18 * x**2 + 6 * x + 1


def _bn_t(x: int) -> int:
    return 6 * x**2 + 1


BN_FAMILY = CurveFamily(
    name="BN",
    k=12,
    p_poly=_bn_p,
    r_poly=_bn_r,
    t_poly=_bn_t,
    p_degree=4,
    r_degree=4,
    p_coeffs=(1, 6, 24, 36, 36),
    r_coeffs=(1, 6, 18, 36, 36),
    poly_denominator=1,
    seed_constraint=lambda u: u != 0,
    miller_loop_scalar=lambda u: 6 * u + 2,
)


def _bls12_p(x: int) -> int:
    num = (x - 1) ** 2 * (x**4 - x**2 + 1) + 3 * x
    if num % 3 != 0:
        raise CurveError("BLS12 seed must make (x-1)^2 divisible by 3")
    return num // 3


def _bls12_r(x: int) -> int:
    return x**4 - x**2 + 1


def _bls12_t(x: int) -> int:
    return x + 1


BLS12_FAMILY = CurveFamily(
    name="BLS12",
    k=12,
    p_poly=_bls12_p,
    r_poly=_bls12_r,
    t_poly=_bls12_t,
    p_degree=6,
    r_degree=4,
    # 3*p(x) = x^6 - 2x^5 + 2x^3 + x + 1 ... expanded below; denominator 3.
    p_coeffs=(1, 1, 0, 2, 0, -2, 1),
    r_coeffs=(1, 0, -1, 0, 1),
    poly_denominator=3,
    seed_constraint=lambda u: u % 3 == 1,
    miller_loop_scalar=lambda u: u,
)


def _bls24_p(x: int) -> int:
    num = (x - 1) ** 2 * (x**8 - x**4 + 1) + 3 * x
    if num % 3 != 0:
        raise CurveError("BLS24 seed must make (x-1)^2 divisible by 3")
    return num // 3


def _bls24_r(x: int) -> int:
    return x**8 - x**4 + 1


def _bls24_t(x: int) -> int:
    return x + 1


BLS24_FAMILY = CurveFamily(
    name="BLS24",
    k=24,
    p_poly=_bls24_p,
    r_poly=_bls24_r,
    t_poly=_bls24_t,
    p_degree=10,
    r_degree=8,
    # 3*p(x) = (x-1)^2 (x^8 - x^4 + 1) + 3x, expanded coefficients low-first.
    p_coeffs=(1, 1, 1, 0, -1, 2, -1, 0, 1, -2, 1),
    r_coeffs=(1, 0, 0, 0, -1, 0, 0, 0, 1),
    poly_denominator=3,
    seed_constraint=lambda u: u % 3 == 1,
    miller_loop_scalar=lambda u: u,
)

_FAMILIES = {f.name: f for f in (BN_FAMILY, BLS12_FAMILY, BLS24_FAMILY)}


def get_family(name: str) -> CurveFamily:
    try:
        return _FAMILIES[name.upper()]
    except KeyError as exc:
        raise CurveError(f"unknown curve family {name!r}") from exc
