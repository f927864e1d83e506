"""Final-exponentiation hard-part decompositions.

The hard part of the final exponentiation raises the Miller value to
``e = Phi_k(p) / r``.  Published implementations use family-specific addition
chains; instead of transcribing them, this module *derives* an equivalent
decomposition for any supported family:

write ``c * e(x)`` in base ``p(x)`` (polynomial division over Q), i.e.

    c * e(x) = sum_i  lambda_i(x) * p(x)^i,      deg(lambda_i) < deg(p)

for the smallest ``c`` in {1, 2, 3, 6} making every coefficient an integer.  The
hard part is then ``prod_i frob^i(f^{lambda_i(u)})`` where each ``f^{lambda_i(u)}``
only needs powers ``f^{u^j}`` (a handful of exponentiations by the small seed) and
tiny integer exponents -- the same cost shape as the hand-optimised chains the
paper assumes.  The decomposition is validated exactly against the integer
exponent; a family for which no ``c`` gives integral digits is refused (every
catalog curve has one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.curves.families import CurveFamily, FamilyParams
from repro.errors import PairingError
from repro.nt.recoding import signed_windows


# ---------------------------------------------------------------------------
# Small polynomial helpers (coefficient lists, low degree first, Fraction coeffs)
# ---------------------------------------------------------------------------

def _poly_trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _poly_trim([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _poly_scale(a: list, s) -> list:
    return _poly_trim([c * s for c in a])


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_pow(a: list, n: int) -> list:
    result = [Fraction(1)]
    for _ in range(n):
        result = _poly_mul(result, a)
    return result


def _poly_divmod(a: list, b: list) -> tuple:
    """Polynomial division over Q. Returns (quotient, remainder)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    _poly_trim(a)
    _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    remainder = a[:]
    while remainder and len(remainder) >= len(b):
        coeff = remainder[-1] / b[-1]
        deg = len(remainder) - len(b)
        quotient[deg] = coeff
        for i, cb in enumerate(b):
            remainder[deg + i] -= coeff * cb
        _poly_trim(remainder)
    return _poly_trim(quotient), remainder


def cyclotomic_value(k: int, p: int) -> int:
    """Phi_k(p) for the supported embedding degrees."""
    if k == 12:
        return p**4 - p**2 + 1
    if k == 24:
        return p**8 - p**4 + 1
    raise PairingError(f"unsupported embedding degree {k}")


def _cyclotomic_poly(k: int) -> list:
    if k == 12:
        return [Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]
    if k == 24:
        return [Fraction(1)] + [Fraction(0)] * 3 + [Fraction(-1)] + [Fraction(0)] * 3 + [Fraction(1)]
    raise PairingError(f"unsupported embedding degree {k}")


def hard_exponent(params: FamilyParams) -> int:
    """The exact hard-part exponent Phi_k(p) / r (must divide exactly)."""
    phi = cyclotomic_value(params.k, params.p)
    if phi % params.r != 0:
        raise PairingError("r does not divide Phi_k(p); invalid pairing parameters")
    return phi // params.r


def signed_digits(value: int) -> tuple:
    """Non-adjacent-form digits of ``value >= 1`` (little-endian, in {-1, 0, 1}).

    The NAF has minimal weight among signed-binary representations, and in the
    cyclotomic subgroup a negative digit costs only a conjugation -- which is
    why the recoded chains cached on :class:`FinalExpPlan` strictly win over
    plain binary there.
    """
    if value < 1:
        raise PairingError("signed-digit recoding requires a positive magnitude")
    return tuple(signed_windows(value, 2))


#: Upper bound on the bit-length of seed/coefficient exponentiation chains.
#: Real seeds top out near 160 bits; anything wildly larger is a corrupted
#: plan, and evaluating it would silently burn an unbounded squaring chain.
MAX_CHAIN_BITS = 512


@dataclass(frozen=True)
class FinalExpPlan:
    """Evaluation plan for the hard part of the final exponentiation.

    Small polynomial digits in the seed ``u``: the plan computes
    ``f ** (c * Phi_k(p)/r)`` as ``prod_i frob^i(f^{lambda_i(u)})``.

    The plan's shape is validated eagerly at construction (malformed plans
    used to surface only as silent fallbacks or crashes deep inside
    ``hard_part``), and the signed-digit chains the cyclotomic fast path
    evaluates -- the NAF of the seed and of every small polynomial
    coefficient -- are recoded once here and cached with the plan, which is
    itself cached per curve by the catalog.
    """

    c: int
    #: lambda_coeffs[i][j] is the coefficient of u^j in lambda_i(x).
    lambda_coeffs: tuple
    u: int
    p: int
    #: NAF chain of ``abs(u)``.
    seed_chain: tuple = field(init=False, repr=False, compare=False, default=())
    #: NAF chains of every distinct non-zero ``abs(coeff)`` in the plan.
    small_chains: dict = field(init=False, repr=False, compare=False,
                               default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise PairingError("final-exponentiation plan needs a prime p >= 2")
        if not isinstance(self.c, int) or self.c < 1:
            raise PairingError("final-exponentiation plan cofactor c must be >= 1")
        self._validate()
        object.__setattr__(self, "seed_chain", signed_digits(abs(self.u)))
        chains = {}
        for row in self.lambda_coeffs:
            for coeff in row:
                magnitude = abs(coeff)
                if magnitude and magnitude not in chains:
                    chains[magnitude] = signed_digits(magnitude)
        object.__setattr__(self, "small_chains", chains)

    def _validate(self):
        if not isinstance(self.u, int) or self.u == 0:
            raise PairingError("final-exponentiation plan requires a non-zero integer seed")
        if abs(self.u).bit_length() > MAX_CHAIN_BITS:
            raise PairingError(
                f"seed magnitude exceeds {MAX_CHAIN_BITS} bits; refusing the "
                "exponentiation chain"
            )
        rows = self.lambda_coeffs
        if not isinstance(rows, tuple) or not rows:
            raise PairingError("final-exponentiation plan requires a non-empty "
                               "lambda_coeffs tuple")
        any_nonzero = False
        for row in rows:
            if not isinstance(row, tuple):
                raise PairingError("lambda_coeffs rows must be tuples of integers")
            for coeff in row:
                if not isinstance(coeff, int) or isinstance(coeff, bool):
                    raise PairingError("lambda coefficients must be plain integers")
                if abs(coeff).bit_length() > MAX_CHAIN_BITS:
                    raise PairingError(
                        f"lambda coefficient exceeds {MAX_CHAIN_BITS} bits; "
                        "refusing the exponentiation chain"
                    )
                any_nonzero = any_nonzero or coeff != 0
        if not any_nonzero:
            raise PairingError("final-exponentiation plan has no non-zero lambda coefficient")

    @property
    def max_u_degree(self) -> int:
        return max(len(row) - 1 for row in self.lambda_coeffs)

    @property
    def frobenius_terms(self) -> int:
        return len(self.lambda_coeffs)

    def exponent(self) -> int:
        """The integer exponent this plan realises (for validation)."""
        total = 0
        for i, row in enumerate(self.lambda_coeffs):
            lam = sum(coeff * self.u**j for j, coeff in enumerate(row))
            total += lam * self.p**i
        return total


def _base_p_polynomial_digits(e_poly: list, p_poly: list) -> list:
    """Digits of e(x) in base p(x): e = d_0 + d_1 p + d_2 p^2 + ..., deg(d_i) < deg(p)."""
    digits = []
    current = [Fraction(c) for c in e_poly]
    while current:
        current, remainder = _poly_divmod(current, p_poly)
        digits.append(remainder)
    return digits


def solve_final_exp_plan(family: CurveFamily, params: FamilyParams) -> FinalExpPlan:
    """Derive the hard-part plan for a concrete curve of ``family``.

    Tries ``c`` = 1, 2, 3, 6 in turn and returns the first polynomial
    decomposition that validates exactly; raises :class:`PairingError` when
    none does.
    """
    target = hard_exponent(params)
    p_poly = [Fraction(c, family.poly_denominator) for c in family.p_coeffs]
    r_poly = [Fraction(c) for c in family.r_coeffs]
    phi_of_p = [Fraction(0)]
    for power, coeff in enumerate(_cyclotomic_poly(family.k)):
        if coeff:
            phi_of_p = _poly_add(phi_of_p, _poly_scale(_poly_pow(p_poly, power), coeff))
    e_poly, remainder = _poly_divmod(phi_of_p, r_poly)
    if remainder:
        raise PairingError("Phi_k(p(x)) is not divisible by r(x) for this family")

    for c in (1, 2, 3, 6):
        digits = _base_p_polynomial_digits(_poly_scale(e_poly, c), p_poly)
        if all(coeff.denominator == 1 for digit in digits for coeff in digit):
            lambda_coeffs = tuple(tuple(int(coeff) for coeff in digit) for digit in digits)
            try:
                plan = FinalExpPlan(c=c, lambda_coeffs=lambda_coeffs,
                                    u=params.u, p=params.p)
            except PairingError:
                # Shape-invalid candidate (e.g. degenerate coefficients).
                continue
            if plan.exponent() == c * target:
                return plan
    raise PairingError(
        f"no polynomial hard-part decomposition with c in (1, 2, 3, 6) for "
        f"family {family.name}")
