"""Search for pairing-friendly curve seeds.

The paper's Table 2 curves use published seeds; to stay self-contained (and to
support the "porting a new curve" agility scenario) this module can re-derive
seeds of a requested bit-width with low Hamming weight such that both p(u) and
r(u) are prime.  The catalog stores seeds found by this module (or well-known
published seeds), and re-validates them at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.curves.families import CurveFamily
from repro.errors import CurveError


@dataclass(frozen=True)
class SeedCandidate:
    """A candidate seed together with the bit pattern that produced it."""

    u: int
    sign: int
    exponents: tuple
    signs: tuple

    def describe(self) -> str:
        terms = []
        for exp, sgn in zip(self.exponents, self.signs):
            terms.append(("+" if sgn > 0 else "-") + f"2^{exp}")
        body = " ".join(terms).lstrip("+")
        prefix = "-(" if self.sign < 0 else ""
        suffix = ")" if self.sign < 0 else ""
        return f"{prefix}{body}{suffix}"


def _sparse_seeds(top_bit: int, max_terms: int, sign: int):
    """Yield seeds of the form +-(2^top_bit +- 2^e1 +- ... ) with few terms."""
    lower_bits = list(range(top_bit - 1, -1, -1))
    yield SeedCandidate(sign * (1 << top_bit), sign, (top_bit,), (1,))
    for n_terms in range(1, max_terms):
        for exps in combinations(lower_bits, n_terms):
            for sign_bits in range(1 << n_terms):
                value = 1 << top_bit
                signs = [1]
                for j, exp in enumerate(exps):
                    term_sign = 1 if (sign_bits >> j) & 1 == 0 else -1
                    value += term_sign * (1 << exp)
                    signs.append(term_sign)
                yield SeedCandidate(sign * value, sign, (top_bit,) + exps, tuple(signs))


def find_seed(
    family: CurveFamily,
    seed_bits: int,
    max_terms: int = 4,
    prefer_negative: bool = False,
) -> SeedCandidate:
    """Find a low-Hamming-weight seed with p(u) and r(u) prime.

    ``seed_bits`` is the bit length of |u| (one more is accepted).  The search
    enumerates every seed of at most ``max_terms`` signed powers of two with
    top bit ``seed_bits`` or ``seed_bits - 1``; the error, when none is valid,
    says how many it tried.
    """
    signs = (-1, 1) if prefer_negative else (1, -1)
    tried = 0
    # Try seeds around 2^seed_bits first: for a fixed base-field bit-width target the
    # valid seeds cluster just below/above that power of two.
    for top_bit in (seed_bits, seed_bits - 1):
        for sign in signs:
            for candidate in _sparse_seeds(top_bit, max_terms, sign):
                tried += 1
                u = candidate.u
                if not family.seed_constraint(u):
                    continue
                try:
                    p = family.p_poly(u)
                except CurveError:
                    continue
                if p <= 3 or p % 2 == 0 or p % 3 != 1:
                    continue
                if abs(u).bit_length() not in (seed_bits, seed_bits + 1):
                    continue
                if family.is_valid_seed(u):
                    return candidate
    raise CurveError(
        f"no valid {family.name} seed of {seed_bits} bits among the "
        f"{tried} candidates tried"
    )
