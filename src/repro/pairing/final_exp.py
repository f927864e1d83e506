"""Final exponentiation: easy part plus decomposed hard part.

The easy part raises the Miller value to ``(p^{k/2} - 1)(p^{k/d} + 1)`` using one
field inversion, one conjugation and Frobenius maps.  The hard part evaluates the
plan produced by :mod:`repro.pairing.exponent` in the cyclotomic subgroup, where
inversion is a conjugation.

Hard-part modes
---------------
Everything downstream of :func:`easy_part` lives in the cyclotomic subgroup, so
the hard part can swap its squaring backend (:mod:`repro.fields.cyclotomic`):

``"generic"``
    Plain binary square-and-multiply on generic ``F_p^k`` arithmetic -- the
    historical baseline every other mode is bit-exact against.
``"cyclotomic"``
    Granger-Scott cyclotomic squarings plus signed-digit (NAF) recoding of the
    seed and coefficient chains (negative digits are free conjugations), using
    the chains cached on :class:`~repro.pairing.exponent.FinalExpPlan`.
``"compressed"``
    As ``"cyclotomic"``, with long squaring runs additionally executed in
    Karabina compressed form and decompressed in one batch per chain via
    Montgomery simultaneous inversion (Granger-Scott again where a
    determinant is zero).

All three modes run unchanged on concrete elements and on the compiler's trace
elements, so ``compile_pairing(final_exp_mode=...)`` emits the matching kernel.
In software, where every squaring run is one n-times kernel call
(``PairingContext.run_formula_times``), ``"compressed"`` is the fastest and
the default of ``optimal_ate_pairing`` and ``multi_pairing``; compiled kernels
keep their own (``KernelSpec`` defaults to ``"generic"``, and the DSE scores
``"cyclotomic"``).  ``hard_part`` itself defaults to ``"generic"``.
"""

from __future__ import annotations

from repro.config import member
from repro.errors import PairingError
from repro.fields.cyclotomic import power_signed
from repro.pairing.exponent import FinalExpPlan, signed_digits

#: Supported hard-part evaluation modes.
FINAL_EXP_MODES = ("generic", "cyclotomic", "compressed")


def validate_final_exp_mode(mode) -> str:
    return member(mode, FINAL_EXP_MODES, "final_exp_mode", PairingError)


def easy_part(ctx, f):
    """Raise ``f`` to ``(p^{k/2} - 1) * (p^{k/2 or k/6...} + 1)``.

    For k = 12 this is (p^6 - 1)(p^2 + 1); for k = 24 it is (p^12 - 1)(p^4 + 1).
    The result lies in the cyclotomic subgroup of order Phi_k(p).
    """
    # f^(p^{k/2} - 1): conjugation is the p^{k/2}-power Frobenius on the top step.
    f = f.conjugate() * f.inverse()
    # f^(p^{k/(something)} + 1) with the cofactor completing (p^k - 1) / Phi_k(p).
    if ctx.k == 12:
        f = f.frobenius(2) * f
    elif ctx.k == 24:
        f = f.frobenius(4) * f
    else:
        raise PairingError(f"unsupported embedding degree {ctx.k}")
    return f


def _cyclotomic_inverse(value):
    """Inverse inside the cyclotomic subgroup (free: it is the conjugation)."""
    return value.conjugate()


def _power_positive(value, magnitude: int):
    """value ** magnitude for magnitude >= 1 (plain binary square-and-multiply)."""
    bits = bin(magnitude)[2:]
    result = value
    for bit in bits[1:]:
        result = result.square()
        if bit == "1":
            result = result * value
    return result


def _power_by_seed(ctx, value, plan: FinalExpPlan, mode: str):
    """value ** plan.u, with negative seeds handled by the cyclotomic inverse."""
    if plan.u == 0:
        raise PairingError("seed must be non-zero")
    if mode == "generic":
        result = _power_positive(value, abs(plan.u))
    else:
        result = power_signed(ctx, value, plan.seed_chain, mode=mode)
    if plan.u < 0:
        result = _cyclotomic_inverse(result)
    return result


def _power_small(ctx, value, exponent: int, plan: FinalExpPlan, mode: str):
    """value ** exponent for small (possibly negative) exponents; None when zero."""
    if exponent == 0:
        return None
    magnitude = abs(exponent)
    if mode == "generic":
        result = _power_positive(value, magnitude)
    else:
        chain = plan.small_chains.get(magnitude) or signed_digits(magnitude)
        result = power_signed(ctx, value, chain, mode=mode)
    if exponent < 0:
        result = _cyclotomic_inverse(result)
    return result


def hard_part(ctx, f, plan: FinalExpPlan | None = None, mode: str = "generic"):
    """Evaluate the hard part ``f ** (c * Phi_k(p) / r)`` following ``plan``."""
    mode = validate_final_exp_mode(mode)
    plan = plan or ctx.final_exp_plan
    if not isinstance(plan, FinalExpPlan):
        raise PairingError(
            f"hard_part requires a FinalExpPlan, got {type(plan).__name__}"
        )
    # Powers of f by u^j, j = 0 .. max degree (g[0] = f).
    seed_powers = [f]
    for _ in range(plan.max_u_degree):
        seed_powers.append(_power_by_seed(ctx, seed_powers[-1], plan, mode))

    result = None
    for i, row in enumerate(plan.lambda_coeffs):
        term = None
        for j, coeff in enumerate(row):
            factor = _power_small(ctx, seed_powers[j], coeff, plan, mode)
            if factor is None:
                continue
            term = factor if term is None else term * factor
        if term is None:
            continue
        if i:
            term = term.frobenius(i)
        result = term if result is None else result * term
    return result


def final_exponentiation(ctx, f, mode: str = "generic"):
    """The complete final exponentiation (easy + hard part)."""
    return hard_part(ctx, easy_part(ctx, f), mode=mode)
