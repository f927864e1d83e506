"""Cyclotomic-subgroup arithmetic: Granger-Scott squaring and Karabina compression.

After the easy part of the final exponentiation every value lies in the
cyclotomic subgroup ``G_{Phi_k(p)}`` of ``F_p^k``; for the towers built by
:mod:`repro.fields.tower` (``F = B[w]/(w^6 - xi)`` with ``B`` the twist field,
``q = |B| = p^{k/6}``) that subgroup sits inside ``G_{Phi_6(q)}``, where two
classic accelerations apply:

* **Granger-Scott squaring** (:func:`cyclotomic_square`): 9 twist-field
  squarings instead of the ~12 twist-field multiplications of a generic
  ``F_p^k`` squaring -- the workhorse of every hard-part exponentiation.
* **Karabina compressed squaring** (:func:`compressed_square`): a subgroup
  element is represented by 4 of its 6 ``w``-basis coefficients
  ``(g1, g2, g4, g5)``; squaring the compressed form needs only 6 twist-field
  squarings, and the dropped ``(g0, g3)`` are recovered on demand by solving
  the unitarity relations -- one twist-field inversion per *batch* of
  decompressions thanks to the simultaneous-inversion trick
  (:func:`decompress_batch`).

Everything here is written against the generic element interface (``+``,
``*``, ``square``, ``conjugate``, ``mul_small``) plus three small context
hooks (``full_w_coeffs``, ``full_from_w_coeffs``, ``twist_xi_value``), so the
same code runs on concrete :class:`~repro.fields.extension.ExtElement` values
(the software pairing) and on the compiler's
:class:`~repro.ir.builder.TraceElement` values (the traced accelerator
kernel) -- the lock-step mechanism the rest of the pairing package uses.
Because no element is ever built from raw coefficients here, the F_p residue
type (:mod:`repro.fields.backends`) is transparent to this module.

Derivation notes (all verified against generic arithmetic by the test-suite):
writing ``f = sum_j g_j w^j`` and ``s = w^3`` (so ``s^2 = xi``), the
Granger-Scott theorem for ``f`` in ``G_{Phi_6(q)}`` gives

    g0' = 3 (g0^2 + xi g3^2) - 2 g0        g1' = 3 xi (2 g2 g5) + 2 g1
    g2' = 3 (g1^2 + xi g4^2) - 2 g2        g3' = 3 (2 g0 g3) + 2 g3
    g4' = 3 (g2^2 + xi g5^2) - 2 g4        g5' = 3 (2 g1 g4) + 2 g5

Only ``(g1, g2, g4, g5)`` feed their own update rules -- Karabina's
observation -- and the unitarity constraint ``f * conj(f) = 1`` yields the
linear system used for decompression:

    2 g2 g0 - 2 xi g5 g3 = g1^2 - xi g4^2
    2 g4 g0 - 2 g1  g3 = xi g5^2 - g2^2
"""

from __future__ import annotations

import functools

from repro.errors import FieldError


def context_formula(formula):
    """Run ``formula(ctx, *operands)`` through its context's
    ``run_formula``: the tracing context executes it as written, the concrete
    one answers with the F_p^k-level kernel compiled from it.  The formula
    itself stays reachable as ``.formula``."""
    @functools.wraps(formula)
    def run(ctx, *operands):
        return ctx.run_formula(formula, ctx, *operands)
    run.formula = formula
    return run


class CompressedElement:
    """Karabina-compressed cyclotomic element: the ``(g1, g2, g4, g5)`` slice."""

    __slots__ = ("g1", "g2", "g4", "g5")

    def __init__(self, g1, g2, g4, g5):
        self.g1 = g1
        self.g2 = g2
        self.g4 = g4
        self.g5 = g5

    def coords(self) -> tuple:
        return (self.g1, self.g2, self.g4, self.g5)


@context_formula
def cyclotomic_square(ctx, f):
    """Square a cyclotomic-subgroup element with the Granger-Scott formulas.

    Costs 9 twist-field squarings (plus linear operations and three
    multiplications by the small constant ``xi``) against the ~12 twist-field
    multiplications of a generic top-level squaring.  Only valid for elements
    of the cyclotomic subgroup -- i.e. anything downstream of
    :func:`repro.pairing.final_exp.easy_part`.
    """
    xi = ctx.twist_xi_value()
    g0, g1, g2, g3, g4, g5 = ctx.full_w_coeffs(f)

    a0 = g0.square()
    a3 = g3.square()
    t0 = a0 + a3 * xi                              # h0^2 constant part
    t1 = (g0 + g3).square() - a0 - a3              # 2 g0 g3
    b2 = g2.square()
    b5 = g5.square()
    t2 = b2 + b5 * xi
    t3 = (g2 + g5).square() - b2 - b5              # 2 g2 g5
    c1 = g1.square()
    c4 = g4.square()
    t4 = c1 + c4 * xi
    t5 = (g1 + g4).square() - c1 - c4              # 2 g1 g4

    h0 = t0.triple() - g0.double()
    h1 = (t3 * xi).triple() + g1.double()
    h2 = t4.triple() - g2.double()
    h3 = t1.triple() + g3.double()
    h4 = t2.triple() - g4.double()
    h5 = t5.triple() + g5.double()
    return ctx.full_from_w_coeffs([h0, h1, h2, h3, h4, h5])


def compress(ctx, f) -> CompressedElement:
    """Drop to the Karabina representation (free: coefficient selection)."""
    g = ctx.full_w_coeffs(f)
    return CompressedElement(g[1], g[2], g[4], g[5])


def compressed_square(ctx, comp: CompressedElement) -> CompressedElement:
    """One squaring in compressed form: 6 twist-field squarings."""
    return CompressedElement(*_compressed_square(ctx, *comp.coords()))


@context_formula
def _compressed_square(ctx, g1, g2, g4, g5):
    xi = ctx.twist_xi_value()

    c1 = g1.square()
    c4 = g4.square()
    t5 = (g1 + g4).square() - c1 - c4              # 2 g1 g4
    b2 = g2.square()
    b5 = g5.square()
    t3 = (g2 + g5).square() - b2 - b5              # 2 g2 g5

    h1 = (t3 * xi).triple() + g1.double()
    h2 = (c1 + c4 * xi).triple() - g2.double()
    h4 = (b2 + b5 * xi).triple() - g4.double()
    h5 = t5.triple() + g5.double()
    return (h1, h2, h4, h5)


def _decompression_system(ctx, comp: CompressedElement):
    """Right-hand sides and determinant of the (g0, g3) linear system."""
    xi = ctx.twist_xi_value()
    g1, g2, g4, g5 = comp.coords()
    rhs_a = g1.square() - g4.square() * xi          # 2 g2 g0 - 2 xi g5 g3
    rhs_b = g5.square() * xi - g2.square()          # 2 g4 g0 - 2 g1  g3
    det = (g4 * g5 * xi - g1 * g2).mul_small(4)
    return rhs_a, rhs_b, det


def batch_inverse(values: list) -> list:
    """Simultaneous inversion: one inversion for ``len(values)``.

    Works on any element type exposing ``*`` and ``inverse()`` (concrete
    field elements and trace elements alike); the caller guarantees every
    entry is invertible.
    """
    if not values:
        return []
    prefix = []
    acc = None
    for value in values:
        acc = value if acc is None else acc * value
        prefix.append(acc)
    inverted = acc.inverse()
    out: list = [None] * len(values)
    for index in range(len(values) - 1, 0, -1):
        out[index] = inverted * prefix[index - 1]
        inverted = inverted * values[index]
    out[0] = inverted
    return out


def decompress_batch(ctx, comps: list) -> list:
    """Recover the full elements of many compressed values at once.

    Solves the two unitarity relations for the dropped ``(g0, g3)`` of every
    entry, sharing a single twist-field inversion across the whole batch via
    :func:`batch_inverse`.  Raises :class:`~repro.errors.FieldError` when a
    determinant is (detectably, i.e. on concrete elements) zero -- the caller
    falls back to Granger-Scott squaring chains in that measure-zero case.
    """
    if not comps:
        return []
    xi = ctx.twist_xi_value()
    systems = [_decompression_system(ctx, comp) for comp in comps]
    dets = [det for _, _, det in systems]
    for det in dets:
        # Concrete elements expose is_zero(); trace elements cannot branch on
        # data, and the traced kernel simply assumes the generic position
        # (validated by the bit-exactness tests on every catalog curve).
        if hasattr(det, "is_zero") and det.is_zero():
            raise FieldError(
                "degenerate Karabina decompression (zero determinant); "
                "use the Granger-Scott path for this element"
            )
    det_invs = batch_inverse(dets)
    fulls = []
    for comp, (rhs_a, rhs_b, _), det_inv in zip(comps, systems, det_invs):
        g1, g2, g4, g5 = comp.coords()
        g0 = ((g5 * rhs_b) * xi - g1 * rhs_a).mul_small(2) * det_inv
        g3 = (g2 * rhs_b - g4 * rhs_a).mul_small(2) * det_inv
        fulls.append(ctx.full_from_w_coeffs([g0, g1, g2, g3, g4, g5]))
    return fulls


#: Minimum squaring-chain length for which the compressed form pays for its
#: decompression arithmetic; shorter chains use plain Granger-Scott squarings.
MIN_COMPRESSED_SQUARINGS = 4


def power_signed(ctx, value, digits, mode: str = "cyclotomic"):
    """``value ** m`` for a signed-digit representation of ``m >= 1``.

    ``digits`` is little-endian with entries in ``{-1, 0, 1}`` and a leading
    (top) digit of 1 -- the NAF chains cached on
    :class:`~repro.pairing.exponent.FinalExpPlan`.  Negative digits multiply
    by the conjugate (the free cyclotomic inverse).  ``mode`` selects the
    squaring backend: ``"cyclotomic"`` squares with
    :func:`cyclotomic_square`; ``"compressed"`` additionally runs long chains
    through Karabina compressed squarings with one batched decompression at
    the multiply positions (falling back to the Granger-Scott chain for short
    exponents or degenerate concrete inputs).
    """
    if not digits or digits[-1] != 1:
        raise FieldError("signed-digit chain must be non-empty with leading digit 1")
    if mode == "compressed" and len(digits) - 1 >= MIN_COMPRESSED_SQUARINGS:
        try:
            return _power_compressed(ctx, value, digits)
        except FieldError:
            pass                                   # zero determinant: GS fallback
    conjugated = None
    result = value
    for digit in reversed(digits[:-1]):
        result = cyclotomic_square(ctx, result)
        if digit == 1:
            result = result * value
        elif digit == -1:
            if conjugated is None:
                conjugated = value.conjugate()
            result = result * conjugated
    return result


def _power_compressed(ctx, value, digits):
    """Karabina chain: compressed squares, one batched decompression, product.

    ``value ** m = prod_i (value ** 2^i) ** d_i``: the whole squaring ladder
    runs in compressed form, only the positions with a non-zero digit are
    decompressed (sharing one inversion), and the decompressed powers are
    multiplied together -- conjugated where the digit is negative.
    """
    top = len(digits) - 1
    comp = compress(ctx, value)
    needed_positions = []
    needed_comps = []
    for position in range(1, top + 1):
        comp = compressed_square(ctx, comp)
        if digits[position]:
            needed_positions.append(position)
            needed_comps.append(comp)
    fulls = dict(zip(needed_positions, decompress_batch(ctx, needed_comps)))
    if digits[0]:
        fulls[0] = value
    result = None
    for position in sorted(fulls):
        factor = fulls[position]
        if digits[position] == -1:
            factor = factor.conjugate()
        result = factor if result is None else result * factor
    return result
