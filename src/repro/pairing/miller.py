"""The Miller loop of the optimal Ate pairing (Algorithm 1 of the paper)."""

from __future__ import annotations

from repro.errors import PairingError
from repro.pairing.exponent import signed_digits
from repro.pairing.lines import (
    add_step,
    double_step,
    jacobian_from_affine,
    negate_affine,
    negate_jacobian,
    place_line,
    twist_point_frobenius,
)


def non_adjacent_form(value: int) -> list:
    """Signed-digit NAF representation (little-endian digits in {-1, 0, 1}).

    Delegates to the one NAF recoder of the package
    (:func:`repro.pairing.exponent.signed_digits`), keeping the loop-scalar
    digits and the final-exponentiation seed chains from ever diverging.
    """
    if value < 0:
        raise PairingError("NAF is computed on the absolute loop scalar")
    if value == 0:
        return []
    return list(signed_digits(value))


def binary_digits(value: int) -> list:
    """Plain little-endian binary digits."""
    if value < 0:
        raise PairingError("digits are computed on the absolute loop scalar")
    return [int(b) for b in reversed(bin(value)[2:])]


def loop_schedule(ctx, use_naf: bool = True) -> list:
    """The steps of the Miller loop, in order, as ``(kind, addend)`` records.

    ``("dbl", None)`` doubles every ``T``; ``("add", a)`` adds ``a``: the digit
    ``+1`` / ``-1`` for ``Q`` / ``-Q``, or ``"pi1"`` / ``"pi2"`` for the two
    Frobenius-twisted points that terminate the BN loop (Algorithm 1, lines
    11-14); ``("neg", None)`` is the sign step of a negative loop scalar.  The
    schedule is fixed by the curve alone, which is why any number of pairs can
    walk it in lock step and a fixed ``Q`` can walk it ahead of time.
    """
    scalar = ctx.loop_scalar
    if scalar == 0:
        raise PairingError("degenerate Miller loop scalar")
    magnitude = abs(scalar)
    digits = non_adjacent_form(magnitude) if use_naf else binary_digits(magnitude)
    if digits[-1] != 1:
        raise PairingError("loop scalar representation must start with digit 1")
    schedule = []
    for digit in reversed(digits[:-1]):
        schedule.append(("dbl", None))
        if digit:
            schedule.append(("add", digit))
    if scalar < 0:
        schedule.append(("neg", None))
    if ctx.family == "BN":
        schedule += [("add", "pi1"), ("add", "pi2")]
    return schedule


def require_coordinates_in(field, point, role: str) -> None:
    """Wrong-field points fail here, not as a ``FieldError`` inside the first step."""
    for coordinate in point:
        if coordinate.field != field:
            raise PairingError(
                f"{role} must have coordinates in {field!r}, got one in {coordinate.field!r}")


class LivePair:
    """One ``(P, Q)`` pair stepping along the schedule: it owns the running
    ``T`` and answers each step with that step's line coefficients at ``P``.

    Written against the generic element interface, so it runs on concrete field
    elements (the golden pairing) and on the compiler's
    :class:`~repro.ir.builder.TraceElement` values (the accelerator kernels).
    ``label`` prefixes the roles in error messages (``"pairs[3]."``).
    """

    def __init__(self, ctx, P, Q, label: str = ""):
        require_coordinates_in(ctx.curve.tower.fp, P, f"{label}P (G1 point)")
        require_coordinates_in(ctx.curve.tower.twist_field, Q, f"{label}Q (G2 point)")
        self._ctx = ctx
        self._p = P
        self._addends = {1: Q, -1: negate_affine(Q)}
        self._t = jacobian_from_affine(Q)

    def step(self, kind: str, addend):
        if kind == "dbl":
            self._t, coeffs = self._ctx.run_formula(double_step, self._t, self._p)
            return coeffs
        if addend not in self._addends:
            # The BN tail: both Frobenius points, before the first tail addition.
            q = self._addends[1]
            self._addends["pi1"] = twist_point_frobenius(self._ctx, q, 1)
            self._addends["pi2"] = negate_affine(twist_point_frobenius(self._ctx, q, 2))
        self._t, coeffs = self._ctx.run_formula(
            add_step, self._t, self._addends[addend], self._p)
        return coeffs

    def negate(self):
        self._t = negate_jacobian(self._t)

    def finish(self):
        """A live source has no replay stream to reconcile."""


def times_line(ctx, kind: str, f, c_yp, c_xp, c_const, x_p=None, y_p=None):
    """``f`` times the line of one step, placed in the ``w``-power basis.

    A replayed line (:func:`repro.pairing.batch.precompute_g2`) arrives at the
    unit point, with the coordinates of ``P`` it is still to be evaluated at.
    Compiled, the product knows the line's zero slots: one kernel per twist
    type and step kind.
    """
    if x_p is not None:
        c_yp, c_xp = c_yp * y_p, c_xp * x_p
    return f * ctx.full_from_w_coeffs(place_line(ctx.twist_type, kind, c_yp, c_xp, c_const))


def miller_walk(ctx, sources, use_naf: bool = True):
    """The Miller loop, once: fold the lines of ``sources`` into one accumulator.

    ``F <- F^2 * Pi_i line_i`` per doubling -- the accumulator squaring, the
    sign conjugation and the BN Frobenius tail are shared, each source only
    contributes its line coefficients (``step`` / ``negate`` / ``finish``).
    The order within a step is the single-pairing kernel's, the one every
    pinned digest records: every source steps, then the shared squaring, then
    each line is packed and multiplied in; the sign step conjugates before the
    sources negate ``T``.  Returns an element of F_p^k that still needs the
    final exponentiation.
    """
    f = ctx.full_one()
    for kind, addend in loop_schedule(ctx, use_naf):
        if kind == "neg":
            # f_{-|s|} ~ 1 / f_{|s|} up to factors killed by the final exponentiation;
            # the cheap unitary inverse (conjugation) realises it -- once, since
            # Pi conj(f_i) = conj(Pi f_i) -- and every T becomes -[|s|]Q.
            f = f.conjugate()
            for source in sources:
                source.negate()
            continue
        lines = [source.step(kind, addend) for source in sources]
        if kind == "dbl":
            f = f.square()
        for line in lines:
            f = ctx.run_formula(times_line, ctx, kind, f, *line)
    for source in sources:
        source.finish()
    return f


def miller_loop(ctx, P, Q, use_naf: bool = True):
    """Evaluate the Miller function ``f_{lambda, Q}(P)`` for the optimal Ate pairing.

    ``P`` is an affine pair of F_p elements (a G1 point), ``Q`` an affine pair of
    twist-field elements (a G2 point on the sextic twist): the walk over one
    live source.
    """
    return miller_walk(ctx, [LivePair(ctx, P, Q)], use_naf)
