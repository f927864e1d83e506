"""Public entry point for the optimal Ate pairing."""

from __future__ import annotations

from repro.errors import PairingError
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import final_exponentiation, validate_final_exp_mode
from repro.pairing.miller import miller_loop
from repro.pairing.reference import reference_pairing


def as_affine_pair(point, role: str = "point"):
    """Accept an (x, y) tuple or an AffinePoint-like object; ``None`` = infinity.

    Malformed tuples (wrong arity, non-field entries) raise :class:`PairingError`
    here instead of failing with an opaque ``ValueError`` deep inside the Miller
    loop.
    """
    if isinstance(point, (tuple, list)):
        if len(point) != 2:
            raise PairingError(
                f"{role} must be a pair of affine coordinates, got {len(point)} entries"
            )
        x, y = point
        if not (hasattr(x, "field") and hasattr(y, "field")):
            raise PairingError(f"{role} coordinates must be field elements")
        return (x, y)
    if getattr(point, "is_infinity", None) is not None and point.is_infinity():
        return None
    if not (hasattr(point, "x") and hasattr(point, "y")):
        raise PairingError(f"{role} must be an affine point or an (x, y) tuple")
    return (point.x, point.y)


def optimal_ate_pairing(curve, P, Q, mode: str = "optimized",
                        final_exp_mode: str = "compressed"):
    """Compute the optimal Ate pairing e(P, Q) on ``curve``.

    Parameters
    ----------
    curve:
        A :class:`repro.curves.catalog.PairingCurve`.
    P:
        G1 point: affine point of E(F_p) (AffinePoint or (x, y) tuple).
    Q:
        G2 point: affine point of the sextic twist E'(F_p^{k/6}).
    mode:
        ``"optimized"`` runs the twist-aware Miller loop and the decomposed final
        exponentiation (the algorithm the accelerator executes); ``"reference"``
        runs the naive textbook oracle.  The optimised result equals the
        reference result raised to ``final_exp_plan.c``.  The optimised
        Miller loop walks the NAF form of the loop scalar.
    final_exp_mode:
        Hard-part backend (:data:`repro.pairing.final_exp.FINAL_EXP_MODES`).
        All three return the same value.  The default "compressed" runs the
        long squaring runs of the hard part as Karabina compressed squarings
        (decompressed in one batch per chain, falling back to Granger-Scott
        squarings on a zero determinant); "cyclotomic" squares with
        Granger-Scott throughout; "generic" is plain square-and-multiply.
    """
    # Knobs first: a typo must not hide behind the point-at-infinity early return.
    if mode not in ("optimized", "reference"):
        raise PairingError(f"unknown pairing mode {mode!r}")
    validate_final_exp_mode(final_exp_mode)
    P_affine = as_affine_pair(P, role="P (G1 point)")
    Q_affine = as_affine_pair(Q, role="Q (G2 point)")
    if P_affine is None or Q_affine is None:
        return curve.tower.full_field.one()

    if mode == "reference":
        return reference_pairing(curve, P_affine, Q_affine)
    ctx = ConcretePairingContext(curve)
    f = miller_loop(ctx, P_affine, Q_affine)
    return final_exponentiation(ctx, f, mode=final_exp_mode)
