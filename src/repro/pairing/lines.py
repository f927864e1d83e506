"""Miller-loop step formulas (point update + line evaluation).

Points on the sextic twist are kept in Jacobian coordinates over F_p^{k/6}; the
line function is produced as six sparse coefficients over the twist field in the
``w``-power basis of F_p^k (three of them non-zero), following the standard
denominator-elimination argument: every dropped factor lies in a proper subfield
of F_p^k and is therefore killed by the final exponentiation.

All formulas are branch-free straight-line code over the element interface, so
they can be executed both on concrete field elements (golden pairing) and on the
compiler's tracing values (accelerator code generation).
"""

from __future__ import annotations

from repro.errors import PairingError


def jacobian_from_affine(point):
    """(x, y) -> (X, Y, Z) with Z = 1."""
    x, y = point
    one = x.field.one() if hasattr(x, "field") else None
    if one is None:
        raise PairingError("affine coordinates must be field elements")
    return (x, y, one)


def negate_affine(point):
    x, y = point
    return (x, -y)


def negate_jacobian(point):
    x, y, z = point
    return (x, -y, z)


def double_step(T, P):
    """Double ``T`` (Jacobian, twist curve) and evaluate the tangent line at ``P``.

    Returns ``(T2, (c_yp, c_xp, c_const))``: the three non-zero twist-field
    coefficients of the line, which :func:`place_line` puts into the ``w``-power
    basis.  The line depends on ``P`` only through the two scalings, so the
    step evaluated at the unit point ``(1, 1)`` yields the P-independent
    coefficients a fixed-Q precomputation stores
    (:func:`repro.pairing.batch.precompute_g2`).
    """
    X, Y, Z = T
    x_p, y_p = P

    A = X.square()                     # X^2
    B = Y.square()                     # Y^2
    C = B.square()                     # Y^4
    Z2 = Z.square()
    D = ((X + B).square() - A - C).double()     # 4 X Y^2
    E = A.triple()                     # 3 X^2
    F = E.square()
    X3 = F - D.double()
    Y3 = E * (D - X3) - C.mul_small(8)
    Z3 = (Y * Z).double()

    # Tangent line at the old T, evaluated at P and scaled by Z^6 (killed factor).
    Z3cube = Z2 * Z                    # Z^3
    c_yp = (Y * Z3cube).double() * y_p       # 2 Y Z^3 * yP
    c_xp = -((E * Z2) * x_p)                 # -3 X^2 Z^2 * xP
    c_const = E * X - B.double()             # 3 X^3 - 2 Y^2
    return (X3, Y3, Z3), (c_yp, c_xp, c_const)


def add_step(T, Q, P):
    """Mixed addition ``T + Q`` (Q affine on the twist) with line evaluation at ``P``.

    Returns ``(T3, (c_yp, c_xp, c_const))`` like :func:`double_step`.
    """
    X, Y, Z = T
    x_q, y_q = Q
    x_p, y_p = P

    Z2 = Z.square()
    U2 = x_q * Z2                      # x_Q Z^2
    S2 = (y_q * Z) * Z2                # y_Q Z^3
    H = U2 - X
    theta = S2 - Y
    H2 = H.square()
    H3 = H * H2
    V = X * H2
    X3 = theta.square() - H3 - V.double()
    Y3 = theta * (V - X3) - Y * H3
    Z3 = Z * H

    HZ = H * Z
    c_yp = HZ * y_p                    # (scaled) (x_T - x_Q) * yP term
    c_xp = -(theta * x_p)              # (scaled) -(y_T - y_Q) * xP term
    c_const = theta * x_q - HZ * y_q
    return (X3, Y3, Z3), (c_yp, c_xp, c_const)


def place_line(twist_type: str, kind: str, c_yp, c_xp, c_const) -> list:
    """Place the coefficients of a step's line into the 6-slot ``w``-power basis.

    The one statement of the slot layout (``None`` marks a structural zero).
    ``kind`` is ``"dbl"`` or ``"add"``: the M-type twist uses different slots
    for the two step kinds, the D-type twist the same.
    """
    line = [None] * 6
    if twist_type == "D":
        line[0] = c_yp
        line[1] = c_xp
        line[3] = c_const
    elif kind == "dbl":
        line[0] = c_const
        line[2] = c_xp
        line[3] = c_yp
    else:
        line[1] = c_const
        line[3] = c_xp
        line[4] = c_yp
    return line


def twist_point_frobenius(ctx, Q, n: int):
    """Apply ``psi^-1 o pi_p^n o psi`` to an affine twist point.

    Used by the two Frobenius-twisted additions that terminate the BN Miller loop
    (Algorithm 1, lines 11-14).
    """
    x_q, y_q = Q
    c_x, c_y = ctx.twist_frobenius_constants(n)
    return (x_q.frobenius(n) * c_x, y_q.frobenius(n) * c_y)
