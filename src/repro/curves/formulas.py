"""Branch-free point-operation formulas in Jacobian coordinates (the paper's
PA/PD operator variants), ``(X, Y, Z)`` with ``x = X/Z^2``, ``y = Y/Z^3``.

They are the input of the scalar-multiplication kernels:
:meth:`repro.curves.model.EllipticCurve.multi_scalar_mul` compiles
:func:`jacobian_double`, :func:`jacobian_add_mixed` and :func:`jacobian_add`
once per (field, curve coefficient ``a``) with
:func:`repro.fields.kernels.build_formula_kernel` and runs its ladder on raw
residues.  The formulas hold on any short-Weierstrass curve but know no
exceptional case: a doubling answers ``Z = 0`` for a point of order two or the
point at infinity, an addition answers ``Z = 0`` whenever its operands share
an ``x`` (equal or opposite points) or one of them is at infinity, and it is
the caller that must look -- the ladder does, on settled values.  They operate
through the plain element interface, so they run on concrete field elements
and on the kernel generator's symbolic ones alike.
"""

from __future__ import annotations

from repro.errors import CurveError


def jacobian_double(point, a):
    """Point doubling on ``y^2 = x^3 + a x + b``; a constant ``a = 0`` folds
    its term away when the formula is compiled."""
    X, Y, Z = point
    A = X.square()
    B = Y.square()
    C = B.square()
    D = ((X + B).square() - A - C).double()
    E = A.triple() + Z.square().square() * a
    F = E.square()
    X3 = F - D.double()
    Y3 = E * (D - X3) - C.mul_small(8)
    Z3 = (Y * Z).double()
    return (X3, Y3, Z3)


def jacobian_add_mixed(point, affine):
    """Mixed addition: Jacobian ``point`` plus affine ``(x, y)`` (distinct points)."""
    X, Y, Z = point
    x2, y2 = affine
    Z2 = Z.square()
    U2 = x2 * Z2
    S2 = (y2 * Z) * Z2
    H = U2 - X
    R = S2 - Y
    H2 = H.square()
    H3 = H * H2
    V = X * H2
    X3 = R.square() - H3 - V.double()
    Y3 = R * (V - X3) - Y * H3
    Z3 = Z * H
    return (X3, Y3, Z3)


def jacobian_add(point, other):
    """General addition of two Jacobian points (distinct, neither at infinity)."""
    X1, Y1, Z1 = point
    X2, Y2, Z2 = other
    Z1Z1 = Z1.square()
    Z2Z2 = Z2.square()
    U1 = X1 * Z2Z2
    U2 = X2 * Z1Z1
    S1 = (Y1 * Z2) * Z2Z2
    S2 = (Y2 * Z1) * Z1Z1
    H = U2 - U1
    R = S2 - S1
    H2 = H.square()
    H3 = H * H2
    V = U1 * H2
    X3 = R.square() - H3 - V.double()
    Y3 = R * (V - X3) - S1 * H3
    Z3 = (Z1 * Z2) * H
    return (X3, Y3, Z3)


def jacobian_to_affine(point):
    X, Y, Z = point
    if Z.is_zero():
        raise CurveError("point at infinity has no affine form")
    z_inv = Z.inverse()
    z_inv2 = z_inv.square()
    return (X * z_inv2, Y * (z_inv2 * z_inv))


def affine_to_jacobian(affine):
    x, y = affine
    return (x, y, x.field.one())
