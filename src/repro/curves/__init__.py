"""Pairing-friendly curves: families, parameter search, catalog, groups (the
complete affine law and one ladder, ``EllipticCurve.multi_scalar_mul``, whose
one-term call is ``AffinePoint.scalar_mul``)."""

from repro.curves.catalog import PAPER_CURVES, PairingCurve, get_curve, list_curves
from repro.curves.families import (
    BLS12_FAMILY,
    BLS24_FAMILY,
    BN_FAMILY,
    CurveFamily,
    FamilyParams,
    get_family,
)
from repro.curves.model import AffinePoint, EllipticCurve
from repro.curves.security import estimate_security_bits

__all__ = [
    "CurveFamily",
    "FamilyParams",
    "BN_FAMILY",
    "BLS12_FAMILY",
    "BLS24_FAMILY",
    "get_family",
    "EllipticCurve",
    "AffinePoint",
    "PairingCurve",
    "PAPER_CURVES",
    "get_curve",
    "list_curves",
    "estimate_security_bits",
]
