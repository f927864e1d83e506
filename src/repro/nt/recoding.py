"""Signed-digit recoding of exponents and scalars: the package's one recoder."""

from __future__ import annotations


def signed_windows(value: int, width: int = 2) -> list:
    """The width-``width`` non-adjacent form of ``value >= 0``: little-endian
    digits, each zero or odd with ``|digit| < 2**(width - 1)``, at most one of
    any ``width`` consecutive ones non-zero.  ``width = 2`` is the plain NAF
    (digits in {-1, 0, 1}), of minimal weight among signed-binary forms."""
    digits = []
    while value:
        digit = 0
        if value & 1:
            digit = value & ((1 << width) - 1)
            if digit >> (width - 1):
                digit -= 1 << width
            value -= digit
        digits.append(digit)
        value >>= 1
    return digits
