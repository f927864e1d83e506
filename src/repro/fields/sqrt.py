"""Square roots in arbitrary finite fields (Tonelli-Shanks over F_q, q = p^d).

Needed to hash to / sample points on twisted curves whose coordinates live in
extension fields (the paper's G2 groups over F_p2 and F_p4).
"""

from __future__ import annotations

import random

from repro.errors import FieldError


def is_field_square(element) -> bool:
    """Return ``True`` if ``element`` is a square in its (odd-order) field."""
    if element.is_zero():
        return True
    q = element.field.order()
    return (element ** ((q - 1) // 2)).is_one()


def _find_nonsquare(field):
    rng = random.Random(0x5157)
    for _ in range(256):
        candidate = field.random(rng)
        if candidate.is_zero():
            continue
        if not is_field_square(candidate):
            return candidate
    raise FieldError("could not find a non-square element (is the field order odd?)")


def field_sqrt(element):
    """Return a square root of ``element`` in its field, or raise ``FieldError``.

    Implements Tonelli-Shanks over the multiplicative group of order ``q - 1``;
    the non-square it needs is drawn from a fixed-seed generator, so the root
    returned is reproducible.
    """
    field = element.field
    if element.is_zero():
        return element
    q = field.order()
    if not is_field_square(element):
        raise FieldError("element is not a square in its field")
    if q % 4 == 3:
        return element ** ((q + 1) // 4)

    s = 0
    t = q - 1
    while t % 2 == 0:
        t //= 2
        s += 1
    z = _find_nonsquare(field)
    m = s
    c = z ** t
    u = element ** t
    r = element ** ((t + 1) // 2)
    one = field.one()
    while not u.is_one():
        i = 0
        u2 = u
        while not u2.is_one():
            u2 = u2.square()
            i += 1
            if i == m:
                raise FieldError("field_sqrt internal failure")
        b = c ** (1 << (m - i - 1))
        m = i
        c = b.square()
        u = u * c
        r = r * b
    if not (r * r == element or (r * r) == element):
        raise FieldError("field_sqrt produced an invalid root")
    _ = one
    return r
