"""Construction of pairing towers F_p -> F_p^{k/6} -> F_p^{k/2...} -> F_p^k.

The construction is fully generic: quadratic/cubic non-residues are searched
automatically, so new curves (new primes, new embedding degrees along the
division lattice of 24) can be ported without manual work -- this is the
"versatile abstraction ... across various curve families" requirement of the
paper, and the basis of the agility demo in ``examples/new_curve_porting.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FieldError
from repro.fields.extension import ExtElement, ExtensionField, embed
from repro.fields.fp import PrimeField


def is_square(element) -> bool:
    """Generic quadratic-residue test via exponentiation by (q-1)/2."""
    if element.is_zero():
        return True
    q = element.field.order()
    return (element ** ((q - 1) // 2)).is_one()


def is_cube(element) -> bool:
    """Generic cubic-residue test (requires q = 1 mod 3)."""
    if element.is_zero():
        return True
    q = element.field.order()
    if (q - 1) % 3 != 0:
        # Every element is a cube when gcd(3, q-1) = 1.
        return True
    return (element ** ((q - 1) // 3)).is_one()


def find_quadratic_nonresidue(field):
    """Find a small quadratic non-residue in ``field``.

    Small integer candidates are tried first so the resulting tower matches common
    conventions (e.g. F_p2 = F_p[i]/(i^2 + 1) when p = 3 mod 4); elements from a
    fixed-seed generator are the fallback.
    """
    for candidate in (-1, -2, -3, -5, 2, 3, 5, 7, 11, 13, 17):
        element = field(candidate)
        if not element.is_zero() and not is_square(element):
            return element
    rng = random.Random(0xACE)
    for _ in range(256):
        element = field.random(rng)
        if not element.is_zero() and not is_square(element):
            return element
    raise FieldError("no quadratic non-residue found")


def find_sextic_twist_residue(field):
    """Find xi in ``field`` that is neither a square nor a cube.

    Such a xi makes ``x^6 - xi`` irreducible over ``field`` (for the pairing-friendly
    primes we use, where 6 divides q - 1), and therefore defines both the degree-6
    extension F_p^k / F_p^{k/6} and the sextic twist.  Small candidates come
    first, then elements from a fixed-seed generator.
    """
    candidates = []
    if isinstance(field, ExtensionField):
        u = field.gen()
        one = field.one()
        for a in (1, 2, 3, 4, 5, -1, -2, -3):
            for b in (1, 2, 3, -1, -2):
                candidates.append(u.mul_small(b) + one.mul_small(a))
        candidates.append(u)
        candidates.append(u + u)
    else:
        for a in (2, 3, 5, 7, -1, -2, -3, 11, 13):
            candidates.append(field(a))
    for xi in candidates:
        if xi.is_zero():
            continue
        if not is_square(xi) and not is_cube(xi):
            return xi
    rng = random.Random(0xBEEF)
    for _ in range(512):
        xi = field.random(rng)
        if xi.is_zero():
            continue
        if not is_square(xi) and not is_cube(xi):
            return xi
    raise FieldError("no sextic non-residue found")


def build_extension(base, m: int, xi=None, name: str | None = None, check: bool = True):
    """Build ``base[t]/(t^m - xi)``, searching for a valid ``xi`` when not given."""
    if xi is None:
        if m == 2:
            xi = find_quadratic_nonresidue(base)
        else:
            xi = find_sextic_twist_residue(base)
    else:
        xi = base(xi) if not hasattr(xi, "field") else xi
    if check:
        if m == 2 and is_square(xi):
            raise FieldError("xi is a square; t^2 - xi is reducible")
        if m == 3 and is_cube(xi):
            raise FieldError("xi is a cube; t^3 - xi is reducible")
    return ExtensionField(base, m, xi, name=name)


#: The w-power storage layout, stated once: an F_p^k element ``sum_i c_i w^i``
#: (``c_i`` in F_p^{k/6}) is held as ``(c0 + c2 v + c4 v^2) + (c1 + c3 v +
#: c5 v^2) w`` with ``v = w^2``, so storage slot ``s`` (a block of ``k/6``
#: residues of the flat tuple) is the coefficient of ``w^W_STORAGE_ORDER[s]``.
W_STORAGE_ORDER = (0, 2, 4, 1, 3, 5)


def from_w_coeffs(full_field, coeffs) -> ExtElement:
    """The F_p^k element with the six twist-field coefficients ``coeffs``
    (w-power basis, index 0..5; ``None`` is a zero coefficient)."""
    twist = full_field.base.base
    zero = twist.zero().flat
    flat: tuple = ()
    for index in W_STORAGE_ORDER:
        coeff = coeffs[index]
        if coeff is None:
            flat += zero
        elif coeff.field is twist or coeff.field == twist:
            flat += coeff.flat
        else:
            raise FieldError(f"w-power coefficients of {full_field.name} must lie in {twist.name}")
    return ExtElement(full_field, flat)


def w_coeffs(value) -> list:
    """The six twist-field coefficients of an F_p^k element (w-power basis,
    index 0..5): the inverse of :func:`from_w_coeffs`, pure slicing."""
    twist, flat = value.field.base.base, value.flat
    chunk = twist.degree
    coeffs: list = [None] * 6
    for slot, index in enumerate(W_STORAGE_ORDER):
        coeffs[index] = ExtElement(twist, flat[slot * chunk:(slot + 1) * chunk])
    return coeffs


@dataclass(frozen=True)
class PairingTower:
    """All the tower levels a pairing over embedding degree ``k`` needs.

    Attributes
    ----------
    fp:
        The base prime field F_p.
    twist_field:
        F_p^{k/6}, the field of definition of the sextic twist (G2 coordinates).
    full_field:
        F_p^k, the target group's field (G_T lives in its cyclotomic subgroup).
    twist_xi:
        The sextic non-residue in ``twist_field`` defining both the degree-6
        extension and the twist equation.
    w:
        An element of ``full_field`` with ``w^6 = twist_xi`` (used by the
        untwisting isomorphism E'(F_p^{k/6}) -> E(F_p^k)).
    levels:
        Every tower level keyed by absolute degree (1, 2, ..., k).
    """

    fp: PrimeField
    twist_field: object
    full_field: ExtensionField
    twist_xi: object
    w: ExtElement
    levels: dict

    @property
    def k(self) -> int:
        return self.full_field.degree

    @property
    def fp_backend(self) -> str:
        """Name of the F_p arithmetic backend every tower level runs on."""
        return self.fp.backend

    def level(self, degree: int):
        try:
            return self.levels[degree]
        except KeyError as exc:
            raise FieldError(f"tower has no level of degree {degree}") from exc

    def embed_to_full(self, element) -> ExtElement:
        """Embed an element of any tower level into F_p^k."""
        if element.field == self.full_field:
            return element
        return embed(element, self.full_field)


def build_pairing_tower(p: int, k: int, fp_backend: str | None = None) -> PairingTower:
    """Build the tower for embedding degree ``k`` in {12, 24} (BN/BLS12 and BLS24).

    Layout (bottom to top):

    * ``k = 12``: F_p -> F_p2 (quadratic) -> F_p6 (cubic, xi) -> F_p12 (quadratic, v)
    * ``k = 24``: F_p -> F_p2 -> F_p4 (quadratic) -> F_p12 (cubic, xi) -> F_p24 (quadratic, v)

    In both cases the generator ``w`` of the top step satisfies ``w^2 = v`` and
    ``v^3 = xi``, hence ``w^6 = xi`` as required by the sextic untwist.

    ``fp_backend`` selects the F_p arithmetic backend for the whole tower
    (every level bottoms out in the same :class:`PrimeField`); ``None`` means
    the process default.
    """
    if k not in (12, 24):
        raise FieldError(f"unsupported embedding degree {k} (supported: 12, 24)")
    fp = PrimeField(p, backend=fp_backend)
    levels: dict = {1: fp}

    fp2 = build_extension(fp, 2, name="F_p2")
    levels[2] = fp2
    if k == 12:
        twist_field = fp2
    else:
        fp4 = build_extension(fp2, 2, name="F_p4")
        levels[4] = fp4
        twist_field = fp4

    twist_xi = find_sextic_twist_residue(twist_field)
    mid = build_extension(twist_field, 3, xi=twist_xi, name=f"F_p{twist_field.degree * 3}")
    levels[mid.degree] = mid
    top = build_extension(mid, 2, xi=mid.gen(), name=f"F_p{mid.degree * 2}", check=False)
    levels[top.degree] = top

    # Validate the final quadratic step explicitly: v must be a non-square in mid.
    if is_square(mid.gen()):
        raise FieldError("tower construction failed: v is a square in the cubic level")

    w = top.gen()
    return PairingTower(
        fp=fp,
        twist_field=twist_field,
        full_field=top,
        twist_xi=twist_xi,
        w=w,
        levels=levels,
    )
