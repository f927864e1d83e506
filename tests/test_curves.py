"""Curve families, parameter search, point arithmetic, catalog construction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.catalog import CURVE_SPECS, PAPER_CURVES, get_curve, list_curves
from repro.curves.families import BLS12_FAMILY, BLS24_FAMILY, BN_FAMILY, get_family
from repro.curves.formulas import (
    affine_to_jacobian,
    jacobian_add,
    jacobian_add_mixed,
    jacobian_double,
    jacobian_to_affine,
)
from repro.curves.model import WINDOW, EllipticCurve
from repro.curves.orders import cm_y, curve_order, frobenius_trace, sextic_twist_orders
from repro.curves.search import find_seed
from repro.curves.security import estimate_security_bits
from repro.errors import CurveError
from repro.fields.fp import PrimeField
from repro.nt.recoding import signed_windows


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,u", [
    (BN_FAMILY, 543),
    (BN_FAMILY, -(2**62 + 2**55 + 1)),
    (BLS12_FAMILY, 559),
    (BLS24_FAMILY, 259),
])
def test_family_instantiation(family, u):
    params = family.instantiate(u)
    assert (params.p + 1 - params.t) % params.r == 0
    assert params.p % 3 == 1
    assert params.cofactor_g1 >= 1


@pytest.mark.parametrize("family", [BN_FAMILY, BLS12_FAMILY, BLS24_FAMILY])
def test_polynomial_coefficients_match_evaluation(family):
    for u in (7, 13, 101, -20, 1000003):
        if not family.seed_constraint(u):
            continue
        try:
            p = family.p_poly(u)
            r = family.r_poly(u)
        except CurveError:
            continue
        p_from_coeffs = sum(c * u**i for i, c in enumerate(family.p_coeffs))
        r_from_coeffs = sum(c * u**i for i, c in enumerate(family.r_coeffs))
        assert p_from_coeffs == family.poly_denominator * p
        assert r_from_coeffs == r


def test_family_rejects_bad_seed():
    with pytest.raises(CurveError):
        BLS12_FAMILY.instantiate(560)   # not 1 mod 3
    with pytest.raises(CurveError):
        BN_FAMILY.instantiate(0)
    with pytest.raises(CurveError):
        BN_FAMILY.instantiate(544)      # p or r not prime for this seed


def test_get_family():
    assert get_family("bn") is BN_FAMILY
    assert get_family("BLS24") is BLS24_FAMILY
    with pytest.raises(CurveError):
        get_family("MNT4")


def test_seed_search_small():
    candidate = find_seed(BN_FAMILY, 10, max_terms=4)
    assert BN_FAMILY.is_valid_seed(candidate.u)
    assert "2^" in candidate.describe()


def test_seed_search_failure_counts_the_candidates_tried():
    # Every sparse seed of top bit 4 or 3 is tried; none gives a BLS12 curve.
    with pytest.raises(CurveError, match=r"among the 184 candidates tried"):
        find_seed(get_family("BLS12"), 4)


# ---------------------------------------------------------------------------
# Orders / CM machinery
# ---------------------------------------------------------------------------

def test_trace_recurrence_and_orders(toy_bn):
    p, t = toy_bn.params.p, toy_bn.params.t
    assert frobenius_trace(t, p, 1) == t
    assert frobenius_trace(t, p, 2) == t * t - 2 * p
    assert curve_order(p, t, 1) == p + 1 - t
    y = cm_y(p, t, 1)
    assert t * t - 4 * p == -3 * y * y
    orders = sextic_twist_orders(p, t, 2)
    assert any(order % toy_bn.params.r == 0 for order in orders)


# ---------------------------------------------------------------------------
# Point arithmetic
# ---------------------------------------------------------------------------

def test_affine_group_law(toy_bn, rng):
    curve = toy_bn.curve
    P = curve.random_point(rng)
    Q = curve.random_point(rng)
    R = curve.random_point(rng)
    assert (P + Q) + R == P + (Q + R)
    assert P + Q == Q + P
    assert P + curve.infinity() == P
    assert (P - P).is_infinity()
    assert (P.double()) == P + P
    assert P.scalar_mul(5) == P + P + P + P + P
    assert P.scalar_mul(-2) == -(P + P)
    assert P.scalar_mul(0).is_infinity()


def test_point_validation(toy_bn, rng):
    curve = toy_bn.curve
    P = curve.random_point(rng)
    bogus_y = P.y + curve.field(1)
    if bogus_y.square() != P.x * P.x.square() + curve.a * P.x + curve.b:
        with pytest.raises(CurveError):
            curve.point(P.x, bogus_y)
    assert curve.point(P.x, P.y) == P


def test_lift_x_roundtrip(toy_bn, rng):
    curve = toy_bn.curve
    P = curve.random_point(rng)
    lifted = curve.lift_x(P.x)
    assert lifted is not None
    assert lifted.x == P.x
    assert lifted in (P, -P)


@pytest.mark.parametrize("system", ["jacobian"])     # the one coordinate system left (1.18.0)
def test_formulas_match_affine(toy_bn, rng, system):
    curve = toy_bn.twist_curve
    P = curve.random_point(rng)
    Q = curve.random_point(rng)
    to, fro = affine_to_jacobian, jacobian_to_affine
    assert fro(jacobian_double(to((P.x, P.y)), curve.a)) == (P.double().x, P.double().y)
    expected = P + Q
    assert fro(jacobian_add_mixed(to((P.x, P.y)), (Q.x, Q.y))) == (expected.x, expected.y)
    # The general addition, on operands that are not in affine form.
    twice = jacobian_double(to((Q.x, Q.y)), curve.a)
    expected = P.double() + Q.double()
    assert fro(jacobian_add(jacobian_double(to((P.x, P.y)), curve.a), twice)) == (
        expected.x, expected.y)


# ---------------------------------------------------------------------------
# Scalar multiplication: the Jacobian window ladder against the affine loop
# ---------------------------------------------------------------------------

def affine_scalar_mul(point, scalar: int):
    """Double-and-add over the complete affine law: ``scalar_mul`` until PR 21."""
    if scalar < 0:
        return affine_scalar_mul(-point, -scalar)
    result, addend = point.curve.infinity(), point
    while scalar:
        if scalar & 1:
            result = result + addend
        addend = addend.double()
        scalar >>= 1
    return result


@pytest.mark.parametrize("group", ["g1", "g2"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_scalar_mul_matches_the_affine_loop(toy_curve, group, data):
    generator = getattr(toy_curve, f"{group}_generator")
    r = toy_curve.r
    scalar = data.draw(st.integers(-2 * r, 2 * r))
    assert generator.scalar_mul(scalar) == affine_scalar_mul(generator, scalar)
    # Any point of the subgroup, not the generator alone.
    point = affine_scalar_mul(generator, data.draw(st.integers(1, r - 1)))
    assert point.scalar_mul(scalar) == affine_scalar_mul(point, scalar)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_scalar_mul_named_cases(toy_curve, group):
    generator = getattr(toy_curve, f"{group}_generator")
    r = toy_curve.r
    edges = {0, 1, -1, r, r - 1, r + 1, -r, 2 * r, 2 * r - 1, 2 * r + 1}
    for bits in range(1, 2 * WINDOW + 3):                 # around every window boundary
        edges |= {(1 << bits) - 1, 1 << bits, (1 << bits) + 1, r - (1 << bits), r + (1 << bits)}
    for scalar in sorted(edges):
        assert generator.scalar_mul(scalar) == affine_scalar_mul(generator, scalar), scalar
        assert generator.scalar_mul(-scalar) == affine_scalar_mul(generator, -scalar), -scalar
    assert generator.scalar_mul(r).is_infinity() and generator.scalar_mul(0).is_infinity()
    infinity = generator.curve.infinity()
    assert infinity.scalar_mul(5).is_infinity() and infinity.scalar_mul(-r).is_infinity()
    assert generator * 3 == 3 * generator == generator + generator + generator


def test_signed_windows_recode_the_scalar():
    assert signed_windows(0, 4) == [] and signed_windows(7, 2) == [-1, 0, 0, 1]
    for width in (2, 3, 4, 5):
        for scalar in list(range(1, 600)) + [2**61 - 1, 2**64 + 12345]:
            digits = signed_windows(scalar, width)
            assert sum(digit << i for i, digit in enumerate(digits)) == scalar
            assert all(digit == 0 or (digit % 2 and abs(digit) < 1 << (width - 1))
                       for digit in digits)
            for i, digit in enumerate(digits):
                if digit:
                    assert not any(digits[i + 1:i + width])


def test_scalar_mul_on_every_small_order_point(toy_bls12):
    """E(F_p) of TOY-BLS12-54 has cofactor 103 788 = 2^2 * 3^3 * 31^2: points
    of order 2, 3, 6, 9 and 18 exist (the 2-part is Z2 x Z2, so none of order
    4), and their tables of odd multiples collide or pass through infinity."""
    curve, rng = toy_bls12.curve, random.Random(0x0DD)
    order = toy_bls12.cofactor_g1 * toy_bls12.r
    assert toy_bls12.cofactor_g1 == 103788 == 2**2 * 3**3 * 31**2
    found: dict = {}
    for _ in range(40):
        # Clear everything but the 2- and 3-parts, then walk the multiples.
        small = affine_scalar_mul(curve.random_point(rng), order // 108)
        multiples = [small]
        while not multiples[-1].is_infinity():
            multiples.append(multiples[-1] + small)
        n = len(multiples)                                 # the order of ``small``
        for j, multiple in enumerate(multiples[:-1], start=1):
            found.setdefault(n // math.gcd(n, j), set()).add(multiple)
    assert set(found) == {2, 3, 6, 9, 18}
    assert len(found[2]) == 3                              # the whole 2-torsion: Z2 x Z2
    for points in found.values():
        for point in points:
            for scalar in range(-40, 41):
                assert point.scalar_mul(scalar) == affine_scalar_mul(point, scalar), scalar
            assert point.scalar_mul(order + 1) == point


def test_scalar_mul_on_a_curve_with_a_nonzero_a():
    """``y^2 = x^3 + 5 x + 7`` over F_67, a cyclic group of order 70 = 2 * 5 * 7,
    exhaustively: every point (orders 1, 2, 5, 7, ... 70) times every scalar of
    a period and a window either way."""
    p = 67
    curve = EllipticCurve(PrimeField(p), 5, 7)
    points = [curve.infinity()] + [
        curve.point(x, y) for x in range(p) for y in range(p)
        if (y * y - (x**3 + 5 * x + 7)) % p == 0]
    order = len(points)
    assert order == 70 and not curve.a.is_zero()
    for point in points:
        for scalar in range(-order - 2**WINDOW, order + 2**WINDOW + 1):
            assert point.scalar_mul(scalar) == affine_scalar_mul(point, scalar), (point, scalar)
    assert sum(1 for point in points if point.scalar_mul(2).is_infinity()) == 2


@pytest.mark.parametrize("scalar", [2.7, Fraction(3, 1), "3", None, 3 + 0j])
def test_scalar_must_be_an_integer(toy_bn, scalar):
    point = toy_bn.g1_generator
    with pytest.raises(CurveError, match=type(scalar).__name__):
        point.scalar_mul(scalar)
    with pytest.raises(CurveError):
        point * scalar
    with pytest.raises(CurveError):
        scalar * point


def test_integer_like_scalars_are_accepted(toy_bn):
    class Index:
        def __index__(self):
            return 5

    point = toy_bn.g1_generator
    assert point.scalar_mul(Index()) == point.scalar_mul(5)
    assert point.scalar_mul(True) == point and point.scalar_mul(False).is_infinity()


# ---------------------------------------------------------------------------
# Multi-scalar multiplication: the interleaved walk of the same ladder against
# the sum of its one-term walks' reference, the affine loop
# ---------------------------------------------------------------------------

def affine_multi_scalar_mul(curve, points, scalars):
    total = curve.infinity()
    for point, scalar in zip(points, scalars):
        total = total + affine_scalar_mul(point, scalar)
    return total


@pytest.mark.parametrize("group", ["g1", "g2"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_multi_scalar_mul_matches_the_sum_of_affine_loops(toy_curve, group, data):
    generator = getattr(toy_curve, f"{group}_generator")
    curve, r = generator.curve, toy_curve.r
    scalars = data.draw(st.lists(st.integers(-2 * r, 2 * r), max_size=6))
    points = [affine_scalar_mul(generator, data.draw(st.integers(0, r - 1)))   # 0: infinity
              for _ in scalars]
    assert curve.multi_scalar_mul(points, scalars) == \
        affine_multi_scalar_mul(curve, points, scalars)
    # Iterables that can be walked once are enough.
    assert curve.multi_scalar_mul(iter(points), iter(scalars)) == \
        affine_multi_scalar_mul(curve, points, scalars)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_multi_scalar_mul_named_cases(toy_curve, group):
    P = getattr(toy_curve, f"{group}_generator")
    curve, r = P.curve, toy_curve.r
    Q, infinity = affine_scalar_mul(P, 0xBEEF), curve.infinity()
    long = (1 << 254) + 0x5DEECE66D                       # 255 bits beside one
    cases = {
        "empty sum": ([], []),
        "all-zero scalars": ([P, Q], [0, 0]),
        "infinity among the points": ([P, infinity, Q], [5, 7, -3]),
        "only infinity": ([infinity], [9]),
        "P twice": ([P, P], [r - 2, r - 2]),
        "P twice, different scalars": ([P, Q, P], [3, 11, 1 << 20]),
        "P and -P, equal scalars": ([P, -P], [12345, 12345]),
        "P and -P around a generic term": ([P, Q, -P], [r - 1, 77, r - 1]),
        "P and -P, opposite scalars": ([P, -P], [9, -9]),
        "one bit beside 255": ([P, Q], [1, long]),
        "255 bits beside one": ([P, Q], [long, 1]),
        "negative beside positive": ([P, Q], [-long, long]),
        "multiples of the order": ([P, Q], [r, -2 * r]),
        "the sum is infinity at the end": ([P, Q], [0xBEEF, -1]),
    }
    for name, (points, scalars) in cases.items():
        assert curve.multi_scalar_mul(points, scalars) == \
            affine_multi_scalar_mul(curve, points, scalars), name
    assert curve.multi_scalar_mul([], []).is_infinity()
    assert curve.multi_scalar_mul([P, -P], [12345, 12345]).is_infinity()
    assert curve.multi_scalar_mul([P], [7]) == P.scalar_mul(7)


def test_multi_scalar_mul_with_every_small_order_point(toy_bls12):
    """Every point of order 2, 3, 6, 9 and 18 of TOY-BLS12-54's ``E(F_p)`` (see
    ``test_scalar_mul_on_every_small_order_point``) as one term beside a
    generic one: its table falls back to the affine law while its
    neighbour's is normalised by the shared inversion."""
    curve, rng = toy_bls12.curve, random.Random(0x0DD)
    order = toy_bls12.cofactor_g1 * toy_bls12.r
    torsion = {curve.infinity()}                           # Z2 x Z2 x Z9 x Z3, grown a generator at a time
    while len(torsion) < 108:
        small = affine_scalar_mul(curve.random_point(rng), order // 108)
        multiple = small
        while not multiple.is_infinity():
            torsion |= {point + multiple for point in torsion}
            multiple = multiple + small
    small_points = [point for point in torsion if not point.is_infinity()]
    assert len(small_points) == 107 and all(
        affine_scalar_mul(point, 18).is_infinity() for point in small_points)
    generic = toy_bls12.g1_generator
    for small in small_points:
        for s, t in [(1, 1), (7, 1000003), (-5, 18), (36, -9), (toy_bls12.r, 11)]:
            for points in ([small, generic], [generic, small], [small, generic, small]):
                scalars = [s, t, s + 1][:len(points)]
                assert curve.multi_scalar_mul(points, scalars) == \
                    affine_multi_scalar_mul(curve, points, scalars), (small, s, t)


def test_multi_scalar_mul_on_a_curve_with_a_nonzero_a():
    """The curve of ``test_scalar_mul_on_a_curve_with_a_nonzero_a``: every pair
    of its 70 points -- equal, opposite, of order two, at infinity -- under
    scalars that make their walks meet."""
    p = 67
    curve = EllipticCurve(PrimeField(p), 5, 7)
    points = [curve.infinity()] + [
        curve.point(x, y) for x in range(p) for y in range(p)
        if (y * y - (x**3 + 5 * x + 7)) % p == 0]
    multiples = {(index, s): affine_scalar_mul(point, s)
                 for index, point in enumerate(points) for s in (1, 3, 23, -9, 70)}
    for i, first in enumerate(points):
        for j, second in enumerate(points):
            for s, t in [(1, 1), (3, -9), (23, 3), (-9, 70), (70, 23)]:
                assert curve.multi_scalar_mul([first, second], [s, t]) == \
                    multiples[i, s] + multiples[j, t], (first, second, s, t)


def test_multi_scalar_mul_rejects_what_it_cannot_sum(toy_bn, toy_bls12):
    curve, P = toy_bn.curve, toy_bn.g1_generator
    with pytest.raises(CurveError, match="different curves"):
        curve.multi_scalar_mul([P, toy_bls12.g1_generator], [1, 2])
    with pytest.raises(CurveError, match="different curves"):
        curve.multi_scalar_mul([P, toy_bn.g2_generator], [1, 2])
    with pytest.raises(CurveError, match="different curves"):     # even for a skipped term
        curve.multi_scalar_mul([P, toy_bls12.curve.infinity()], [1, 0])
    with pytest.raises(CurveError, match="float"):
        curve.multi_scalar_mul([P, P], [1, 2.0])
    with pytest.raises(CurveError, match="2 points for 1 scalars"):
        curve.multi_scalar_mul([P, P], [1])


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_catalog_listing():
    names = list_curves()
    assert set(PAPER_CURVES) <= set(names)
    assert "TOY-BN42" in names
    assert "TOY-BN42" not in list_curves(include_toy=False)
    assert len(CURVE_SPECS) >= 10


def test_get_curve_unknown():
    with pytest.raises(CurveError):
        get_curve("BN9999")


def test_get_curve_alias_and_cache():
    a = get_curve("TOY-BN42")
    b = get_curve("toy-bn42")
    assert a is b


def test_toy_curve_structure(toy_curve):
    curve = toy_curve
    info = curve.describe()
    assert info["k"] in (12, 24)
    assert curve.twist_type in ("D", "M")
    # Generators have order r.
    assert curve.is_in_g1(curve.g1_generator)
    assert curve.is_in_g2(curve.g2_generator)
    assert not curve.g1_generator.is_infinity()
    assert not curve.g2_generator.is_infinity()
    # The cofactors are consistent with the group orders.
    assert (curve.params.p + 1 - curve.params.t) == curve.cofactor_g1 * curve.params.r


def check_endomorphism(curve, seed: int) -> None:
    """phi(x, y) = (beta x, y) is [lambda] on a random G1 point, and not
    [lambda^2]: beta and lambda are paired, not merely two cube roots."""
    beta, lam, r = curve.endo_beta, curve.endo_lambda, curve.r
    assert beta != 1 and pow(beta, 3, curve.p) == 1
    assert (lam * lam + lam + 1) % r == 0
    P = curve.random_g1(random.Random(seed))
    image = curve.curve.point(P.x * curve.tower.fp(beta), P.y)
    assert image == P.scalar_mul(lam) != P.scalar_mul(r - 1 - lam)


@pytest.mark.parametrize("name", PAPER_CURVES)
def test_the_g1_endomorphism_of_every_paper_curve(name):
    check_endomorphism(get_curve(name), 89)


def test_twist_frobenius_constants_map_g2_to_twist(toy_curve, rng):
    curve = toy_curve
    Q = curve.random_g2(rng)
    c_x, c_y = curve.twist_frobenius_constants(1)
    image = (Q.x.frobenius(1) * c_x, Q.y.frobenius(1) * c_y)
    assert curve.twist_curve.point(image[0], image[1]).is_on_curve()


def test_random_subgroup_sampling(toy_curve, rng):
    curve = toy_curve
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    assert P.scalar_mul(curve.params.r).is_infinity()
    assert Q.scalar_mul(curve.params.r).is_infinity()


def test_security_estimates_match_table2_anchors():
    assert estimate_security_bits("BN", 12, 2**253, 2**253) == 100
    assert estimate_security_bits("BLS12", 12, 2**380, 2**254) == 123
    assert estimate_security_bits("BLS24", 24, 2**508, 2**407) == 192
    # Non-anchor curves get a monotone-ish generic estimate.
    small = estimate_security_bits("BN", 12, 2**41, 2**41)
    assert 0 < small < 100
