"""Prime field and tower extension arithmetic."""

import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.catalog import get_curve
from repro.errors import FieldError
from repro.fields.backends import available_backends
from repro.fields.extension import ExtensionField, embed
from repro.fields.fp import PrimeField
from repro.fields.sqrt import field_sqrt, is_field_square
from repro.fields.tower import build_extension, build_pairing_tower, is_cube, is_square

P_TEST = 2**61 - 1 if (2**61 - 1) % 4 == 3 else 1000003
# Use a pairing-friendly style prime (p = 1 mod 6, p = 3 mod 4) for tower tests.
P_TOWER = 1000033  # not 1 mod 6; replaced in fixture below if needed


@pytest.fixture(scope="module")
def fp():
    return PrimeField(10007)


@pytest.fixture(scope="module")
def tower():
    # A small BN-like prime: p = 1 mod 6 so the sextic construction exists.
    from repro.curves.families import BN_FAMILY

    params = BN_FAMILY.instantiate(543)
    return build_pairing_tower(params.p, 12)


# ---------------------------------------------------------------------------
# F_p
# ---------------------------------------------------------------------------

@given(st.integers(), st.integers(), st.integers())
@settings(max_examples=150, deadline=None)
def test_fp_ring_axioms(a, b, c):
    field = PrimeField(10007)
    x, y, z = field(a), field(b), field(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + field.zero() == x
    assert x * field.one() == x
    assert x - x == field.zero()


@given(st.integers(min_value=1, max_value=10006))
@settings(max_examples=100, deadline=None)
def test_fp_inverse_and_pow(a):
    field = PrimeField(10007)
    x = field(a)
    assert x * x.inverse() == field.one()
    assert x ** 3 == x * x * x
    assert x ** 0 == field.one()
    assert x ** -1 == x.inverse()


def test_fp_misc(fp):
    assert fp(5).double() == fp(10)
    assert fp(5).triple() == fp(15)
    assert fp(5).mul_small(-2) == fp(-10)
    assert fp(0).is_zero() and fp(1).is_one()
    assert fp(3).frobenius(4) == fp(3)
    assert fp(3).conjugate() == fp(3)
    assert fp(7).to_base_coeffs() == [7]
    assert fp.from_base_coeffs([9]) == fp(9)
    with pytest.raises(FieldError):
        fp(0).inverse()
    with pytest.raises(FieldError):
        PrimeField(8)
    # Odd but composite moduli must be rejected too (Miller-Rabin guard):
    # F_9 is not a prime field, and silently accepting it would corrupt
    # every inversion and Tonelli-Shanks call downstream.
    with pytest.raises(FieldError, match="composite"):
        PrimeField(9)
    with pytest.raises(FieldError, match="composite"):
        PrimeField(10007 * 10009)


# ---------------------------------------------------------------------------
# Extension towers
# ---------------------------------------------------------------------------

def test_tower_structure(tower):
    assert tower.fp.degree == 1
    assert tower.twist_field.degree == 2
    assert tower.full_field.degree == 12
    assert sorted(tower.levels) == [1, 2, 6, 12]
    # w^6 equals the twist non-residue.
    w6 = tower.w ** 6
    assert w6 == tower.embed_to_full(tower.twist_xi)


@pytest.mark.parametrize("degree", [2, 6, 12])
def test_extension_ring_axioms(tower, degree):
    field = tower.level(degree)
    rng = random.Random(degree)
    for _ in range(10):
        x, y, z = field.random(rng), field.random(rng), field.random(rng)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + (-x) == field.zero()
        assert x * field.one() == x


@pytest.mark.parametrize("degree", [2, 6, 12])
def test_extension_inverse(tower, degree):
    field = tower.level(degree)
    rng = random.Random(100 + degree)
    for _ in range(8):
        x = field.random(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == field.one()


@pytest.mark.parametrize("degree", [2, 6, 12])
def test_frobenius_is_pth_power(tower, degree):
    field = tower.level(degree)
    rng = random.Random(200 + degree)
    p = field.p
    for _ in range(3):
        x = field.random(rng)
        assert x.frobenius(1) == x ** p
        assert x.frobenius(2) == (x ** p) ** p
        assert x.frobenius(field.degree) == x


def test_conjugate_matches_frobenius_half(tower):
    full = tower.full_field
    rng = random.Random(7)
    x = full.random(rng)
    assert x.conjugate() == x.frobenius(6)


def test_mixed_subfield_multiplication(tower):
    rng = random.Random(11)
    full = tower.full_field
    fp = tower.fp
    x = full.random(rng)
    s = fp.random(rng)
    expected = x * tower.embed_to_full(s)
    assert x * s == expected
    assert s * x == expected


def test_coeff_roundtrip(tower):
    rng = random.Random(13)
    for degree in (2, 6, 12):
        field = tower.level(degree)
        x = field.random(rng)
        coeffs = x.to_base_coeffs()
        assert len(coeffs) == degree
        assert field.from_base_coeffs(coeffs) == x


def test_embed_and_errors(tower):
    rng = random.Random(17)
    x2 = tower.twist_field.random(rng)
    lifted = embed(x2, tower.full_field)
    assert lifted.to_base_coeffs()[:2] == x2.to_base_coeffs()
    other = PrimeField(10007)
    with pytest.raises(FieldError):
        embed(other(3), tower.full_field)


def test_mul_by_nonresidue(tower):
    field = tower.level(6)
    rng = random.Random(19)
    x = field.random(rng)
    assert x.mul_by_nonresidue() == x * field.gen()


def test_is_square_and_sqrt_in_extension(tower):
    field = tower.twist_field
    rng = random.Random(23)
    x = field.random(rng)
    square = x * x
    assert is_field_square(square)
    root = field_sqrt(square)
    assert root * root == square


def test_nonresidue_checks(tower):
    # The twist non-residue must be neither a square nor a cube in F_p2.
    xi = tower.twist_xi
    assert not is_square(xi)
    assert not is_cube(xi)


def test_build_extension_rejects_bad_residues(tower):
    field = tower.twist_field
    square = field(4)  # 4 = 2^2 is always a square
    with pytest.raises(FieldError):
        build_extension(field, 2, xi=square)


def test_unsupported_embedding_degree():
    with pytest.raises(FieldError):
        build_pairing_tower(10007, 8)


# ---------------------------------------------------------------------------
# Operands from different fields fail loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.eq],
                         ids=["add", "sub", "eq"])
def test_mixed_level_or_modulus_operands_raise(tower, op):
    rng = random.Random(29)
    x1, x2, x12 = tower.fp.random(rng), tower.twist_field.random(rng), tower.full_field.random(rng)
    for a, b in ((x2, x12), (x12, x2), (x1, x2), (x2, x1)):
        with pytest.raises(FieldError, match="cannot combine"):
            op(a, b)
    # Same shape of tower over another modulus: flat tuples of equal length
    # must not be combined coefficient by coefficient either.
    other = build_pairing_tower(get_curve("TOY-BLS12-54").params.p, 12)
    for a, b in ((x2, other.twist_field.random(rng)), (x1, other.fp.random(rng))):
        with pytest.raises(FieldError, match="cannot combine"):
            op(a, b)
    assert x2 != "not an element" and x1 != 3


def test_equal_towers_built_twice_combine(tower):
    twin = build_pairing_tower(tower.fp.p, 12)
    rng = random.Random(31)
    for degree in (2, 6, 12):
        field, other = tower.level(degree), twin.level(degree)
        assert field is not other and field == other and hash(field) == hash(other)
        x, y = field.random(rng), other.random(rng)
        assert (x + y) - y == x
        assert x * y == other.from_base_coeffs((x * field(y)).to_base_coeffs())


def test_same_field_arithmetic_never_compares_fields(tower, monkeypatch):
    field = tower.full_field
    rng = random.Random(37)
    x, y = field.random(rng), field.random(rng)

    def unexpected(self, other):
        raise AssertionError("structural field comparison on the identity path")

    monkeypatch.setattr(ExtensionField, "__eq__", unexpected)
    assert (x * y + x - y).square() == ((x * y + x - y) ** 2)
    assert hash(field) == field._hash


def test_elements_pickle_after_kernels_were_generated(tower):
    # A field that has multiplied holds exec-compiled functions; they must not
    # ride along (and break) when one of its elements is pickled.
    x = tower.full_field.random(random.Random(41))
    clone = pickle.loads(pickle.dumps(x * x))
    assert clone == x * x and clone.field is not x.field
    assert clone * clone == (x * x).square()


# ---------------------------------------------------------------------------
# Generated kernels against a schoolbook oracle on nested lists of ints
# ---------------------------------------------------------------------------
#
# The oracle shares no code with repro.fields.variants / kernels: an element
# of F_p is an int, an element of K[t]/(t^m - xi) a list of m elements of K,
# and a product is the polynomial product reduced by t^m = xi.

def _nest(flat, field):
    if field.degree == 1:
        return flat[0]
    chunk = field.base.degree
    return [_nest(flat[i:i + chunk], field.base) for i in range(0, len(flat), chunk)]


def _unnest(value):
    return [value] if isinstance(value, int) else [c for part in value for c in _unnest(part)]


def _oracle_add(a, b, p):
    if isinstance(a, int):
        return (a + b) % p
    return [_oracle_add(x, y, p) for x, y in zip(a, b)]


def _oracle_mul(a, b, field):
    p = field.p
    if field.degree == 1:
        return (a * b) % p
    m, base = field.m, field.base
    xi = _nest(field.non_residue.to_base_coeffs(), base)
    product = [None] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            term = _oracle_mul(a[i], b[j], base)
            product[i + j] = term if product[i + j] is None else _oracle_add(product[i + j], term, p)
    for k in range(2 * m - 2, m - 1, -1):
        product[k - m] = _oracle_add(product[k - m], _oracle_mul(product[k], xi, base), p)
    return product[:m]


def _oracle_pow(a, exponent, field):
    result = _nest(field.one().to_base_coeffs(), field)
    for bit in bin(exponent)[2:]:
        result = _oracle_mul(result, result, field)
        if bit == "1":
            result = _oracle_mul(result, a, field)
    return result


_KERNEL_CURVES = ("TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79", "BLS12-381", "BN254N", "BLS24-509")


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("curve_name", _KERNEL_CURVES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_kernels_match_schoolbook_oracle(curve_name, backend, data):
    levels = get_curve(curve_name, fp_backend=backend).tower.levels
    p = levels[1].p
    toy = curve_name.startswith("TOY")
    for degree, field in sorted(levels.items()):
        if degree == 1:
            continue
        residues = st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)
        x = field.from_base_coeffs(data.draw(residues))
        y = field.from_base_coeffs(data.draw(residues))
        nx, ny = _nest(x.to_base_coeffs(), field), _nest(y.to_base_coeffs(), field)

        def same(element, nested):
            coeffs = element.to_base_coeffs()
            assert all(0 <= c < p for c in element.flat)
            assert coeffs == _unnest(nested)
            assert field.from_base_coeffs(coeffs) == element

        same(x, nx)
        same(x * y, _oracle_mul(nx, ny, field))
        same(x.square(), _oracle_mul(nx, nx, field))
        same(x + y, _oracle_add(nx, ny, p))
        same((x - y) + y, nx)
        same(-x + x, _nest([0] * degree, field))
        same(x.mul_small(-3), _nest([-3 * c % p for c in x.to_base_coeffs()], field))
        same(x.mul_by_nonresidue(),
             _oracle_mul(nx, _nest(field.gen().to_base_coeffs(), field), field))
        if not x.is_zero():
            one = _nest(field.one().to_base_coeffs(), field)
            inverse = x.inverse()
            same(inverse, _nest(inverse.to_base_coeffs(), field))
            assert _oracle_mul(nx, _nest(inverse.to_base_coeffs(), field), field) == one
        # Frobenius is the p-th power; the oracle exponentiation is only
        # affordable at every level on the toy primes.
        if toy or degree <= 2:
            same(x.frobenius(1), _oracle_pow(nx, p, field))
        if toy:
            same(x.frobenius(2), _oracle_pow(nx, p * p, field))
        if field.m == 2:
            same(x.conjugate(), [nx[0], _nest([-c % p for c in _unnest(nx[1])], field.base)])
        # Scaling by every lower tower level equals the product with the embedding.
        for sub_degree, sub in sorted(levels.items()):
            if sub_degree >= degree:
                continue
            s = sub.from_base_coeffs(data.draw(
                st.lists(st.integers(0, p - 1), min_size=sub_degree, max_size=sub_degree)))
            embedded = _nest(s.to_base_coeffs() + [0] * (degree - sub_degree), field)
            same(x * s, _oracle_mul(nx, embedded, field))
            same(s * x, _oracle_mul(nx, embedded, field))
