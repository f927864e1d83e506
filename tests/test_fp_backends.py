"""F_p residue types: canonical residues, the plain-int oracle, selection order.

An :class:`FpElement` holds the canonical residue in ``[0, p)`` whatever
integer type the backend picks, so every operation must equal the plain-``int``
expression ``(a op b) % p`` -- an external reference even when gmpy2 is absent.
These tests sweep that property over every catalog prime (cheap -- only the
family equations are evaluated, not the full curve build) and every available
backend, check that elements of two backends over one modulus mix, run the
full pairing end-to-end per non-reference backend on the toy curves, and pin
down the selection order (explicit argument > ``FINESSE_FP_BACKEND`` > catalog
hint > python).  gmpy2 coverage skips cleanly when the optional package is
absent.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.catalog import CURVE_SPECS, get_curve
from repro.curves.families import get_family
from repro.errors import FieldError
from repro.fields.backends import (
    BACKEND_ENV,
    available_backends,
    gmpy2_available,
    normalise_backend,
    resolve_backend,
)
from repro.fields.fp import PrimeField
from repro.fields.sqrt import field_sqrt
from repro.pairing.ate import optimal_ate_pairing

#: Backends under test besides the reference (gmpy2 auto-skips when absent).
ALT_BACKENDS = [name for name in available_backends() if name != "python"]

TOY_CURVES = ("TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79")


def _catalog_primes():
    """(name, p) for every catalog family -- no curve build, just the equations."""
    return [
        (spec.name, get_family(spec.family).instantiate(spec.u).p)
        for spec in CURVE_SPECS.values()
    ]


CATALOG_PRIMES = _catalog_primes()


# ---------------------------------------------------------------------------
# Canonical residues against the plain-int oracle, every catalog family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize(
    "curve_name,p", CATALOG_PRIMES, ids=[name for name, _ in CATALOG_PRIMES]
)
def test_backend_bit_exact_on_catalog_prime(backend, curve_name, p):
    field, ref = PrimeField(p, backend=backend), PrimeField(p, backend="python")
    assert field.backend == backend
    assert field == ref                     # same modulus => same field

    @given(st.integers(), st.integers(), st.integers(0, (1 << 64) - 1), st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def check(a, b, exponent, k):
        x, y = field(a), field(b)
        for element in (x, y):
            assert 0 <= element.raw < p
            assert element.value == element.raw and isinstance(element.value, int)
        a, b = a % p, b % p
        assert x.value == a and x.to_base_coeffs() == [a]
        assert (x + y).value == (a + b) % p
        assert (x - y).value == (a - b) % p
        assert (x * y).value == (a * b) % p
        assert (-x).value == -a % p
        assert x.square().value == (a * a) % p
        assert x.mul_small(k).value == (a * k) % p
        assert (x ** exponent).value == pow(a, exponent, p)
        assert x.is_zero() == (a == 0) and x.is_one() == (a == 1)
        assert x == ref(a) and hash(x) == hash((p, a))
        if a:
            assert x.inverse().value == pow(a, -1, p)
            assert (x ** -3).value == pow(a, -3, p)
        else:
            with pytest.raises(FieldError):
                x.inverse()
        # Square roots too (Tonelli-Shanks is derandomised per field).
        root = field_sqrt(x.square()).value
        assert root in (a, -a % p)

    check()


@pytest.mark.parametrize("backend", available_backends())
def test_mixed_backend_elements_combine_to_the_right_value(backend):
    """Two fields over one modulus are one field: their elements mix."""
    ref, other = PrimeField(10007, "python"), PrimeField(10007, backend)
    assert ref(5) == other(5)
    for x, y in ((ref(5), other(5)), (other(5), ref(5))):
        assert (x + y).value == 10
        assert (x * y).value == 25
        assert (x - y).is_zero()


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("curve_name", TOY_CURVES)
def test_pairing_bit_exact_across_backends(backend, curve_name):
    """Full pipeline per family: curve build, tower, pairing -- identical values."""
    ref = get_curve(curve_name, fp_backend="python")
    alt = get_curve(curve_name, fp_backend=backend)
    assert ref is not alt and alt.fp_backend == backend
    # The construction is deterministic from the modulus: same generators.
    assert alt.g1_generator.x.value == ref.g1_generator.x.value
    assert alt.g2_generator.x.to_base_coeffs() == ref.g2_generator.x.to_base_coeffs()

    rng_ref, rng_alt = random.Random(0xE5A), random.Random(0xE5A)
    p_ref, q_ref = ref.random_g1(rng_ref), ref.random_g2(rng_ref)
    p_alt, q_alt = alt.random_g1(rng_alt), alt.random_g2(rng_alt)
    e_ref = optimal_ate_pairing(ref, p_ref, q_ref)
    e_alt = optimal_ate_pairing(alt, p_alt, q_alt)
    assert e_alt.to_base_coeffs() == e_ref.to_base_coeffs()


# ---------------------------------------------------------------------------
# Selection order: explicit > env > hint > python
# ---------------------------------------------------------------------------

def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "fast")
    assert PrimeField(10007).backend == normalise_backend("fast")
    monkeypatch.delenv(BACKEND_ENV)
    assert PrimeField(10007).backend == "python"


def test_unknown_backend_rejected(monkeypatch):
    known = r"known: \['gmpy2', 'python'\]"
    for name in ("fixnum", "montgomery"):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with pytest.raises(FieldError, match=known):
            PrimeField(10007, backend=name)
        monkeypatch.setenv(BACKEND_ENV, name)
        with pytest.raises(FieldError, match=known):
            PrimeField(10007)


def test_explicit_argument_overrides_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "fixnum")       # never consulted
    assert PrimeField(10007, backend="python").backend == "python"
    assert get_curve("TOY-BN42", fp_backend="python").fp_backend == "python"
    assert resolve_backend(explicit="python", hint="fast") == "python"


def test_catalog_hints(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    fast = "gmpy2" if gmpy2_available() else "python"
    # Paper-scale entries hint `fast`; toy entries default to the reference.
    assert resolve_backend(hint=CURVE_SPECS["BLS12-381"].fp_backend) == fast
    assert get_curve("TOY-BN42").fp_backend == "python"
    # The environment beats the hint.
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend(hint="fast") == "python"


def test_fast_pseudo_backend_resolution():
    expected = "gmpy2" if gmpy2_available() else "python"
    assert normalise_backend("fast") == expected
    assert normalise_backend(" PYTHON ") == "python"


def test_curves_cached_per_backend():
    a = get_curve("TOY-BN42", fp_backend="python")
    b = get_curve("TOY-BN42", fp_backend="python")
    assert a is b
    for backend in ALT_BACKENDS:
        assert get_curve("TOY-BN42", fp_backend=backend) is not a


# ---------------------------------------------------------------------------
# gmpy2: present => exercised, absent => clean skip + clear error
# ---------------------------------------------------------------------------

@pytest.mark.skipif(gmpy2_available(), reason="gmpy2 is installed")
def test_gmpy2_requested_but_missing_raises_cleanly():
    with pytest.raises(FieldError, match="gmpy2"):
        PrimeField(10007, backend="gmpy2")
    assert available_backends() == ["python"]
    assert normalise_backend("fast") == "python"


@pytest.mark.skipif(not gmpy2_available(), reason="gmpy2 not installed")
def test_gmpy2_listed_when_available():
    assert available_backends() == ["python", "gmpy2"]
    assert normalise_backend("fast") == "gmpy2"
    field = PrimeField(10007, backend="gmpy2")
    assert field(123).value == 123 and isinstance(field(123).value, int)


# ---------------------------------------------------------------------------
# Primality guard (bugfix): composite "primes" must be rejected
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("composite", [9, 15, 341, 10011, 3 * (2**61 - 1)])
def test_composite_modulus_rejected(composite):
    with pytest.raises(FieldError, match="prime"):
        PrimeField(composite)
