"""Operator variants: correctness against schoolbook, cost table, configuration."""

import random

import pytest

from repro.curves.catalog import get_curve
from repro.errors import FieldError
from repro.fields.fp import PrimeField
from repro.fields.kernels import build_kernel
from repro.fields.tower import build_extension
from repro.fields.variants import (
    DEFAULT_VARIANTS,
    VariantConfig,
    get_variant,
    list_variants,
)


@pytest.fixture(scope="module")
def quadratic_field():
    return build_extension(PrimeField(10007), 2)


@pytest.fixture(scope="module")
def cubic_field():
    # p = 1 mod 3 so a cubic non-residue exists: 10009 % 3 == 1.
    return build_extension(PrimeField(10009), 3)


def _kernel(field, op, name):
    """The concrete kernel of one step compiled from the named variant."""
    return build_kernel(field, op, variants={**DEFAULT_VARIANTS, (op, field.m): name})


def _check_mul_variant(field, name, seed):
    rng = random.Random(seed)
    reference = _kernel(field, "mul", "schoolbook")
    variant = _kernel(field, "mul", name)
    assert variant.fp_muls == get_variant("mul", field.m, name).cost().mul
    for _ in range(20):
        a, b = field.random(rng).flat, field.random(rng).flat
        assert variant(a, b) == reference(a, b)


def _check_sqr_variant(field, name, seed):
    rng = random.Random(seed)
    mul = _kernel(field, "mul", "schoolbook")
    variant = _kernel(field, "sqr", name)
    cost = get_variant("sqr", field.m, name).cost()
    assert (variant.fp_muls, variant.fp_sqrs) == (cost.mul, cost.sqr)
    for _ in range(20):
        a = field.random(rng).flat
        assert variant(a) == mul(a, a)


@pytest.mark.parametrize("name", ["schoolbook", "karatsuba"])
def test_mul2_variants_agree(quadratic_field, name):
    _check_mul_variant(quadratic_field, name, hash(name) & 0xFFFF)


@pytest.mark.parametrize("name", ["schoolbook", "complex", "karatsuba"])
def test_sqr2_variants_agree(quadratic_field, name):
    _check_sqr_variant(quadratic_field, name, 1 + (hash(name) & 0xFFFF))


@pytest.mark.parametrize("name", ["schoolbook", "karatsuba"])
def test_mul3_variants_agree(cubic_field, name):
    _check_mul_variant(cubic_field, name, 2 + (hash(name) & 0xFFFF))


@pytest.mark.parametrize("name", ["schoolbook", "ch-sqr1", "ch-sqr2", "ch-sqr3", "complex"])
def test_sqr3_variants_agree(cubic_field, name):
    _check_sqr_variant(cubic_field, name, 3 + (hash(name) & 0xFFFF))


# ---------------------------------------------------------------------------
# Costs (Table 3)
# ---------------------------------------------------------------------------

def test_karatsuba2_cost_matches_table3():
    cost = get_variant("mul", 2, "karatsuba").cost()
    assert cost.mul == 3
    assert cost.adj == 1
    assert cost.add == 5


def test_schoolbook2_cost_matches_table3():
    cost = get_variant("mul", 2, "schoolbook").cost()
    assert cost.mul == 4
    assert cost.adj == 1


def test_karatsuba3_cost():
    cost = get_variant("mul", 3, "karatsuba").cost()
    assert cost.mul == 6
    assert get_variant("mul", 3, "schoolbook").cost().mul == 9


def test_sqr_costs_ranked():
    complex2 = get_variant("sqr", 2, "complex").cost()
    school2 = get_variant("sqr", 2, "schoolbook").cost()
    assert complex2.mul + complex2.sqr <= school2.mul + school2.sqr
    ch2 = get_variant("sqr", 3, "ch-sqr2").cost()
    assert ch2.mul + ch2.sqr == 5


def test_cost_string_and_weight():
    cost = get_variant("mul", 2, "karatsuba").cost()
    assert "3M" in str(cost)
    assert cost.weighted(mul_weight=1.0, linear_weight=0.0) == 3


def _priced_products(field, op) -> tuple:
    """(F_p products, F_p squarings) of ``op`` at this level, from the cost table alone."""
    if field.degree == 1:
        return (1, 0) if op == "mul" else (0, 1)
    cost = get_variant(op, field.m, DEFAULT_VARIANTS[(op, field.m)]).cost()
    mul, sqr = _priced_products(field.base, "mul"), _priced_products(field.base, "sqr")
    return (cost.mul * mul[0] + cost.sqr * sqr[0], cost.mul * mul[1] + cost.sqr * sqr[1])


@pytest.mark.parametrize(
    "curve_name", ["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79", "BLS12-381", "BLS24-509"])
def test_generated_kernels_execute_the_priced_product_count(curve_name):
    # The concrete path must run the operation count Table 3 prices: the
    # kernel of every tower level, traced from the default variants.
    levels = get_curve(curve_name).tower.levels
    for degree, field in levels.items():
        if degree == 1:
            continue
        for op, kernel in (("mul", field._mul), ("sqr", field._sqr)):
            assert (kernel.fp_muls, kernel.fp_sqrs) == _priced_products(field, op), (degree, op)
    if curve_name == "BLS12-381":
        assert (levels[12]._mul.fp_muls, levels[12]._mul.fp_sqrs) == (54, 0)
        assert levels[12]._mul.source.count(" % p") == 12      # one reduction per coefficient


# ---------------------------------------------------------------------------
# Registry and configuration
# ---------------------------------------------------------------------------

def test_registry_lookup_and_errors():
    assert len(list_variants()) >= 10
    assert len(list_variants("mul")) >= 4
    assert len(list_variants("sqr", 3)) >= 4
    with pytest.raises(FieldError):
        get_variant("mul", 2, "does-not-exist")


def test_variant_config_defaults_and_overrides():
    config = VariantConfig.all_karatsuba()
    assert config.variant_for("mul", 12, 3).name == "karatsuba"
    school = VariantConfig.all_schoolbook()
    assert school.variant_for("mul", 12, 3).name == "schoolbook"
    manual = VariantConfig.manual()
    assert manual.variant_for("mul", 2, 2).name == "schoolbook"
    assert manual.variant_for("mul", 12, 3).name == "karatsuba"
    override = config.with_override("mul", 6, "schoolbook")
    assert override.variant_for("mul", 6, 3).name == "schoolbook"
    assert config.variant_for("mul", 6, 3).name == "karatsuba"


def test_variant_config_cache_key_and_describe():
    a = VariantConfig.all_karatsuba()
    b = VariantConfig.all_karatsuba()
    assert a.cache_key() == b.cache_key()
    c = a.with_override("mul", 2, "schoolbook")
    assert c.cache_key() != a.cache_key()
    description = c.describe()
    assert description["overrides"] == {"mul@2": "schoolbook"}


def test_variant_config_has_no_point_style_knob():
    # It chose no formula yet was part of cache_key(): a "projective" config
    # compiled and stored a byte-identical kernel under a second digest.
    with pytest.raises(TypeError, match="point_style"):
        VariantConfig({}, point_style="projective")
    assert VariantConfig({}).cache_key()[0] == "jacobian"      # pinned digests hash it
    assert VariantConfig({}).describe()["point_style"] == "jacobian"


def test_schoolbook_below_threshold():
    config = VariantConfig.schoolbook_below(4)
    assert config.variant_for("mul", 2, 2).name == "schoolbook"
    assert config.variant_for("mul", 4, 2).name == "schoolbook"
    assert config.variant_for("mul", 12, 3).name == "karatsuba"
