"""Pairing correctness: bilinearity, non-degeneracy, oracle agreement, final exp."""

import random

import pytest

from repro.curves.catalog import CURVE_SPECS
from repro.curves.families import get_family
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import (
    G2Precomputation,
    _PrecomputedSource,
    multi_pairing,
    partition_into_groups,
    precompute_g2,
)
from repro.pairing.context import ConcretePairingContext
from repro.pairing.exponent import cyclotomic_value, hard_exponent, solve_final_exp_plan
from repro.pairing.final_exp import easy_part, final_exponentiation, hard_part
from repro.pairing.miller import (
    LivePair,
    binary_digits,
    loop_schedule,
    miller_loop,
    miller_walk,
    non_adjacent_form,
)
from repro.pairing.reference import reference_pairing
from repro.errors import PairingError


# ---------------------------------------------------------------------------
# Loop-scalar digit representations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [1, 2, 3, 7, 10, 255, 543, 6 * 543 + 2, 2**31 - 1])
def test_naf_and_binary_digits(value):
    naf = non_adjacent_form(value)
    assert sum(d << i for i, d in enumerate(naf)) == value
    assert all(d in (-1, 0, 1) for d in naf)
    assert not any(naf[i] != 0 and naf[i + 1] != 0 for i in range(len(naf) - 1))
    bits = binary_digits(value)
    assert sum(b << i for i, b in enumerate(bits)) == value


def test_digit_helpers_reject_negative():
    with pytest.raises(PairingError):
        non_adjacent_form(-5)
    with pytest.raises(PairingError):
        binary_digits(-5)


# ---------------------------------------------------------------------------
# Final-exponentiation plans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CURVE_SPECS))
def test_final_exp_plan_poly_mode(name):
    """Every catalog curve has a polynomial hard-part decomposition."""
    family = get_family(CURVE_SPECS[name].family)
    params = family.instantiate(CURVE_SPECS[name].u)
    plan = solve_final_exp_plan(family, params)
    assert plan.exponent() == plan.c * hard_exponent(params)
    assert plan.c in (1, 2, 3, 6)
    assert plan.frobenius_terms <= 8
    assert plan.max_u_degree <= 10


def test_cyclotomic_value(toy_bn):
    p = toy_bn.params.p
    assert cyclotomic_value(12, p) == p**4 - p**2 + 1
    assert cyclotomic_value(24, p) == p**8 - p**4 + 1
    with pytest.raises(PairingError):
        cyclotomic_value(16, p)


def test_solve_plan_matches_catalog(toy_bn):
    plan = solve_final_exp_plan(toy_bn.family, toy_bn.params)
    assert plan == toy_bn.final_exp_plan


def test_easy_part_lands_in_cyclotomic_subgroup(toy_curve, rng):
    ctx = ConcretePairingContext(toy_curve)
    f = toy_curve.tower.full_field.random(rng)
    if f.is_zero():
        f = toy_curve.tower.full_field.one()
    reduced = easy_part(ctx, f)
    phi = cyclotomic_value(toy_curve.params.k, toy_curve.params.p)
    assert (reduced ** phi).is_one()


def test_hard_part_matches_integer_exponent(toy_bn, rng):
    ctx = ConcretePairingContext(toy_bn)
    f = toy_bn.tower.full_field.random(rng)
    reduced = easy_part(ctx, f)
    expected = reduced ** toy_bn.final_exp_plan.exponent()
    assert hard_part(ctx, reduced) == expected


# ---------------------------------------------------------------------------
# Pairing properties
# ---------------------------------------------------------------------------

def test_pairing_is_bilinear(toy_curve):
    curve = toy_curve
    rng = random.Random(41)
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    base = optimal_ate_pairing(curve, P, Q)
    assert curve.is_valid_gt(base)
    a = rng.randrange(2, curve.params.r)
    b = rng.randrange(2, curve.params.r)
    left = optimal_ate_pairing(curve, P.scalar_mul(a), Q.scalar_mul(b))
    assert left == base ** (a * b % curve.params.r)
    assert optimal_ate_pairing(curve, P.scalar_mul(a), Q) == optimal_ate_pairing(
        curve, P, Q.scalar_mul(a)
    )


def test_pairing_non_degenerate(toy_curve):
    curve = toy_curve
    rng = random.Random(43)
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    value = optimal_ate_pairing(curve, P, Q)
    assert not value.is_one()
    assert (value ** curve.params.r).is_one()


def test_pairing_of_infinity_is_one(toy_bn, rng):
    curve = toy_bn
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    assert optimal_ate_pairing(curve, curve.curve.infinity(), Q).is_one()
    assert optimal_ate_pairing(curve, P, curve.twist_curve.infinity()).is_one()


def test_optimized_matches_reference_oracle(toy_curve):
    curve = toy_curve
    rng = random.Random(47)
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    optimized = optimal_ate_pairing(curve, P, Q, mode="optimized")
    reference = optimal_ate_pairing(curve, P, Q, mode="reference")
    assert optimized == reference ** curve.final_exp_plan.c


@pytest.fixture(scope="module")
def oracle_pairs_and_product(toy_curve):
    """Two seeded pairs and their product by the independent textbook oracle."""
    curve = toy_curve
    rng = random.Random(59)
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(2)]
    product = curve.gt_one()
    for P, Q in pairs:
        product = product * reference_pairing(curve, (P.x, P.y), (Q.x, Q.y))
    return pairs, product ** curve.final_exp_plan.c


def _binary_form_product(curve, pairs, source):
    """``source``'s pairing product over the binary digits of the loop scalar.

    The public entry points walk the NAF form; only
    :func:`repro.pairing.miller.miller_walk` still takes the digit form, so
    the sources are built here: a precomputation is recorded along the binary
    schedule, and a single pairing or a split group is one walk of its own.
    """
    ctx = ConcretePairingContext(curve)
    one = curve.tower.fp.one()

    def line_source(P, Q):
        if source != "precomputed":
            return LivePair(ctx, (P.x, P.y), (Q.x, Q.y))
        walker, steps = LivePair(ctx, (one, one), (Q.x, Q.y)), []
        for kind, addend in loop_schedule(ctx, use_naf=False):
            if kind == "neg":
                walker.negate()
            else:
                steps.append((kind, walker.step(kind, addend)))
        return _PrecomputedSource(ctx, G2Precomputation(curve.name, steps), (P.x, P.y))

    sources = [line_source(P, Q) for P, Q in pairs]
    walks = {"single": len(sources), "split": 2}.get(source, 1)
    product = curve.gt_one()
    for group in partition_into_groups(sources, walks):
        product = product * final_exponentiation(ctx, miller_walk(ctx, group, use_naf=False))
    return product


@pytest.mark.parametrize("use_naf", [True, False], ids=["naf", "binary"])
@pytest.mark.parametrize("source", ["single", "live", "precomputed", "split"])
def test_every_line_source_matches_the_reference_oracle(
        toy_curve, oracle_pairs_and_product, source, use_naf):
    """``optimal_ate_pairing`` and ``multi_pairing`` run the same Miller walk, so
    they cannot vouch for each other: every kind of source, under both digit
    forms, answers to ``pairing/reference.py`` (which shares none of it)."""
    curve = toy_curve
    pairs, expected = oracle_pairs_and_product
    if not use_naf:
        got = _binary_form_product(curve, pairs, source)
    elif source == "single":
        got = curve.gt_one()
        for P, Q in pairs:
            got = got * optimal_ate_pairing(curve, P, Q)
    elif source == "precomputed":
        got = multi_pairing(curve, [(P, precompute_g2(curve, Q)) for P, Q in pairs])
    else:
        got = multi_pairing(curve, pairs, accumulators=2 if source == "split" else 1)
    assert got == expected


def test_naf_and_binary_loops_agree(toy_bn, rng):
    curve = toy_bn
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    ctx = ConcretePairingContext(curve)
    binary = miller_loop(ctx, (P.x, P.y), (Q.x, Q.y), use_naf=False)
    assert final_exponentiation(ctx, binary) == optimal_ate_pairing(curve, P, Q)


def test_unknown_mode_rejected(toy_bn, rng):
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, toy_bn.g1_generator, toy_bn.g2_generator, mode="fast")


def test_knobs_are_validated_before_the_infinity_early_return(toy_bn):
    inf1, Q = toy_bn.curve.infinity(), toy_bn.g2_generator
    with pytest.raises(PairingError, match="mode"):
        optimal_ate_pairing(toy_bn, inf1, Q, mode="bogus")
    with pytest.raises(PairingError, match="final_exp_mode"):
        optimal_ate_pairing(toy_bn, inf1, Q, final_exp_mode="nope")
    with pytest.raises(PairingError, match="final_exp_mode"):
        optimal_ate_pairing(toy_bn, inf1, Q, mode="reference", final_exp_mode="nope")
    assert optimal_ate_pairing(toy_bn, inf1, Q, mode="reference").is_one()


def test_swapped_points_fail_at_the_boundary(toy_curve):
    """A G2 point where the G1 point goes (and vice versa) is a PairingError
    naming the role, not a FieldError from inside the first step."""
    P, Q = toy_curve.g1_generator, toy_curve.g2_generator
    with pytest.raises(PairingError, match=r"P \(G1 point\)"):
        optimal_ate_pairing(toy_curve, Q, P)
    with pytest.raises(PairingError, match=r"Q \(G2 point\)"):
        optimal_ate_pairing(toy_curve, P, P)
    with pytest.raises(PairingError, match=r"Q \(G2 point\)"):
        miller_loop(ConcretePairingContext(toy_curve), (P.x, P.y), (P.x, P.y))


def test_miller_loop_accepts_tuples(toy_bn, rng):
    curve = toy_bn
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    ctx = ConcretePairingContext(curve)
    f = miller_loop(ctx, (P.x, P.y), (Q.x, Q.y))
    value = final_exponentiation(ctx, f)
    assert value == optimal_ate_pairing(curve, P, Q)


@pytest.mark.slow
def test_full_size_pairing_bilinearity():
    from repro.curves.catalog import get_curve

    for name in ("BN254N", "BLS12-381"):
        curve = get_curve(name)
        rng = random.Random(53)
        P = curve.random_g1(rng)
        Q = curve.random_g2(rng)
        base = optimal_ate_pairing(curve, P, Q)
        a, b = rng.randrange(2, 2**64), rng.randrange(2, 2**64)
        assert optimal_ate_pairing(curve, P.scalar_mul(a), Q.scalar_mul(b)) == base ** (a * b)
        assert curve.is_valid_gt(base)
