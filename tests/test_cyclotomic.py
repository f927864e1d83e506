"""Cyclotomic fast-path arithmetic: Granger-Scott squaring, Karabina
compression, signed-digit chains and the hard-part mode equivalences."""

import random

import pytest

from repro.errors import FieldError, PairingError
from repro.fields import cyclotomic
from repro.fields.cyclotomic import (
    batch_inverse,
    compress,
    compressed_square,
    cyclotomic_square,
    decompress_batch,
    power_signed,
)
from repro.pairing.context import ConcretePairingContext
from repro.pairing.exponent import FinalExpPlan, signed_digits
from repro.pairing.final_exp import (
    FINAL_EXP_MODES,
    easy_part,
    final_exponentiation,
    hard_part,
    validate_final_exp_mode,
)


def _subgroup_elements(curve, count, seed):
    """Random cyclotomic-subgroup elements via the easy-part projection."""
    ctx = ConcretePairingContext(curve)
    rng = random.Random(seed)
    elements = []
    while len(elements) < count:
        raw = curve.tower.full_field.random(rng)
        if raw.is_zero():
            continue
        elements.append(easy_part(ctx, raw))
    return ctx, elements


# ---------------------------------------------------------------------------
# Granger-Scott squaring
# ---------------------------------------------------------------------------

def test_cyclotomic_square_matches_generic(toy_curve):
    """GS squaring == generic square() on subgroup elements, every family
    (including the k=24 tower, whose twist field is F_p4)."""
    ctx, elements = _subgroup_elements(toy_curve, 4, seed=0xC1C10)
    for f in elements:
        assert cyclotomic_square(ctx, f) == f.square()
        # And it stays closed: squaring again still agrees.
        twice = cyclotomic_square(ctx, cyclotomic_square(ctx, f))
        assert twice == f.square().square()


def test_cyclotomic_square_identity(toy_bn):
    ctx = ConcretePairingContext(toy_bn)
    one = toy_bn.tower.full_field.one()
    assert cyclotomic_square(ctx, one) == one


def test_w_coeffs_roundtrip(toy_curve):
    ctx, (f,) = _subgroup_elements(toy_curve, 1, seed=0xC1C11)
    assert ctx.full_from_w_coeffs(ctx.full_w_coeffs(f)) == f


# ---------------------------------------------------------------------------
# Karabina compression
# ---------------------------------------------------------------------------

def test_compressed_square_chain_matches_generic(toy_curve):
    """decompress(csquare^n(compress(f))) == f^(2^n) for a range of n."""
    ctx, elements = _subgroup_elements(toy_curve, 2, seed=0xC1C12)
    for f in elements:
        comp = compress(ctx, f)
        expected = f
        for n in range(1, 6):
            comp = compressed_square(ctx, comp)
            expected = expected.square()
            (full,) = decompress_batch(ctx, [comp])
            assert full == expected


def test_decompress_batch_shares_one_inversion(toy_bn):
    """A whole batch decompresses correctly (Montgomery simultaneous inversion)."""
    ctx, elements = _subgroup_elements(toy_bn, 3, seed=0xC1C13)
    comps, expected = [], []
    for f in elements:
        comp = compressed_square(ctx, compress(ctx, f))
        comps.append(comp)
        expected.append(f.square())
    assert decompress_batch(ctx, comps) == expected


def test_decompress_degenerate_identity_raises(toy_bn):
    """The identity compresses to all zeros: the determinant vanishes and the
    decompression refuses instead of dividing by zero."""
    ctx = ConcretePairingContext(toy_bn)
    comp = compress(ctx, toy_bn.tower.full_field.one())
    with pytest.raises(FieldError):
        decompress_batch(ctx, [comp])


def test_batch_inverse_matches_individual(toy_bn, rng):
    field = toy_bn.tower.twist_field
    values = []
    while len(values) < 5:
        value = field.random(rng)
        if not value.is_zero():
            values.append(value)
    assert batch_inverse(values) == [v.inverse() for v in values]
    assert batch_inverse([]) == []


# ---------------------------------------------------------------------------
# Signed-digit powering
# ---------------------------------------------------------------------------

def test_signed_digits_recoding():
    for value in (1, 2, 3, 7, 543, 559, 2**62 + 2**55 + 1):
        digits = signed_digits(value)
        assert digits[-1] == 1
        assert sum(d * 2**i for i, d in enumerate(digits)) == value
        # NAF property: no two adjacent non-zero digits.
        assert all(not (digits[i] and digits[i + 1]) for i in range(len(digits) - 1))
    with pytest.raises(PairingError):
        signed_digits(0)
    with pytest.raises(PairingError):
        signed_digits(-5)


@pytest.mark.parametrize("mode", ["cyclotomic", "compressed"])
def test_power_signed_matches_pow(toy_curve, mode):
    ctx, (f,) = _subgroup_elements(toy_curve, 1, seed=0xC1C14)
    for exponent in (1, 2, 3, 5, 21, 543, 1023):
        assert power_signed(ctx, f, signed_digits(exponent), mode=mode) == f ** exponent


def test_power_signed_compressed_identity_falls_back(toy_bn):
    """f = 1 has a zero decompression determinant; the compressed chain must
    fall back to Granger-Scott squarings and still return the identity."""
    ctx = ConcretePairingContext(toy_bn)
    one = toy_bn.tower.full_field.one()
    assert power_signed(ctx, one, signed_digits(543), mode="compressed") == one


def test_power_signed_rejects_bad_chain(toy_bn):
    ctx, (f,) = _subgroup_elements(toy_bn, 1, seed=0xC1C15)
    with pytest.raises(FieldError):
        power_signed(ctx, f, (), mode="cyclotomic")
    with pytest.raises(FieldError):
        power_signed(ctx, f, (1, 0, -1), mode="cyclotomic")   # top digit != 1


# ---------------------------------------------------------------------------
# Hard-part / final-exponentiation mode equivalence
# ---------------------------------------------------------------------------

def test_hard_part_modes_bit_exact(toy_curve):
    ctx, elements = _subgroup_elements(toy_curve, 2, seed=0xC1C16)
    for f in elements:
        generic = hard_part(ctx, f, mode="generic")
        assert hard_part(ctx, f, mode="cyclotomic") == generic
        assert hard_part(ctx, f, mode="compressed") == generic


def test_final_exponentiation_modes_bit_exact(toy_curve, rng):
    ctx = ConcretePairingContext(toy_curve)
    f = toy_curve.tower.full_field.random(rng)
    if f.is_zero():
        f = toy_curve.tower.full_field.one()
    generic = final_exponentiation(ctx, f, mode="generic")
    for mode in FINAL_EXP_MODES[1:]:
        assert final_exponentiation(ctx, f, mode=mode) == generic


def test_hard_part_rejects_unknown_mode(toy_bn):
    ctx, (f,) = _subgroup_elements(toy_bn, 1, seed=0xC1C17)
    with pytest.raises(PairingError):
        hard_part(ctx, f, mode="fastest")
    with pytest.raises(PairingError):
        validate_final_exp_mode("naf")
    with pytest.raises(PairingError):
        hard_part(ctx, f, plan="not-a-plan")


def test_multi_pairing_final_exp_modes_agree(toy_bn):
    from repro.pairing.batch import multi_pairing

    rng = random.Random(0xC1C19)
    pairs = [(toy_bn.random_g1(rng), toy_bn.random_g2(rng)) for _ in range(3)]
    default = multi_pairing(toy_bn, pairs)                      # compressed default
    for mode in FINAL_EXP_MODES:
        assert multi_pairing(toy_bn, pairs, final_exp_mode=mode) == default


def _three_modes_agree(curve, seed):
    """``optimal_ate_pairing`` and a ``multi_pairing`` over one live and one
    replayed pair return one value under every final-exp mode, and the
    defaults are the ``"compressed"`` value."""
    from repro.pairing.ate import optimal_ate_pairing
    from repro.pairing.batch import multi_pairing, precompute_g2

    rng = random.Random(seed)
    P, Q = curve.random_g1(rng), curve.random_g2(rng)
    R, S = curve.random_g1(rng), curve.random_g2(rng)
    pairs = [(P, Q), (R, precompute_g2(curve, S))]
    singles = {mode: optimal_ate_pairing(curve, P, Q, final_exp_mode=mode)
               for mode in FINAL_EXP_MODES}
    products = {mode: multi_pairing(curve, pairs, final_exp_mode=mode)
                for mode in FINAL_EXP_MODES}
    assert len({tuple(value.flat) for value in singles.values()}) == 1
    assert len({tuple(value.flat) for value in products.values()}) == 1
    assert curve.is_valid_gt(singles["generic"])
    assert optimal_ate_pairing(curve, P, Q) == singles["compressed"]
    assert multi_pairing(curve, pairs) == products["compressed"]
    assert products["generic"] == singles["generic"] * optimal_ate_pairing(curve, R, S)


def test_optimal_ate_final_exp_modes_agree(toy_curve):
    _three_modes_agree(toy_curve, seed=0xC1C20)


@pytest.mark.parametrize("curve_name", ["BN254N", "BLS12-381"])
def test_optimal_ate_final_exp_modes_agree_on_paper_curves(curve_name):
    from repro.curves.catalog import get_curve

    _three_modes_agree(get_curve(curve_name), seed=0xC1C23)


def test_hard_part_of_the_identity_takes_the_zero_determinant_fallback(toy_curve, monkeypatch):
    """The identity compresses to zeros: every Karabina determinant vanishes,
    the kernelised decompression refuses, and the Granger-Scott fallback
    still returns one."""
    ctx = ConcretePairingContext(toy_curve)
    one = toy_curve.tower.full_field.one()
    _, _, det = cyclotomic._decompression_system(ctx, *compress(ctx, one).coords())
    assert det.is_zero()
    refused = []

    def recording(ctx, comps):
        try:
            return decompress_batch(ctx, comps)
        except FieldError:
            refused.append(len(comps))
            raise
    monkeypatch.setattr(cyclotomic, "decompress_batch", recording)
    assert hard_part(ctx, one, mode="compressed").is_one()
    assert refused                                  # the fallback was taken


# ---------------------------------------------------------------------------
# FinalExpPlan validation (shape checked at construction, not evaluation)
# ---------------------------------------------------------------------------

def test_plan_rejects_zero_seed():
    with pytest.raises(PairingError):
        FinalExpPlan(c=1, lambda_coeffs=((1,),), u=0, p=7)


def test_plan_rejects_huge_seed_and_coefficients():
    with pytest.raises(PairingError):
        FinalExpPlan(c=1, lambda_coeffs=((1,),), u=1 << 600, p=7)
    with pytest.raises(PairingError):
        FinalExpPlan(c=1, lambda_coeffs=((1 << 600,),), u=3, p=7)


def test_plan_rejects_malformed_poly_shapes():
    for bad_rows in ((), ((0,), (0, 0)), (("x",),), ((True,),), [[1]], None):
        with pytest.raises(PairingError):
            FinalExpPlan(c=1, lambda_coeffs=bad_rows, u=3, p=7)


def test_plan_caches_recoded_chains(toy_curve):
    plan = toy_curve.final_exp_plan
    assert plan.seed_chain == signed_digits(abs(plan.u))
    magnitudes = {abs(c) for row in plan.lambda_coeffs for c in row if c}
    assert set(plan.small_chains) == magnitudes
    for magnitude, chain in plan.small_chains.items():
        assert chain == signed_digits(magnitude)


@pytest.mark.slow
def test_cyclotomic_modes_on_negative_seed_curve():
    """BN254N has a negative seed: the NAF chains plus the conjugation-based
    seed inversion must stay bit-exact with the generic path at full size."""
    from repro.curves.catalog import get_curve

    curve = get_curve("BN254N")
    assert curve.params.u < 0
    ctx, (f,) = _subgroup_elements(curve, 1, seed=0xC1C21)
    assert cyclotomic_square(ctx, f) == f.square()
    comp = compressed_square(ctx, compress(ctx, f))
    assert decompress_batch(ctx, [comp]) == [f.square()]
    generic = hard_part(ctx, f, mode="generic")
    assert hard_part(ctx, f, mode="cyclotomic") == generic
    assert hard_part(ctx, f, mode="compressed") == generic
