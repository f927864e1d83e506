"""Batched multi-pairing: product agreement, precomputation, input validation,
the split-accumulator partition mode, and combining products by G2 operand."""

import random

import pytest

from repro.curves.catalog import get_curve
from repro.errors import CurveError, PairingError
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import (
    G2Precomputation,
    combine_products,
    multi_pairing,
    partition_into_groups,
    precompute_g2,
)
from repro.service import VerifyingKeyCache, make_bls_requests, make_groth16_requests
from repro.service.workloads import build_request_pairs


def _random_pairs(curve, count, seed):
    rng = random.Random(seed)
    return [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(count)]


def _pairing_product(curve, pairs):
    product = curve.gt_one()
    for P, Q in pairs:
        product = product * optimal_ate_pairing(curve, P, Q)
    return product


# ---------------------------------------------------------------------------
# Agreement with individual pairings (two catalog curve families + BLS24)
# ---------------------------------------------------------------------------

def test_multi_pairing_matches_product_bn(toy_bn):
    pairs = _random_pairs(toy_bn, 3, seed=101)
    assert multi_pairing(toy_bn, pairs) == _pairing_product(toy_bn, pairs)


def test_multi_pairing_matches_product_bls12(toy_bls12):
    pairs = _random_pairs(toy_bls12, 3, seed=103)
    assert multi_pairing(toy_bls12, pairs) == _pairing_product(toy_bls12, pairs)


def test_multi_pairing_matches_product_bls24(toy_bls24):
    pairs = _random_pairs(toy_bls24, 2, seed=107)
    assert multi_pairing(toy_bls24, pairs) == _pairing_product(toy_bls24, pairs)


def test_multi_pairing_single_pair_equals_pairing(toy_curve):
    pairs = _random_pairs(toy_curve, 1, seed=109)
    assert multi_pairing(toy_curve, pairs) == optimal_ate_pairing(toy_curve, *pairs[0])


def test_multi_pairing_accepts_coordinate_tuples(toy_bn):
    (P, Q), = _random_pairs(toy_bn, 1, seed=127)
    assert multi_pairing(toy_bn, [((P.x, P.y), (Q.x, Q.y))]) == optimal_ate_pairing(
        toy_bn, P, Q
    )


def test_groth16_product_shape(toy_bn):
    """The verifier shape: e(A, B) = e(alpha, beta) * e(C, delta)."""
    curve = toy_bn
    rng = random.Random(131)
    g1, g2, r = curve.g1_generator, curve.g2_generator, curve.r
    alpha, beta, delta, c = (rng.randrange(2, r) for _ in range(4))
    a = rng.randrange(2, r)
    b = ((alpha * beta + c * delta) * pow(a, -1, r)) % r
    lhs = optimal_ate_pairing(curve, g1.scalar_mul(a), g2.scalar_mul(b))
    rhs = multi_pairing(curve, [
        (g1.scalar_mul(alpha), g2.scalar_mul(beta)),
        (g1.scalar_mul(c), g2.scalar_mul(delta)),
    ])
    assert lhs == rhs
    # Single-product form: moving e(A, B) to the other side via -A.
    assert multi_pairing(curve, [
        (-g1.scalar_mul(a), g2.scalar_mul(b)),
        (g1.scalar_mul(alpha), g2.scalar_mul(beta)),
        (g1.scalar_mul(c), g2.scalar_mul(delta)),
    ]).is_one()


# ---------------------------------------------------------------------------
# Split accumulators (the partition mode)
# ---------------------------------------------------------------------------

def test_split_accumulators_match_shared_all_families(toy_curve):
    """Split vs shared vs per-pair product, across every curve family."""
    pairs = _random_pairs(toy_curve, 5, seed=157)
    expected = _pairing_product(toy_curve, pairs)
    shared = multi_pairing(toy_curve, pairs)
    assert shared == expected
    # Even, uneven (5 % 2, 5 % 3) and degenerate-empty (g > n) partitions.
    for groups in (1, 2, 3, 5, 7):
        assert multi_pairing(toy_curve, pairs, accumulators=groups) == expected


def test_split_accumulators_mixed_precomputed_and_live(toy_curve):
    """Precomputed replay streams keep their schedule inside any group."""
    pairs = _random_pairs(toy_curve, 4, seed=167)
    expected = _pairing_product(toy_curve, pairs)
    pre0 = precompute_g2(toy_curve, pairs[0][1])
    pre2 = precompute_g2(toy_curve, pairs[2][1])
    mixed = [(pairs[0][0], pre0), pairs[1], (pairs[2][0], pre2), pairs[3]]
    for groups in (2, 3, 4):
        assert multi_pairing(toy_curve, mixed, accumulators=groups) == expected


def test_split_accumulators_skip_degenerate_pairs(toy_bn, rng):
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    inf1 = toy_bn.curve.infinity()
    expected = optimal_ate_pairing(toy_bn, P, Q)
    pairs = [(P, Q), (inf1, Q), (P, toy_bn.twist_curve.infinity())]
    assert multi_pairing(toy_bn, pairs, accumulators=2) == expected
    assert multi_pairing(toy_bn, [(inf1, Q)], accumulators=3).is_one()
    assert multi_pairing(toy_bn, [], accumulators=2).is_one()


def test_split_groth16_product_shape(toy_bn):
    """The verifier shape stays valid under the split accumulator."""
    curve = toy_bn
    rng = random.Random(173)
    g1, g2, r = curve.g1_generator, curve.g2_generator, curve.r
    alpha, beta, delta, c = (rng.randrange(2, r) for _ in range(4))
    a = rng.randrange(2, r)
    b = ((alpha * beta + c * delta) * pow(a, -1, r)) % r
    assert multi_pairing(curve, [
        (-g1.scalar_mul(a), g2.scalar_mul(b)),
        (g1.scalar_mul(alpha), g2.scalar_mul(beta)),
        (g1.scalar_mul(c), g2.scalar_mul(delta)),
    ], accumulators=3).is_one()


def test_accumulator_count_validation(toy_bn, rng):
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    for bad in (0, -1, 2.5, True, "2", None):
        with pytest.raises(PairingError):
            multi_pairing(toy_bn, [(P, Q)], accumulators=bad)


def test_partition_into_groups_is_balanced_and_deterministic():
    assert partition_into_groups(range(8), 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert partition_into_groups(range(5), 2) == [[0, 1, 2], [3, 4]]
    assert partition_into_groups(range(5), 3) == [[0, 1], [2, 3], [4]]
    assert partition_into_groups(range(2), 4) == [[0], [1], [], []]
    assert partition_into_groups([], 3) == [[], [], []]
    # Sizes differ by at most one and order is preserved.
    groups = partition_into_groups(range(11), 4)
    sizes = [len(g) for g in groups]
    assert max(sizes) - min(sizes) <= 1
    assert [x for g in groups for x in g] == list(range(11))
    with pytest.raises(PairingError):
        partition_into_groups(range(4), 0)
    with pytest.raises(PairingError):
        partition_into_groups(range(4), True)


@pytest.mark.slow
def test_split_accumulators_negative_loop_scalar():
    """BN254N has u < 0: the per-group conjugation and BN Frobenius tail must
    agree with the shared chain (and with a mixed precomputed source)."""
    from repro.curves.catalog import get_curve

    curve = get_curve("BN254N")
    assert curve.family.miller_loop_scalar(curve.params.u) < 0
    rng = random.Random(179)
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(3)]
    shared = multi_pairing(curve, pairs)
    assert multi_pairing(curve, pairs, accumulators=2) == shared
    pre = precompute_g2(curve, pairs[1][1])
    mixed = [pairs[0], (pairs[1][0], pre), pairs[2]]
    assert multi_pairing(curve, mixed, accumulators=3) == shared


# ---------------------------------------------------------------------------
# Fixed-Q precomputation
# ---------------------------------------------------------------------------

def test_precomputed_q_agrees_with_live(toy_curve):
    pairs = _random_pairs(toy_curve, 2, seed=137)
    expected = _pairing_product(toy_curve, pairs)
    pre = precompute_g2(toy_curve, pairs[0][1])
    assert isinstance(pre, G2Precomputation) and len(pre) > 0
    mixed = multi_pairing(toy_curve, [(pairs[0][0], pre), pairs[1]])
    assert mixed == expected


def test_precomputation_reusable_across_g1_points(toy_bn):
    rng = random.Random(139)
    Q = toy_bn.random_g2(rng)
    pre = precompute_g2(toy_bn, Q)
    for _ in range(3):
        P = toy_bn.random_g1(rng)
        assert multi_pairing(toy_bn, [(P, pre)]) == optimal_ate_pairing(toy_bn, P, Q)


def test_precomputation_validates_curve_and_point(toy_bn, toy_bls12):
    rng = random.Random(149)
    pre = precompute_g2(toy_bn, toy_bn.random_g2(rng))
    P12 = toy_bls12.random_g1(rng)
    with pytest.raises(PairingError):
        multi_pairing(toy_bls12, [(P12, pre)])
    with pytest.raises(PairingError):
        precompute_g2(toy_bn, toy_bn.twist_curve.infinity())


# ---------------------------------------------------------------------------
# Degenerate inputs and validation
# ---------------------------------------------------------------------------

def test_empty_and_infinity_products_are_one(toy_bn, rng):
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    assert multi_pairing(toy_bn, []).is_one()
    assert multi_pairing(toy_bn, [(toy_bn.curve.infinity(), Q)]).is_one()
    assert multi_pairing(toy_bn, [(P, toy_bn.twist_curve.infinity())]).is_one()
    # A skipped pair leaves the remaining product intact.
    expected = optimal_ate_pairing(toy_bn, P, Q)
    assert multi_pairing(toy_bn, [(P, Q), (toy_bn.curve.infinity(), Q)]) == expected


def test_multi_pairing_rejects_malformed_pairs(toy_bn, rng):
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P,)])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P, Q, P)])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [((P.x,), Q)])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P, (Q.x, Q.y, Q.x))])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P, "not a point")])


def test_knobs_are_validated_before_the_empty_product_early_return(toy_bn, rng):
    """A typo in ``final_exp_mode`` fails on an empty or all-infinity batch
    exactly as it does on a real pair."""
    P, Q = toy_bn.random_g1(rng), toy_bn.random_g2(rng)
    for pairs in ([], [(toy_bn.curve.infinity(), Q)], [(P, Q)]):
        with pytest.raises(PairingError, match="final_exp_mode"):
            multi_pairing(toy_bn, pairs, final_exp_mode="nope")


def test_wrong_field_points_name_the_pair_and_role(toy_curve, rng):
    P, Q = toy_curve.random_g1(rng), toy_curve.random_g2(rng)
    with pytest.raises(PairingError, match=r"pairs\[1\]\.P \(G1 point\)"):
        multi_pairing(toy_curve, [(P, Q), (Q, P)])
    with pytest.raises(PairingError, match=r"pairs\[0\]\.Q \(G2 point\)"):
        multi_pairing(toy_curve, [(P, P)])
    with pytest.raises(PairingError, match=r"Q \(G2 point\)"):
        precompute_g2(toy_curve, toy_curve.g1_generator)
    # Against a precomputation a G2 point in P's place would multiply through
    # silently (twist-field coefficient times twist-field coordinate).
    with pytest.raises(PairingError, match=r"pairs\[0\]\.P \(G1 point\)"):
        multi_pairing(toy_curve, [(Q, precompute_g2(toy_curve, Q))])


def test_multi_pairing_rejects_non_iterable_pairs(toy_bn):
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, 42)
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, None)


def test_multi_pairing_accepts_generators(toy_bn):
    pairs = _random_pairs(toy_bn, 2, seed=151)
    expected = _pairing_product(toy_bn, pairs)
    assert multi_pairing(toy_bn, (pair for pair in pairs)) == expected


def test_all_degenerate_pairs_give_identity(toy_bn, rng):
    inf1 = toy_bn.curve.infinity()
    inf2 = toy_bn.twist_curve.infinity()
    Q = toy_bn.random_g2(rng)
    P = toy_bn.random_g1(rng)
    assert multi_pairing(toy_bn, [(inf1, Q), (P, inf2), (inf1, inf2)]).is_one()


def test_infinity_p_against_precomputation_is_skipped(toy_bn, rng):
    """A degenerate pair must not consume (or desync) a precomputed stream."""
    Q = toy_bn.random_g2(rng)
    P = toy_bn.random_g1(rng)
    pre = precompute_g2(toy_bn, Q)
    expected = optimal_ate_pairing(toy_bn, P, Q)
    inf1 = toy_bn.curve.infinity()
    assert multi_pairing(toy_bn, [(inf1, pre)]).is_one()
    assert multi_pairing(toy_bn, [(P, pre), (inf1, pre)]) == expected


def test_desynchronised_precomputation_fails_loudly(toy_bn, rng):
    """Leftover or missing replay steps raise instead of a silently wrong product."""
    Q = toy_bn.random_g2(rng)
    P = toy_bn.random_g1(rng)
    pre = precompute_g2(toy_bn, Q)
    truncated = G2Precomputation(curve_name=pre.curve_name, steps=pre.steps[:-1])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P, truncated)])
    padded = G2Precomputation(curve_name=pre.curve_name, steps=pre.steps + [pre.steps[-1]])
    with pytest.raises(PairingError):
        multi_pairing(toy_bn, [(P, padded)])


def test_optimal_ate_pairing_rejects_malformed_tuples(toy_bn, rng):
    """The satellite fix: arity errors surface as PairingError, not deep failures."""
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, (P.x,), Q)
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, (P.x, P.y, P.x), Q)
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, P, (Q.x, Q.y, Q.x))
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, (1, 2), Q)
    with pytest.raises(PairingError):
        optimal_ate_pairing(toy_bn, object(), Q)


# ---------------------------------------------------------------------------
# combine_products: a batch verifier's algebra, value-exact
# ---------------------------------------------------------------------------

def _power_product(curve, products, coefficients):
    expected = curve.gt_one()
    for product, coefficient in zip(products, coefficients):
        expected = expected * multi_pairing(curve, product) ** coefficient
    return expected


def _groth16_shaped_products(curve, count, seed, circuits=2):
    """``count`` arbitrary (not valid) 3-pair products over ``circuits`` keys:
    a live ``B`` each, ``alpha`` against the key's shared ``beta``
    precomputation, a fresh ``C`` against its shared ``delta`` one."""
    rng = random.Random(seed)
    keys = [(curve.random_g1(rng), precompute_g2(curve, curve.random_g2(rng)),
             precompute_g2(curve, curve.random_g2(rng))) for _ in range(circuits)]
    products = []
    for index in range(count):
        alpha, beta, delta = keys[index % circuits]
        products.append([(curve.random_g1(rng), curve.random_g2(rng)),
                         (alpha, beta), (curve.random_g1(rng), delta)])
    return products


@pytest.mark.parametrize("accumulators", [1, 2])
@pytest.mark.parametrize("final_exp_mode", ["generic", "cyclotomic", "compressed"])
def test_combined_products_equal_the_product_of_powers(toy_curve, final_exp_mode, accumulators):
    curve, rng = toy_curve, random.Random(139)
    products = _groth16_shaped_products(curve, 4, seed=137)
    for coefficients in ([1, 1, 1, 1],
                         [1] + [rng.randrange(1, curve.r) for _ in range(3)],
                         [0, 1, -1, -rng.randrange(curve.r, 1 << 70)],   # no order assumed
                         [0, 0, 0, 0]):
        combined = combine_products(curve, products, coefficients)
        assert multi_pairing(curve, combined, accumulators=accumulators,
                             final_exp_mode=final_exp_mode) == \
            _power_product(curve, products, coefficients), coefficients
    assert combine_products(curve, products, [0, 0, 0, 0]) == []
    assert combine_products(curve, [], []) == []


def test_pairs_are_grouped_by_g2_operand_in_order_of_first_appearance(toy_bn):
    curve, rng = toy_bn, random.Random(149)
    P = [curve.random_g1(rng) for _ in range(6)]
    Q, other = curve.random_g2(rng), curve.random_g2(rng)
    shared, same_content = precompute_g2(curve, other), precompute_g2(curve, other)
    equal_q = Q.scalar_mul(1)                              # an equal point, another object
    assert equal_q is not Q and shared is not same_content
    products = [[(P[0], Q), (P[1], shared)],
                [(P[2], same_content), (P[3], equal_q)],
                [(P[4], shared), (P[5], other)]]
    coefficients = [1, 5, -7]
    combined = combine_products(curve, products, coefficients)
    # The live Q and its equal merge; the two precomputation objects do not
    # (identity, not content), and neither merges with the live point they hold.
    assert [q for _, q in combined] == [Q, shared, same_content, other]
    assert combined[0][0] == P[0] + P[3].scalar_mul(5)
    assert combined[1][0] == P[1] + P[4].scalar_mul(-7)
    assert multi_pairing(curve, combined) == _power_product(curve, products, coefficients)
    # A single pair of coefficient 1 is handed through untouched.
    assert combine_products(curve, [[(P[0], Q)]], [1])[0][0] is P[0]


def test_coefficients_of_equal_g1_points_are_added(toy_bn):
    """``alpha`` of one verifying key is the same point in every request: its
    group is one term whose scalar is the plain sum of the coefficients."""
    curve, rng = toy_bn, random.Random(151)
    alpha, beta = curve.random_g1(rng), precompute_g2(curve, curve.random_g2(rng))
    products = [[(alpha, beta)], [(alpha.scalar_mul(1), beta)], [(alpha, beta)]]
    coefficients = [1, curve.r - 1, 2 * curve.r + 3]
    (combined, q), = combine_products(curve, products, coefficients)
    assert q is beta and combined == alpha.scalar_mul(sum(coefficients))
    assert multi_pairing(curve, [(combined, q)]) == _power_product(curve, products, coefficients)


def test_a_group_cancelling_to_infinity_contributes_nothing(toy_bn):
    curve, rng = toy_bn, random.Random(157)
    C, A = curve.random_g1(rng), curve.random_g1(rng)
    delta, B = precompute_g2(curve, curve.random_g2(rng)), curve.random_g2(rng)
    products = [[(A, B), (C, delta)], [(-C, delta)]]
    combined = combine_products(curve, products, [9, 9])
    assert [q for _, q in combined] == [B]                 # C and -C, equal coefficients
    assert multi_pairing(curve, combined) == _power_product(curve, products, [9, 9])
    assert combine_products(curve, products, [9, 8])[1][0] == C


def test_service_shaped_batches_walk_one_source_per_g2_point(toy_bn):
    curve, rng = toy_bn, random.Random(163)
    for make, pairs, sources in [(make_groth16_requests, 24, 12), (make_bls_requests, 16, 5)]:
        cache = VerifyingKeyCache(curve)
        products = [build_request_pairs(request, curve, cache)
                    for request, _ in make(curve, 8, seed=167)]
        coefficients = [1] + [rng.randrange(1, curve.r) for _ in products[1:]]
        combined = combine_products(curve, products, coefficients)
        assert (sum(map(len, products)), len(combined)) == (pairs, sources)
        assert multi_pairing(curve, combined).is_one()     # valid requests, whatever the coefficients
        assert multi_pairing(curve, combined) == _power_product(curve, products, coefficients)


def test_combine_products_rejects_what_it_cannot_scale(toy_bn, toy_bls12, rng):
    (P, Q), = _random_pairs(toy_bn, 1, seed=173)
    with pytest.raises(PairingError, match="2 products for 1 coefficients"):
        combine_products(toy_bn, [[(P, Q)], [(P, Q)]], [1])
    with pytest.raises(PairingError, match=r"products\[1\].*tuple"):
        combine_products(toy_bn, [[(P, Q)], [((P.x, P.y), Q)]], [1, 2])
    with pytest.raises(CurveError, match="different curves"):
        combine_products(toy_bn, [[(toy_bls12.random_g1(rng), Q)]], [2])
    with pytest.raises(CurveError, match="float"):
        combine_products(toy_bn, [[(P, Q)]], [2.0])


@pytest.mark.slow
def test_combined_products_equal_the_product_of_powers_on_bls12_381():
    curve, rng = get_curve("BLS12-381"), random.Random(179)
    products = _groth16_shaped_products(curve, 3, seed=181, circuits=1)
    coefficients = [1, rng.randrange(1, 1 << 128), -rng.randrange(curve.r, 1 << 260)]
    combined = combine_products(curve, products, coefficients)
    assert len(combined) == 5                              # 3 live, beta, delta
    assert multi_pairing(curve, combined) == _power_product(curve, products, coefficients)
