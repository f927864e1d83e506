"""The pairing on all twelve curve shapes, in software and compiled.

The twist type (D or M) and the sign of the seed pick different code paths:
line placement, the conjugation after the Miller loop and the BN Frobenius
tail.  The catalog toys cover three of the twelve shapes; the ``curve_shapes``
fixture derives one small curve of every shape with the seed search.  The
batched kernels' BLS24 rows take 1.4-2.9 s each and are marked ``slow``.
"""

from __future__ import annotations

import random

import pytest

from repro.compiler.pipeline import compile_multi_pairing, compile_pairing
from repro.hw.presets import paper_hw1
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import combine_products, multi_pairing, precompute_g2
from repro.sim.functional import FunctionalSimulator
from test_curves import check_endomorphism

SHAPES = [f"{family}-{twist}-{sign}" for family in ("BN", "BLS12", "BLS24")
          for twist in ("D", "M") for sign in ("pos", "neg")]
#: The shapes with the BLS24 rows marked ``slow``.
SHAPES_BLS24_SLOW = [pytest.param(shape, marks=pytest.mark.slow)
                     if shape.startswith("BLS24") else shape for shape in SHAPES]


def test_the_search_reaches_every_shape(curve_shapes):
    assert sorted(curve_shapes) == sorted(SHAPES)


def _pairs(curve, seed):
    rng = random.Random(seed)
    return rng, curve.random_g1(rng), curve.random_g2(rng)


@pytest.mark.parametrize("shape", SHAPES)
def test_pairing_is_bilinear_and_non_degenerate(curve_shapes, shape):
    curve = curve_shapes[shape]
    rng, P, Q = _pairs(curve, 61)
    base = optimal_ate_pairing(curve, P, Q)
    assert curve.is_valid_gt(base) and base != curve.gt_one()
    a, b = rng.randrange(2, curve.r), rng.randrange(2, curve.r)
    assert optimal_ate_pairing(curve, P.scalar_mul(a), Q.scalar_mul(b)) == \
        base ** (a * b % curve.r)


@pytest.mark.parametrize("shape", SHAPES)
def test_the_g1_endomorphism_is_lambda(curve_shapes, shape):
    check_endomorphism(curve_shapes[shape], 97)


@pytest.mark.parametrize("shape", SHAPES)
def test_multi_pairing_is_the_product_of_single_pairings(curve_shapes, shape):
    """The shared accumulator, two split accumulators and a replayed
    precomputation each give the product of the single pairings."""
    curve = curve_shapes[shape]
    rng = random.Random(71)
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(3)]
    expected = curve.gt_one()
    for P, Q in pairs:
        expected = expected * optimal_ate_pairing(curve, P, Q)
    assert multi_pairing(curve, pairs) == expected
    assert multi_pairing(curve, pairs, accumulators=2) == expected
    (P, Q), *rest = pairs
    assert multi_pairing(curve, [(P, precompute_g2(curve, Q)), *rest]) == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_replayed_sources_and_combined_products_give_the_live_product(curve_shapes, shape):
    """Every Q replaced by its precomputation, and a mix of live and replayed
    sources, give the live product; ``combine_products`` with seeded
    coefficients gives the product of the powers."""
    curve = curve_shapes[shape]
    rng = random.Random(83)
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(3)]
    live = multi_pairing(curve, pairs)
    replayed = [(P, precompute_g2(curve, Q)) for P, Q in pairs]
    assert multi_pairing(curve, replayed) == live
    assert multi_pairing(curve, [replayed[0], pairs[1], replayed[2]]) == live
    products = [pairs[:2], [replayed[2], pairs[0]], [replayed[1]]]
    coefficients = [rng.randrange(1, curve.r) for _ in products]
    expected = curve.gt_one()
    for product, coefficient in zip(products, coefficients):
        expected = expected * multi_pairing(curve, product) ** coefficient
    assert multi_pairing(curve, combine_products(curve, products, coefficients)) == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_compiled_kernel_matches_software(curve_shapes, shape):
    curve = curve_shapes[shape]
    _, P, Q = _pairs(curve, 67)
    inputs = {(name, j): coeff
              for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y))
              for j, coeff in enumerate(value.to_base_coeffs())}
    outputs = FunctionalSimulator(compile_pairing(curve).program, curve.p).run(inputs).outputs
    assert [outputs[("result", j)] for j in range(curve.k)] == \
        optimal_ate_pairing(curve, P, Q).to_base_coeffs()


@pytest.mark.parametrize("split", [False, True], ids=["shared", "split"])
@pytest.mark.parametrize("shape", SHAPES_BLS24_SLOW)
def test_compiled_batch_kernel_matches_multi_pairing(curve_shapes, shape, split):
    """The batch-2 kernel on two cores, one shared accumulator or one per
    core, computes the software product of the two pairings."""
    curve = curve_shapes[shape]
    rng = random.Random(79)
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(2)]
    inputs = {(f"{name}{i}", j): coeff
              for i, (P, Q) in enumerate(pairs)
              for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y))
              for j, coeff in enumerate(value.to_base_coeffs())}
    hw = paper_hw1(curve.p.bit_length()).with_cores(2)
    program = compile_multi_pairing(curve, 2, hw=hw, split_accumulators=split).program
    outputs = FunctionalSimulator(program, curve.p).run(inputs).outputs
    assert [outputs[("result", j)] for j in range(curve.k)] == \
        multi_pairing(curve, pairs).to_base_coeffs()
