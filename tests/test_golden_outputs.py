"""Software-path outputs pinned bit for bit.

The digests were recorded on the commit *before* extension elements became
flat residue tuples with generated kernels (nested ``FpElement`` objects,
interpreted variant formulas).  Representation and kernel changes must
reproduce them exactly: the seeded points also pin the RNG consumption order
of ``field.random`` and the square-root / cofactor paths behind
``random_g1`` / ``random_g2``.
"""

import hashlib
import random

import pytest

from repro.compiler.pipeline import compile_pairing
from repro.curves.catalog import get_curve
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import multi_pairing
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import FINAL_EXP_MODES, easy_part, hard_part
from repro.pairing.miller import miller_loop

SEED = 0x601D

PAIRING_DIGESTS = {
    "TOY-BN42": (
        "7c02d6394b339f43486f4d174f615aab1e2e1fa555078dd5bfe92bb4d5a8f059",
        "c44776566473cf51a4ac92e3e71d476d256cf5b11e96c5b19e2671cb11d36b0e",
        "513cc655379d27655621b55dcee86e4986c0ece0a0d2bbfffcfc07eb7410c072",
    ),
    "TOY-BLS12-54": (
        "5878d89327bfa3f5b6fc1764601036a61d7e71259406860fbbc52a7da4d5952b",
        "1374f8a3d71d2ea09636e1853f90ec564d8c25dd7ac4ab74a73d088bc82e5fed",
        "77bfdeb278fced81f65062aa7dc16f60d22c6153f1822dfc3e11b2c7ea7d8ff1",
    ),
    "TOY-BLS24-79": (
        "a1fd6c357548994e12341307995c4879f1fb646c2038e57702798dff7e7a50c2",
        "41ef7e2af7b34f04cb35b0cdb55f5362328729bfeaff7df2ed182a1a95245c08",
        "b934469c0998982335e576f4ab58c0e83bc276e6ea8afcf7c0fd44f2dba7f535",
    ),
    "BLS12-381": (
        "56b5db3700af4358266ca93839f55c3c7c4ff8e185a450c2a256b0c69cb77576",
        "012ce8806bc78e82cf963a3b37a9721bf565a6718e73d5d22fde423ac5722dfe",
        "a03fbb66e70086b2bbe0fd24dca9eeba99916f1fc7d61169bba070f00b0a8d90",
    ),
    "BN254N": (
        "44a3e059287f8502342156257e60afe4d9dd43cb9963bf44ff5fa1a9ac08d8d9",
        "374956415b55dcf1e3b44a4c811ed4f1ba7516b6fbaeffbb958ff7f042f1b016",
        "fec54be2262674bd971420452f5cefd83d1b8b2aeeb6b9648422a3abcd92c6d4",
    ),
}

#: multi_pairing batch-4 on TOY-BN42, shared and split accumulators alike.
MULTI_DIGEST = "059a27a3ac69b4ee8170b1a51b61744cf3d2aef599b2d2b819c8f82a68810820"


def _digest(element) -> str:
    return hashlib.sha256(repr(element.to_base_coeffs()).encode()).hexdigest()


def _seeded_pairs(curve, count):
    rng = random.Random(SEED)
    return [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(count)]


@pytest.mark.parametrize("curve_name", sorted(PAIRING_DIGESTS))
def test_pairing_outputs_are_unchanged(curve_name):
    curve = get_curve(curve_name)
    digests = tuple(_digest(optimal_ate_pairing(curve, P, Q))
                    for P, Q in _seeded_pairs(curve, 3))
    assert digests == PAIRING_DIGESTS[curve_name]


@pytest.mark.parametrize("accumulators", [1, 2], ids=["shared", "split"])
def test_multi_pairing_batch4_output_is_unchanged(accumulators):
    curve = get_curve("TOY-BN42")
    pairs = _seeded_pairs(curve, 4)
    assert _digest(multi_pairing(curve, pairs, accumulators=accumulators)) == MULTI_DIGEST


@pytest.mark.parametrize("mode", FINAL_EXP_MODES)
def test_hard_part_output_is_unchanged(mode):
    curve = get_curve("TOY-BN42")
    P, Q = _seeded_pairs(curve, 1)[0]
    ctx = ConcretePairingContext(curve)
    f = easy_part(ctx, miller_loop(ctx, (P.x, P.y), (Q.x, Q.y)))
    assert _digest(hard_part(ctx, f, mode=mode)) == PAIRING_DIGESTS["TOY-BN42"][0]


def test_bls12_381_kernel_model_is_unchanged():
    # Lowering reads the tower constants (xi, Frobenius tables) through the
    # derived ``ExtElement.coeffs`` view; a wrong view changes the kernel.
    curve = get_curve("BLS12-381")
    result = compile_pairing(curve, use_cache=False)
    assert (result.cycles, result.imem_bits) == (122139, 3692320)
