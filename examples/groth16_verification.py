"""Pairing-product verification in the style of Groth16 (application of [5]).

The intro of the paper motivates pairing accelerators with zero-knowledge proof
systems: a Groth16 verifier checks one pairing-product equation

    e(A, B) = e(alpha, beta) * e(C, delta)

This example builds a synthetic instance of that equation (choosing exponents so
that it holds by construction), verifies it with the golden pairing, then
re-verifies it with the batched ``multi_pairing`` API -- one shared Miller
accumulator and a single final exponentiation for the whole product, with the
fixed verifying-key G2 points precomputed --, checks four proofs of one circuit
with ONE product whose pairs are coalesced by G2 point (``combine_products``,
the algebra of the verification service's fused batch), and finally counts
what the verification costs on the compiled accelerator.
"""

import random

from repro import (
    combine_products,
    compile_pairing,
    get_curve,
    multi_pairing,
    optimal_ate_pairing,
    precompute_g2,
)
from repro.hw.timing import frequency_mhz


def main() -> int:
    curve = get_curve("TOY-BN42")
    rng = random.Random(7)
    g1, g2 = curve.g1_generator, curve.g2_generator
    r = curve.r

    # Synthetic proof: pick alpha, beta, delta, c and set A, B so the equation holds:
    # a * b = alpha * beta + c * delta  (mod r).
    alpha, beta, delta, c = (rng.randrange(2, r) for _ in range(4))
    a = rng.randrange(2, r)
    b = ((alpha * beta + c * delta) * pow(a, -1, r)) % r

    A, B = g1.scalar_mul(a), g2.scalar_mul(b)
    alpha_g1, beta_g2 = g1.scalar_mul(alpha), g2.scalar_mul(beta)
    C, delta_g2 = g1.scalar_mul(c), g2.scalar_mul(delta)

    lhs = optimal_ate_pairing(curve, A, B)
    rhs = optimal_ate_pairing(curve, alpha_g1, beta_g2) * optimal_ate_pairing(curve, C, delta_g2)
    assert lhs == rhs
    print("Groth16-style pairing-product equation verified in software")

    # The same check, batched: the fixed verifying-key points beta and delta are
    # precomputed once, and the whole product needs a single final exponentiation.
    beta_pre, delta_pre = precompute_g2(curve, beta_g2), precompute_g2(curve, delta_g2)
    assert multi_pairing(curve, [(-A, B), (alpha_g1, beta_pre), (C, delta_pre)]).is_one()
    print("batched verification (multi_pairing, precomputed G2) agrees")

    # Split accumulators -- one independent Miller chain per group, merged
    # before the final exponentiation -- compute the identical product; this
    # is the partition the multi-core accelerator kernel runs one-per-core.
    assert multi_pairing(
        curve, [(-A, B), (alpha_g1, beta_pre), (C, delta_pre)], accumulators=2
    ).is_one()
    print("split-accumulator verification (accumulators=2) agrees")

    # A forged proof must fail.
    forged = optimal_ate_pairing(curve, g1.scalar_mul(a + 1), B)
    assert forged != rhs
    assert not multi_pairing(
        curve, [(-g1.scalar_mul(a + 1), B), (alpha_g1, beta_pre), (C, delta_pre)]
    ).is_one()
    print("forged proof correctly rejected")

    # Four proofs of this circuit, one product.  Each proof's product is raised
    # to a secret random coefficient (the first to 1) so that errors cannot
    # cancel across proofs, and pairs that share a G2 point become one:
    # e(c1*alpha, beta) * e(c2*alpha, beta) ... = e((c1 + c2 + ...)*alpha, beta).
    def proof_pairs(forge: bool = False) -> list:
        c_i, a_i = rng.randrange(2, r), rng.randrange(2, r)
        b_i = ((alpha * beta + c_i * delta) * pow(a_i, -1, r)) % r
        return [(-g1.scalar_mul(a_i + 1 if forge else a_i), g2.scalar_mul(b_i)),
                (alpha_g1, beta_pre), (g1.scalar_mul(c_i), delta_pre)]

    proofs = [proof_pairs() for _ in range(4)]
    coefficients = [1] + [rng.randrange(1, min(r, 1 << 128)) for _ in proofs[1:]]
    fused = combine_products(curve, proofs, coefficients)
    assert multi_pairing(curve, fused).is_one()
    print(f"four proofs, one product: {sum(map(len, proofs))} pairs \u2192 "
          f"{len(fused)} Miller sources, accepted")
    proofs[2] = proof_pairs(forge=True)
    assert not multi_pairing(curve, combine_products(curve, proofs, coefficients)).is_one()
    print("a batch holding one forgery is rejected (each proof is then checked on its own)")

    # Cost of the three pairings on the accelerator.
    result = compile_pairing(curve)
    freq = frequency_mhz(curve.p.bit_length(), result.hw.long_latency)
    per_pairing_us = result.cycles / freq
    print(
        f"accelerator cost: {result.cycles} cycles per pairing "
        f"({per_pairing_us:.1f} us at {freq:.0f} MHz); "
        f"verification needs 3 pairings ~= {3 * per_pairing_us:.1f} us on one core"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
