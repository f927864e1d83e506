"""Optimal Ate pairing: Miller loop, final exponentiation, reference implementation,
the batched multi-pairing used by pairing-product verifiers, and the algebra
that coalesces many such products into one (``combine_products``)."""

from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import (
    G2Precomputation,
    batched_miller_loop,
    combine_products,
    multi_pairing,
    partition_into_groups,
    precompute_g2,
    split_batched_miller_loop,
)
from repro.pairing.context import ConcretePairingContext, PairingContext
from repro.pairing.exponent import FinalExpPlan, signed_digits, solve_final_exp_plan
from repro.pairing.final_exp import FINAL_EXP_MODES, final_exponentiation

__all__ = [
    "FINAL_EXP_MODES",
    "final_exponentiation",
    "signed_digits",
    "optimal_ate_pairing",
    "multi_pairing",
    "precompute_g2",
    "combine_products",
    "batched_miller_loop",
    "split_batched_miller_loop",
    "partition_into_groups",
    "G2Precomputation",
    "PairingContext",
    "ConcretePairingContext",
    "FinalExpPlan",
    "solve_final_exp_plan",
]
