"""One Miller walk: the single, shared and split kernels trace the same loop.

``repro.pairing.miller.miller_walk`` is the only Miller loop; the batched
kernels are that walk over several sources.  The invariant that replaced the
old "batched kernels have their own program order" pins: a batch of one *is*
the single kernel, on every curve family.
"""

import pytest

from repro.compiler.codegen import generate_multi_pairing_ir, generate_pairing_ir
from repro.compiler.pipeline import compile_multi_pairing, compile_pairing
from repro.pairing.context import ConcretePairingContext
from repro.pairing.miller import loop_schedule


def test_a_batch_of_one_is_the_single_kernel(toy_curve):
    single = compile_pairing(toy_curve)
    batch = compile_multi_pairing(toy_curve, 1)
    assert (batch.initial_instructions, batch.final_instructions) == (
        single.initial_instructions, single.final_instructions)
    assert batch.cycle_stats.total_cycles == single.cycle_stats.total_cycles
    assert batch.total_registers == single.total_registers


def test_a_batch_of_one_traces_the_single_kernels_operations(toy_bn):
    """Op for op: only the lane stamps and the input names differ."""
    single = generate_pairing_ir(toy_bn)
    batch = generate_multi_pairing_ir(toy_bn, 1)
    assert (batch.ops, batch.a, batch.b, batch.phases) == (
        single.ops, single.a, single.b, single.phases)
    assert set(single.lanes) == {None} and set(batch.lanes) == {None, 0}


@pytest.mark.parametrize("use_naf", [True, False], ids=["naf", "binary"])
def test_schedule_shape(toy_curve, use_naf):
    ctx = ConcretePairingContext(toy_curve)
    schedule = loop_schedule(ctx, use_naf)
    kinds = [kind for kind, _ in schedule]
    bits = abs(ctx.loop_scalar).bit_length()
    assert kinds[0] == "dbl" and set(kinds) <= {"dbl", "add", "neg"}
    # One doubling per digit below the leading one; NAF may carry one digit more.
    assert kinds.count("dbl") in ((bits - 1, bits) if use_naf else (bits - 1,))
    assert kinds.count("neg") == (ctx.loop_scalar < 0)
    addends = [addend for kind, addend in schedule if kind == "add"]
    assert set(addends) <= ({1, -1} if use_naf else {1}) | {"pi1", "pi2"}
    assert addends[-2:] == ["pi1", "pi2"] if ctx.family == "BN" else "pi1" not in addends
