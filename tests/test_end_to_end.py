"""End-to-end: compiled accelerator binary reproduces the golden pairing."""

import pytest

from repro.compiler.codegen import generate_pairing_ir
from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import (
    CompilerPipeline,
    clear_caches,
    compile_pairing,
    stage_modules,
)
from repro.compiler.schedule import program_order_schedule
from repro.fields.variants import VariantConfig
from repro.hw.presets import paper_hw1
from repro.ir.lowering import lower_module
from repro.pairing.ate import optimal_ate_pairing
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator


def _kernel_inputs(P, Q):
    inputs = {}
    for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y)):
        for j, coeff in enumerate(value.to_base_coeffs()):
            inputs[(name, j)] = coeff
    return inputs


@pytest.mark.parametrize("variant", ["all-karatsuba", "manual", "all-schoolbook"])
def test_compiled_kernel_matches_golden_pairing(toy_bn, rng, variant):
    config = {
        "all-karatsuba": VariantConfig.all_karatsuba(),
        "manual": VariantConfig.manual(),
        "all-schoolbook": VariantConfig.all_schoolbook(),
    }[variant]
    result = compile_pairing(toy_bn, variant_config=config)
    P = toy_bn.random_g1(rng)
    Q = toy_bn.random_g2(rng)
    golden = optimal_ate_pairing(toy_bn, P, Q)
    sim = FunctionalSimulator(result.program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs(P, Q)).outputs
    got = [outputs[("result", j)] for j in range(toy_bn.params.k)]
    assert got == golden.to_base_coeffs()


def test_compiled_kernel_matches_golden_pairing_bls(toy_curve, rng):
    result = compile_pairing(toy_curve)
    P = toy_curve.random_g1(rng)
    Q = toy_curve.random_g2(rng)
    golden = optimal_ate_pairing(toy_curve, P, Q)
    sim = FunctionalSimulator(result.program, toy_curve.params.p)
    outputs = sim.run(_kernel_inputs(P, Q)).outputs
    got = [outputs[("result", j)] for j in range(toy_curve.params.k)]
    assert got == golden.to_base_coeffs()


def test_compile_report_shape(compiled_toy_bn):
    report = compiled_toy_bn.describe()
    assert report["init_instructions"] > report["opt_instructions"] > 0
    assert 0.0 < report["instr_reduction"] < 0.6
    assert report["cycles"] >= report["opt_instructions"]
    assert 0.3 < report["ipc"] <= 1.0
    assert compiled_toy_bn.imem_bits > 0
    assert compiled_toy_bn.compile_seconds > 0
    assert set(compiled_toy_bn.stage_seconds) >= {
        "codegen", "lowering", "iropt", "bankalloc", "packsched", "regalloc",
    }


def test_compile_cache_hit(toy_bn):
    first = compile_pairing(toy_bn)
    second = compile_pairing(toy_bn)
    assert first is second
    third = compile_pairing(toy_bn, use_cache=False)
    assert third is not first
    assert third.cycles == first.cycles


def test_pipeline_stage_access(toy_bn):
    pipeline = CompilerPipeline(hw=paper_hw1(toy_bn.params.p.bit_length()), do_assemble=False)
    spec = pipeline.spec.resolved(toy_bn)
    hl = generate_pairing_ir(toy_bn, use_naf=True, final_exp_mode=spec.final_exp_mode)
    assert hl.count_compute_ops() > 100
    low = lower_module(hl, toy_bn.tower.levels, spec.variant_config)
    assert low.count_compute_ops() > hl.count_compute_ops()
    # The staged calls are the pipeline's own stages: same op counts.
    result = pipeline.compile(toy_bn)
    assert result.hl_instructions == hl.count_compute_ops()
    assert result.initial_instructions == low.count_compute_ops()


def test_clear_caches_does_not_break_recompilation(toy_bn):
    clear_caches()
    result = compile_pairing(toy_bn)
    assert result.cycles > 0


@pytest.mark.slow
def test_full_size_bn254_compile_and_validate(rng):
    from repro.curves.catalog import get_curve

    curve = get_curve("BN254N")
    result = compile_pairing(curve)
    lowered = stage_modules(curve)[1]
    baseline = CycleAccurateSimulator().run(
        program_order_schedule(lowered, result.hw, allocate_banks(lowered, result.hw)))
    # Shape checks against Table 7: sizeable kernel, >5% reduction, IPC close to 1.
    assert result.final_instructions > 50_000
    assert result.opt_stats.reduction > 0.05
    assert result.ipc > 0.8
    assert baseline.ipc < 0.3
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    golden = optimal_ate_pairing(curve, P, Q)
    sim = FunctionalSimulator(result.program, curve.params.p)
    outputs = sim.run(_kernel_inputs(P, Q)).outputs
    assert [outputs[("result", j)] for j in range(curve.params.k)] == golden.to_base_coeffs()
