"""Compiled final-exponentiation modes: bit-exactness, phase telemetry, the
>= 20% final-exp cycle cut, cache-digest separation and the mode the DSE
scores."""

import random

import pytest

from repro.compiler.pipeline import (
    clear_caches,
    compile_cache_stats,
    compile_multi_pairing,
    compile_pairing,
)
from repro.errors import PairingError
from repro.hw.presets import paper_hw1
from repro.pairing.batch import multi_pairing
from repro.pairing.final_exp import FINAL_EXP_MODES
from repro.sim.functional import FunctionalSimulator


def _random_pairs(curve, count, seed):
    rng = random.Random(seed)
    return [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(count)]


def _kernel_inputs(pairs):
    inputs = {}
    for i, (P, Q) in enumerate(pairs):
        for name, value in ((f"xP{i}", P.x), (f"yP{i}", P.y),
                            (f"xQ{i}", Q.x), (f"yQ{i}", Q.y)):
            for j, coeff in enumerate(value.to_base_coeffs()):
                inputs[(name, j)] = coeff
    return inputs


@pytest.fixture(scope="module", params=list(FINAL_EXP_MODES))
def fe_mode(request):
    return request.param


@pytest.fixture(scope="module")
def batch8_by_mode(toy_bn):
    """The toy-BN batch-8 shared kernel on 4 cores, one result per fe mode."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return {
        mode: compile_multi_pairing(toy_bn, 8, hw=hw, final_exp_mode=mode)
        for mode in FINAL_EXP_MODES
    }


@pytest.fixture(scope="module")
def split8_by_mode(toy_bn):
    """The toy-BN batch-8 split-accumulator kernel, one result per fe mode."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return {
        mode: compile_multi_pairing(toy_bn, 8, hw=hw, split_accumulators=True,
                                    final_exp_mode=mode, do_assemble=False)
        for mode in FINAL_EXP_MODES
    }


# ---------------------------------------------------------------------------
# Bit-exactness against the generic software path
# ---------------------------------------------------------------------------

def test_compiled_modes_match_generic_software_bn(toy_bn, batch8_by_mode, fe_mode):
    pairs = _random_pairs(toy_bn, 8, seed=401)
    golden = multi_pairing(toy_bn, pairs, final_exp_mode="generic")
    sim = FunctionalSimulator(batch8_by_mode[fe_mode].program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bn.params.k)]
    assert got == golden.to_base_coeffs()


@pytest.mark.parametrize("mode", ["cyclotomic", "compressed"])
def test_compiled_modes_match_generic_software_bls(toy_bls12, mode):
    hw = paper_hw1(toy_bls12.params.p.bit_length()).with_cores(2)
    result = compile_multi_pairing(toy_bls12, 2, hw=hw, final_exp_mode=mode)
    pairs = _random_pairs(toy_bls12, 2, seed=409)
    golden = multi_pairing(toy_bls12, pairs, final_exp_mode="generic")
    sim = FunctionalSimulator(result.program, toy_bls12.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bls12.params.k)]
    assert got == golden.to_base_coeffs()


@pytest.mark.parametrize("mode", ["cyclotomic", "compressed"])
def test_compiled_modes_match_generic_software_bls24(toy_bls24, mode):
    """The k=24 tower through the compiled cyclotomic kernel."""
    hw = paper_hw1(toy_bls24.params.p.bit_length())
    result = compile_multi_pairing(toy_bls24, 1, hw=hw, final_exp_mode=mode)
    pairs = _random_pairs(toy_bls24, 1, seed=419)
    golden = multi_pairing(toy_bls24, pairs, final_exp_mode="generic")
    sim = FunctionalSimulator(result.program, toy_bls24.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bls24.params.k)]
    assert got == golden.to_base_coeffs()


def test_split_compiled_cyclotomic_matches_software(toy_bn, split8_by_mode):
    """Split accumulators + cyclotomic final exp, checked via the low-level
    interpreter (split fixtures skip assembly)."""
    from repro.ir.interp import interpret_low_level

    pairs = _random_pairs(toy_bn, 8, seed=421)
    golden = multi_pairing(toy_bn, pairs)
    module = split8_by_mode["cyclotomic"].schedule.module
    outputs = interpret_low_level(module, toy_bn.params.p, _kernel_inputs(pairs))
    got = [outputs[("result", j)] for j in range(toy_bn.params.k)]
    assert got == golden.to_base_coeffs()


# ---------------------------------------------------------------------------
# Phase telemetry + the acceptance bar
# ---------------------------------------------------------------------------

def test_phase_stats_present_and_consistent(batch8_by_mode, fe_mode):
    result = batch8_by_mode[fe_mode]
    for stats in (result.cycle_stats, result.multicore_stats):
        assert {"miller", "final_exp"} <= set(stats.phase_stats)
        miller = stats.phase_stats["miller"]
        final_exp = stats.phase_stats["final_exp"]
        assert miller["instructions"] > 0 and final_exp["instructions"] > 0
        # The final exponentiation is the tail of the kernel.
        assert final_exp["last_finish"] >= miller["last_finish"]
        assert final_exp["last_finish"] <= stats.total_cycles
        assert final_exp["cycles"] == final_exp["last_finish"] - final_exp["first_issue"]
    # The phase split survives lowering and IROpt on the module itself.
    histogram = result.schedule.module.phase_histogram()
    assert histogram.get("miller", 0) > 0 and histogram.get("final_exp", 0) > 0


def test_single_pairing_kernel_has_phases(toy_bn):
    result = compile_pairing(toy_bn, hw=paper_hw1(toy_bn.params.p.bit_length()))
    assert {"miller", "final_exp"} <= set(result.cycle_stats.phase_stats)


def test_miller_phase_identical_across_modes(batch8_by_mode):
    """The fast path only touches the final exponentiation: the Miller-phase
    instruction count is the same in all three kernels."""
    miller_counts = {
        mode: result.schedule.module.phase_histogram()["miller"]
        for mode, result in batch8_by_mode.items()
    }
    assert len(set(miller_counts.values())) == 1


def test_cyclotomic_cuts_final_exp_cycles_shared(batch8_by_mode):
    """Acceptance bar: >= 20% final-exp phase cycles removed on the shared
    toy-BN batch-8 kernel, and fewer total batch cycles with it."""
    generic = batch8_by_mode["generic"].multicore_stats
    cyclo = batch8_by_mode["cyclotomic"].multicore_stats
    compressed = batch8_by_mode["compressed"].multicore_stats
    generic_fe = generic.phase_stats["final_exp"]["cycles"]
    assert cyclo.phase_stats["final_exp"]["cycles"] <= 0.8 * generic_fe
    assert compressed.phase_stats["final_exp"]["cycles"] < generic_fe
    assert cyclo.total_cycles < generic.total_cycles
    assert compressed.total_cycles < generic.total_cycles


def test_cyclotomic_cuts_final_exp_cycles_split(split8_by_mode):
    """Same bar on the split-accumulator kernel (the Amdahl tail PR 4 left)."""
    generic = split8_by_mode["generic"].multicore_stats
    cyclo = split8_by_mode["cyclotomic"].multicore_stats
    generic_fe = generic.phase_stats["final_exp"]["cycles"]
    assert cyclo.phase_stats["final_exp"]["cycles"] <= 0.8 * generic_fe
    assert cyclo.total_cycles < generic.total_cycles
    assert split8_by_mode["compressed"].cycles < generic.total_cycles


def test_mode_metadata_recorded(batch8_by_mode, fe_mode):
    result = batch8_by_mode[fe_mode]
    assert result.final_exp_mode == fe_mode
    assert result.describe()["final_exp_mode"] == fe_mode
    assert result.schedule.module.meta["final_exp_mode"] == fe_mode


# ---------------------------------------------------------------------------
# Cache-digest separation
# ---------------------------------------------------------------------------

def test_final_exp_mode_is_in_the_digest(toy_bn):
    clear_caches()
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(2)
    results = {
        mode: compile_multi_pairing(toy_bn, 2, hw=hw, final_exp_mode=mode)
        for mode in FINAL_EXP_MODES
    }
    assert len({id(result) for result in results.values()}) == len(FINAL_EXP_MODES)
    stats = compile_cache_stats()["result"]
    assert stats["misses"] == len(FINAL_EXP_MODES)
    # Repeat calls are cache hits of the *matching* mode, never a stale
    # artefact of a different mode.
    for mode, result in results.items():
        assert compile_multi_pairing(toy_bn, 2, hw=hw, final_exp_mode=mode) is result
    single = {
        mode: compile_pairing(toy_bn, hw=hw, final_exp_mode=mode)
        for mode in FINAL_EXP_MODES
    }
    assert len({id(result) for result in single.values()}) == len(FINAL_EXP_MODES)
    for mode, result in single.items():
        assert compile_pairing(toy_bn, hw=hw, final_exp_mode=mode) is result
        assert result.final_exp_mode == mode


def test_compile_rejects_unknown_mode(toy_bn):
    hw = paper_hw1(toy_bn.params.p.bit_length())
    with pytest.raises(PairingError):
        compile_pairing(toy_bn, hw=hw, final_exp_mode="turbo")
    with pytest.raises(PairingError):
        compile_multi_pairing(toy_bn, 2, hw=hw, final_exp_mode="turbo")


# ---------------------------------------------------------------------------
# What the DSE scores
# ---------------------------------------------------------------------------

def test_design_point_final_exp_modes(toy_bn):
    """The DSE scores every point on the cyclotomic single-pairing kernel,
    and cyclotomic beats generic on the batched and on the single kernel."""
    from repro.dse.explorer import evaluate_design_point
    from repro.dse.space import DesignPoint
    from repro.fields.variants import VariantConfig

    hw = paper_hw1(toy_bn.params.p.bit_length())
    point = DesignPoint(variant_config=VariantConfig.all_karatsuba(), hw=hw)
    batched = {
        mode: compile_multi_pairing(toy_bn, 4, hw=hw.with_cores(4), do_assemble=False,
                                    final_exp_mode=mode)
        for mode in ("generic", "cyclotomic")
    }
    single = {
        mode: compile_pairing(toy_bn, hw=hw, do_assemble=False, final_exp_mode=mode)
        for mode in ("generic", "cyclotomic")
    }
    for kernels in (batched, single):
        assert kernels["cyclotomic"].cycles < kernels["generic"].cycles
    metrics = evaluate_design_point(toy_bn, point)
    assert metrics.cycles == single["cyclotomic"].cycles
    assert metrics.instructions == single["cyclotomic"].final_instructions
