"""Compiled batched multi-pairing: bit-exactness vs the software product,
multi-core scheduling determinism, split accumulators, and cache integration."""

import random

import pytest

from repro.compiler.codegen import generate_multi_pairing_ir
from repro.compiler.pipeline import (
    clear_caches,
    compile_cache_stats,
    compile_multi_pairing,
    compile_pairing,
)
from repro.errors import CompilerError, SimulationError
from repro.hw.presets import paper_hw1
from repro.pairing.batch import multi_pairing
from repro.sim.cycle import (
    CycleAccurateSimulator,
    assign_lanes_to_cores,
    assign_split_lanes_to_cores,
)
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


@pytest.fixture(scope="module")
def compiled_batch4(toy_bn):
    """One 4-pair toy-BN kernel shared by the multi-core scheduling tests."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return compile_multi_pairing(toy_bn, 4, hw=hw)


@pytest.fixture(scope="module")
def compiled_shared8(toy_bn):
    """The PR-3 shared-accumulator kernel: 8 pairs on a 4-core model."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return compile_multi_pairing(toy_bn, 8, hw=hw)


@pytest.fixture(scope="module")
def compiled_split8(toy_bn):
    """The split-accumulator kernel: 8 pairs, one accumulator chain per core."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return compile_multi_pairing(toy_bn, 8, hw=hw, split_accumulators=True)


# ---------------------------------------------------------------------------
# Bit-exactness against the software multi_pairing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_pairs", [1, 2, 8])
def test_compiled_batch_matches_software_bn(toy_bn, n_pairs):
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    result = compile_multi_pairing(toy_bn, n_pairs, hw=hw)
    pairs = _random_pairs(toy_bn, n_pairs, seed=211 + n_pairs)
    golden = multi_pairing(toy_bn, pairs)
    sim = FunctionalSimulator(result.program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bn.params.k)]
    assert got == golden.to_base_coeffs()


@pytest.mark.parametrize("n_pairs", [1, 2, 8])
def test_compiled_batch_matches_software_bls(toy_bls12, n_pairs):
    hw = paper_hw1(toy_bls12.params.p.bit_length()).with_cores(4)
    result = compile_multi_pairing(toy_bls12, n_pairs, hw=hw)
    pairs = _random_pairs(toy_bls12, n_pairs, seed=223 + n_pairs)
    golden = multi_pairing(toy_bls12, pairs)
    sim = FunctionalSimulator(result.program, toy_bls12.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bls12.params.k)]
    assert got == golden.to_base_coeffs()


def test_single_pair_batch_matches_single_pairing_product(toy_bn):
    """A 1-pair batch is the same product optimal_ate_pairing computes."""
    from repro.pairing.ate import optimal_ate_pairing

    hw = paper_hw1(toy_bn.params.p.bit_length())
    result = compile_multi_pairing(toy_bn, 1, hw=hw)
    (pair,) = _random_pairs(toy_bn, 1, seed=229)
    golden = optimal_ate_pairing(toy_bn, *pair)
    sim = FunctionalSimulator(result.program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs([pair])).outputs
    assert [outputs[("result", j)] for j in range(toy_bn.params.k)] == \
        golden.to_base_coeffs()


# ---------------------------------------------------------------------------
# Lane tagging
# ---------------------------------------------------------------------------

def test_batched_ir_partitions_lanes(toy_bn):
    hl = generate_multi_pairing_ir(toy_bn, 3)
    histogram = hl.lane_histogram()
    # Shared accumulator work plus three equal per-pair lanes.
    assert set(histogram) == {None, 0, 1, 2}
    assert histogram[0] == histogram[1] == histogram[2] > 0
    assert histogram[None] > 0


def test_single_pairing_ir_is_all_shared(toy_bn):
    result = compile_pairing(toy_bn, hw=paper_hw1(toy_bn.params.p.bit_length()))
    assert set(result.schedule.module.lane_histogram()) == {None}


def test_lanes_survive_lowering_and_optimisation(compiled_batch4):
    histogram = compiled_batch4.schedule.module.lane_histogram()
    assert {0, 1, 2, 3} <= set(histogram)
    lane_counts = [histogram[lane] for lane in (0, 1, 2, 3)]
    assert min(lane_counts) > 0
    # Batched lanes are structurally identical, so the optimiser must not
    # collapse them into each other asymmetrically.
    assert max(lane_counts) == min(lane_counts)


def test_rejects_empty_batch(toy_bn):
    with pytest.raises(CompilerError):
        compile_multi_pairing(toy_bn, 0)
    with pytest.raises(CompilerError):
        generate_multi_pairing_ir(toy_bn, 0)


def test_rejects_non_integral_batch(toy_bn):
    """Bools and truncating floats are caller bugs, not batch sizes."""
    for bad in (-3, 2.5, True, "4", None):
        with pytest.raises(CompilerError):
            compile_multi_pairing(toy_bn, bad)
        with pytest.raises(CompilerError):
            generate_multi_pairing_ir(toy_bn, bad)
    with pytest.raises(CompilerError):
        generate_multi_pairing_ir(toy_bn, 2, accumulator_groups=0)
    with pytest.raises(CompilerError):
        generate_multi_pairing_ir(toy_bn, 2, accumulator_groups=1.5)


def test_batched_result_ipc_is_consistent_with_cycles(compiled_batch4):
    """.cycles and .ipc come from the same (multi-core) simulation."""
    stats = compiled_batch4.multicore_stats
    assert compiled_batch4.ipc == stats.ipc
    assert compiled_batch4.ipc == stats.instructions / stats.total_cycles


# ---------------------------------------------------------------------------
# Multi-core scheduling: speedup + determinism
# ---------------------------------------------------------------------------

def test_four_cores_strictly_faster_than_one(compiled_batch4):
    simulator = CycleAccurateSimulator()
    one = simulator.run_multicore(compiled_batch4.schedule, 1)
    four = simulator.run_multicore(compiled_batch4.schedule, 4)
    assert four.total_cycles < one.total_cycles
    assert one.instructions == four.instructions
    # The result carries the hw.n_cores=4 simulation.
    assert compiled_batch4.multicore_stats.total_cycles == four.total_cycles
    assert compiled_batch4.cycles == four.total_cycles
    assert compiled_batch4.cycles_per_pairing == four.total_cycles / 4


def test_single_core_multicore_sim_matches_classic(compiled_batch4):
    """On one single-issue core the multi-core model degenerates exactly."""
    simulator = CycleAccurateSimulator()
    classic = simulator.run(compiled_batch4.schedule)
    mc = simulator.run_multicore(compiled_batch4.schedule, 1)
    assert mc.total_cycles == classic.total_cycles
    assert mc.instructions == classic.instructions
    # Stall accounting degenerates too: skipped idle windows are charged one
    # bubble per stalled cycle, exactly like the classic per-cycle walk.
    assert mc.data_stalls == classic.data_stalls
    assert mc.writeback_stalls == classic.writeback_stalls
    assert mc.structural_stalls == classic.structural_stalls
    assert mc.stall_cycles == classic.stall_cycles
    assert compiled_batch4.single_core_cycles == classic.total_cycles


def test_multicore_sim_is_deterministic(compiled_batch4):
    simulator = CycleAccurateSimulator()
    first = simulator.run_multicore(compiled_batch4.schedule, 4)
    second = simulator.run_multicore(compiled_batch4.schedule, 4)
    assert first == second


def test_lane_assignment_is_order_independent():
    """The LPT list schedule is a pure function of the lane-cost contents."""
    costs = {None: 900, 0: 100, 1: 100, 2: 70, 3: 130, 4: 100}
    baseline = assign_lanes_to_cores(costs, 3)
    rng = random.Random(241)
    items = list(costs.items())
    for _ in range(10):
        rng.shuffle(items)
        assert assign_lanes_to_cores(dict(items), 3) == baseline
    # Shared work is pinned to core 0; every lane is placed on a valid core.
    assert baseline[None] == 0
    assert all(0 <= core < 3 for core in baseline.values())


def test_lane_assignment_rejects_bad_core_count():
    with pytest.raises(SimulationError):
        assign_lanes_to_cores({None: 1}, 0)


def test_batch_amortises_cycles_per_pairing(toy_bn, compiled_batch4):
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    single = compile_multi_pairing(toy_bn, 1, hw=hw)
    assert compiled_batch4.cycles_per_pairing < single.cycles_per_pairing


# ---------------------------------------------------------------------------
# Split accumulators: compiled kernel
# ---------------------------------------------------------------------------

def test_split_compiled_matches_software_bn(toy_bn, compiled_split8):
    """The split kernel computes the exact software multi_pairing product."""
    pairs = _random_pairs(toy_bn, 8, seed=307)
    golden = multi_pairing(toy_bn, pairs)
    assert golden == multi_pairing(toy_bn, pairs, accumulators=4)
    sim = FunctionalSimulator(compiled_split8.program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    got = [outputs[("result", j)] for j in range(toy_bn.params.k)]
    assert got == golden.to_base_coeffs()


def test_split_compiled_uneven_partition(toy_bn):
    """n_pairs % n_cores != 0: groups of unequal size stay bit-exact."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    result = compile_multi_pairing(toy_bn, 5, hw=hw, split_accumulators=True)
    pairs = _random_pairs(toy_bn, 5, seed=311)
    golden = multi_pairing(toy_bn, pairs)
    sim = FunctionalSimulator(result.program, toy_bn.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    assert [outputs[("result", j)] for j in range(toy_bn.params.k)] == \
        golden.to_base_coeffs()


def test_split_compiled_matches_software_bls(toy_bls12):
    hw = paper_hw1(toy_bls12.params.p.bit_length()).with_cores(2)
    result = compile_multi_pairing(toy_bls12, 3, hw=hw, split_accumulators=True)
    pairs = _random_pairs(toy_bls12, 3, seed=313)
    golden = multi_pairing(toy_bls12, pairs)
    sim = FunctionalSimulator(result.program, toy_bls12.params.p)
    outputs = sim.run(_kernel_inputs(pairs)).outputs
    assert [outputs[("result", j)] for j in range(toy_bls12.params.k)] == \
        golden.to_base_coeffs()


def test_split_beats_shared_on_four_cores(compiled_shared8, compiled_split8):
    """The acceptance criterion: on a 4-core model at batch 8, the split
    kernel simulates to strictly fewer total cycles than the shared one."""
    assert compiled_split8.multicore_stats.n_cores == 4
    assert compiled_shared8.multicore_stats.n_cores == 4
    assert compiled_split8.cycles < compiled_shared8.cycles
    # The trade the co-design loop exposes: the split kernel runs *more*
    # instructions (n_cores - 1 extra squaring chains + the merge) in fewer
    # cycles, because the chains no longer serialise on core 0.
    assert compiled_split8.final_instructions > compiled_shared8.final_instructions
    assert compiled_split8.split_accumulators is True
    assert compiled_split8.accumulator_groups == 4
    assert compiled_split8.describe()["accumulators"] == "split"
    assert compiled_shared8.describe()["accumulators"] == "shared"


def test_split_multicore_stats_are_deterministic(compiled_split8):
    simulator = CycleAccurateSimulator()
    first = simulator.run_multicore(compiled_split8.schedule, 4)
    second = simulator.run_multicore(compiled_split8.schedule, 4)
    assert first == second
    assert first.total_cycles == compiled_split8.cycles
    # Every group gets its own core; the merge tail shares core 0 with one
    # group instead of idling through the Miller phase.
    group_cores = {first.lane_assignment[lane] for lane in (0, 1, 2, 3)}
    assert group_cores == {0, 1, 2, 3}
    assert first.lane_assignment[None] == 0


def test_split_lanes_survive_lowering_and_optimisation(compiled_split8, compiled_shared8):
    histogram = compiled_split8.schedule.module.lane_histogram()
    assert set(histogram) == {None, 0, 1, 2, 3}
    group_counts = [histogram[lane] for lane in (0, 1, 2, 3)]
    # Structurally identical groups must stay symmetric through IROpt.
    assert max(group_counts) == min(group_counts) > 0
    # The split kernel's shared lane is only the merge + final exponentiation;
    # the shared kernel's shared lane additionally carries the whole fused
    # accumulator chain.
    shared_histogram = compiled_shared8.schedule.module.lane_histogram()
    assert histogram[None] < shared_histogram[None]
    # Kernel-shape metadata rides through lowering and IROpt to the scheduler.
    assert compiled_split8.schedule.module.meta["split_accumulators"] is True
    assert compiled_split8.schedule.module.meta["accumulator_groups"] == 4
    assert compiled_shared8.schedule.module.meta["split_accumulators"] is False


def test_split_on_one_core_degenerates_to_shared(toy_bn):
    """One accumulator group is the shared kernel (same trace, same cycles)."""
    hw = paper_hw1(toy_bn.params.p.bit_length())        # n_cores=1
    shared = compile_multi_pairing(toy_bn, 2, hw=hw)
    split = compile_multi_pairing(toy_bn, 2, hw=hw, split_accumulators=True)
    assert split.accumulator_groups == 1
    assert split.cycles == shared.cycles
    assert split.final_instructions == shared.final_instructions


def test_split_mode_and_core_count_are_in_the_digest(toy_bn):
    clear_caches()
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(2)
    shared = compile_multi_pairing(toy_bn, 4, hw=hw)
    split2 = compile_multi_pairing(toy_bn, 4, hw=hw, split_accumulators=True)
    assert split2 is not shared
    # The split *trace* depends on the core count (one group per core), so a
    # different core count is a different kernel, not just a re-simulation.
    split4 = compile_multi_pairing(toy_bn, 4, hw=hw.with_cores(4),
                                   split_accumulators=True)
    assert split4 is not split2
    assert split4.accumulator_groups == 4 and split2.accumulator_groups == 2
    stats = compile_cache_stats()["result"]
    assert stats["misses"] == 3
    # Repeat calls are served from cache.
    assert compile_multi_pairing(toy_bn, 4, hw=hw, split_accumulators=True) is split2


# ---------------------------------------------------------------------------
# Split-aware lane assignment
# ---------------------------------------------------------------------------

def test_split_lane_assignment_dedicates_cores():
    """Group lanes are balanced by group load only (the merge tail on core 0
    is not parallel work) and ties fill from the highest core index down."""
    costs = {None: 900, 0: 100, 1: 100, 2: 100, 3: 100}
    assert assign_split_lanes_to_cores(costs, 4) == {
        None: 0, 0: 3, 1: 2, 2: 1, 3: 0,
    }
    # Fewer groups than cores: core 0 is left to the merge tail alone.
    assert assign_split_lanes_to_cores({None: 900, 0: 50, 1: 50}, 4) == {
        None: 0, 0: 3, 1: 2,
    }
    # More groups than cores: plain balanced fill, still ignoring the tail.
    assignment = assign_split_lanes_to_cores(
        {None: 900, 0: 100, 1: 100, 2: 100, 3: 100}, 2)
    loads = {0: 0, 1: 0}
    for lane in (0, 1, 2, 3):
        loads[assignment[lane]] += 100
    assert loads == {0: 200, 1: 200}


def test_split_lane_assignment_is_order_independent():
    costs = {None: 900, 0: 130, 1: 100, 2: 100, 3: 70}
    baseline = assign_split_lanes_to_cores(costs, 3)
    rng = random.Random(317)
    items = list(costs.items())
    for _ in range(10):
        rng.shuffle(items)
        assert assign_split_lanes_to_cores(dict(items), 3) == baseline


def test_lane_assignment_tie_break_is_explicit():
    """Equal-cost lanes land by ascending lane id on ascending core index."""
    costs = {None: 10, 0: 5, 1: 5, 2: 5}
    assert assign_lanes_to_cores(costs, 2) == {None: 0, 0: 1, 1: 1, 2: 0}
    assert assign_lanes_to_cores(costs, 3) == {None: 0, 0: 1, 1: 2, 2: 1}


def test_core_count_validation():
    from repro.sim.cycle import validate_core_count

    assert validate_core_count(3) == 3
    for bad in (0, -2, 1.5, True, "4", None):
        with pytest.raises(SimulationError):
            validate_core_count(bad)
        with pytest.raises(SimulationError):
            assign_lanes_to_cores({None: 1}, bad)
        with pytest.raises(SimulationError):
            assign_split_lanes_to_cores({None: 1}, bad)


def test_run_multicore_validates_core_count(compiled_batch4):
    simulator = CycleAccurateSimulator()
    for bad in (0, -1, 2.5, True):
        with pytest.raises(SimulationError):
            simulator.run_multicore(compiled_batch4.schedule, bad)


# ---------------------------------------------------------------------------
# Split accumulators at batch 4
# ---------------------------------------------------------------------------

def test_split_beats_shared_at_batch_4_on_hw1(toy_bn):
    """At batch 4 on a 4-core HW1 the split kernel (one chain per core)
    simulates to fewer cycles than the shared one, cyclotomic final
    exponentiation included (the batched trade ``batch_verify`` tables)."""
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    shared, split = (
        compile_multi_pairing(toy_bn, 4, hw=hw, split_accumulators=mode,
                              final_exp_mode="cyclotomic")
        for mode in (False, True))
    assert split.cycles < shared.cycles


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------

def test_compile_multi_pairing_hits_result_cache(toy_bn):
    clear_caches()
    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(2)
    first = compile_multi_pairing(toy_bn, 2, hw=hw)
    after_first = compile_cache_stats()["result"]
    assert after_first["misses"] == 1 and after_first["stores"] == 1
    second = compile_multi_pairing(toy_bn, 2, hw=hw)
    assert second is first
    after_second = compile_cache_stats()["result"]
    assert after_second["hits"] == 1 and after_second["misses"] == 1


def test_batch_size_and_cores_are_in_the_digest(toy_bn):
    clear_caches()
    hw = paper_hw1(toy_bn.params.p.bit_length())
    two = compile_multi_pairing(toy_bn, 2, hw=hw)
    three = compile_multi_pairing(toy_bn, 3, hw=hw)
    assert three is not two and three.n_pairs == 3
    # Same batch, different core count: same kernel, different simulation --
    # a distinct cached result (hw.cache_key() does not cover n_cores).
    two_quad = compile_multi_pairing(toy_bn, 2, hw=hw.with_cores(4))
    assert two_quad is not two
    assert two_quad.schedule.instruction_count == two.schedule.instruction_count


def test_multi_and_single_kernels_share_no_result_entry(toy_bn):
    clear_caches()
    hw = paper_hw1(toy_bn.params.p.bit_length())
    single = compile_pairing(toy_bn, hw=hw)
    batch_one = compile_multi_pairing(toy_bn, 1, hw=hw)
    assert batch_one is not single
    stats = compile_cache_stats()["result"]
    assert stats["misses"] == 2


def test_multi_pairing_round_trips_through_disk_store(toy_bn, tmp_path):
    from repro.compiler.store import configure_store, reset_store_state

    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    try:
        clear_caches()
        configure_store(str(tmp_path / "store"))
        first = compile_multi_pairing(toy_bn, 2, hw=hw)
        assert compile_cache_stats()["disk"]["stores"] == 1
        # Cold memory tier: the artefact must come back from disk, bit-equal
        # in every statistic the harness consumes.
        clear_caches()
        configure_store(str(tmp_path / "store"))
        second = compile_multi_pairing(toy_bn, 2, hw=hw)
        assert compile_cache_stats()["disk"]["hits"] == 1
        assert second is not first
        assert second.cycles == first.cycles
        assert second.multicore_stats == first.multicore_stats
        assert second.describe() == first.describe()
    finally:
        reset_store_state()
        clear_caches()
