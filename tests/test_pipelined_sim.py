"""Cross-batch pipelined execution: the continuously-fed accelerator model.

Covers the tentpole contracts of ``run_pipelined``:

* ``depth=1`` reproduces ``run_multicore`` bit for bit -- cycles, every stall
  counter, per-core figures and ``phase_stats`` -- across shared/split
  kernels, batch sizes and all catalog toy curves (both walks are the same
  stream engine, so this pins the refactor);
* pipelined results are deterministic: re-simulating the same schedule yields
  identical statistics, for any depth;
* at depth >= 2 on the 4-core toy-BN batch-8 kernel the steady-state cycles
  per pairing drop strictly below the one-shot figure, and the per-phase
  occupancy / per-instance phase spans show instance ``i+1``'s Miller lanes
  overlapping instance ``i``'s final exponentiation;
* the depth is an argument of the walk, not a knob of the compile or of
  the design evaluation, which prices a batch at the one-shot simulation the
  kernel carries (the bundle walk on one core of a VLIW model).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.compiler.bankalloc import rebank_for_instance
from repro.compiler.pipeline import compile_multi_pairing
from repro.errors import SimulationError
from repro.fields.variants import VariantConfig
from repro.hw.presets import figure10_models
from repro.sim.cycle import CycleAccurateSimulator, CycleStats, validate_pipeline_depth


@pytest.fixture(scope="module")
def simulator():
    return CycleAccurateSimulator()


@pytest.fixture(scope="module")
def bn_batch8_4core(toy_bn):
    """The acceptance-bar kernel: toy-BN batch 8 on the 4-core HW1 model."""
    from repro.hw.presets import paper_hw1

    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    return {
        "shared": compile_multi_pairing(toy_bn, 8, hw=hw, do_assemble=False),
        "split": compile_multi_pairing(toy_bn, 8, hw=hw, do_assemble=False,
                                       split_accumulators=True),
        "hw": hw,
    }


# ---------------------------------------------------------------------------
# depth=1 bit-identity with run_multicore
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [2, 4])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n_cores", [1, 2, 4])
def test_depth1_reproduces_multicore_toy_bn(simulator, toy_bn, batch, split, n_cores):
    from repro.hw.presets import paper_hw1

    hw = paper_hw1(toy_bn.params.p.bit_length()).with_cores(4)
    compiled = compile_multi_pairing(toy_bn, batch, hw=hw, do_assemble=False,
                                     split_accumulators=split)
    multicore = simulator.run_multicore(compiled.schedule, n_cores)
    pipelined = simulator.run_pipelined(compiled.schedule, n_cores, depth=1)
    # Dataclass equality covers every field: cycles, the full stall
    # breakdown, per-core and per-instance columns, lane assignment and
    # phase_stats; the kept issue cycles are all the pipelined walk adds.
    assert dataclasses.replace(pipelined, core_issue_cycles=None) == multicore
    assert multicore.core_issue_cycles is None and multicore.phase_occupancy == {}
    assert pipelined.depth == multicore.depth == 1
    assert pipelined.fill_cycles == multicore.total_cycles
    assert pipelined.steady_cycles_per_batch == float(multicore.total_cycles)
    assert pipelined.instance_cycles == [multicore.total_cycles]


def test_depth1_reproduces_multicore_all_curves(simulator, toy_curve):
    compiled = compile_multi_pairing(toy_curve, 4, do_assemble=False)
    for n_cores in (1, 3):
        multicore = simulator.run_multicore(compiled.schedule, n_cores)
        pipelined = simulator.run_pipelined(compiled.schedule, n_cores, depth=1)
        assert dataclasses.replace(pipelined, core_issue_cycles=None) == multicore


def test_pipelined_deterministic(simulator, bn_batch8_4core):
    for mode in ("shared", "split"):
        result = bn_batch8_4core[mode]
        for depth in (1, 2, 3):
            first = simulator.run_pipelined(result.schedule, 4, depth)
            again = simulator.run_pipelined(result.schedule, 4, depth)
            assert first == again


def test_one_vliw_core_keeps_the_bundle_walk_at_depth_1(toy_bn):
    """Regression: on one core of a VLIW model a batched kernel is priced at
    the bundle walk of the packed schedule (what ``cycles`` reports), not the
    one-core stream walk (20 680 / 23 206 cycles here)."""
    hw = figure10_models(toy_bn.params.p.bit_length())[2].with_cores(1)
    cyclotomic = compile_multi_pairing(toy_bn, 4, hw=hw,
                                       variant_config=VariantConfig.all_karatsuba(),
                                       final_exp_mode="cyclotomic")
    assert cyclotomic.cycles == 20880 and cyclotomic.cycles_per_pairing == 5220.0
    generic = compile_multi_pairing(toy_bn, 4, hw=hw,
                                    variant_config=VariantConfig.all_karatsuba(),
                                    final_exp_mode="generic")
    assert generic.cycles == 23483
    assert generic.cycles_per_pairing == 5870.75


# ---------------------------------------------------------------------------
# Steady-state improvement and phase overlap (the acceptance bar)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["shared", "split"])
def test_steady_state_beats_one_shot(simulator, bn_batch8_4core, mode):
    schedule = bn_batch8_4core[mode].schedule
    one_shot = simulator.run_multicore(schedule, 4)
    depth2 = simulator.run_pipelined(schedule, 4, 2)
    depth4 = simulator.run_pipelined(schedule, 4, 4)
    # Keeping a second batch instance in flight overlaps the final-exp tail
    # with the next instance's Miller lanes: the sustained cycles/pairing
    # must drop strictly below the one-shot figure, and never regress with
    # more depth.
    assert depth2.steady_cycles_per_batch < one_shot.total_cycles
    assert depth4.steady_cycles_per_batch <= depth2.steady_cycles_per_batch
    # Fill equals the first instance's one-shot completion; completions are
    # strictly increasing; total covers the last completion.
    assert depth2.fill_cycles == one_shot.total_cycles
    assert depth2.instance_cycles[0] < depth2.instance_cycles[1]
    assert depth2.total_cycles == depth2.instance_cycles[-1]
    assert depth2.instructions == 2 * one_shot.instructions


@pytest.mark.parametrize("mode", ["shared", "split"])
def test_final_exp_overlap_visible(simulator, bn_batch8_4core, mode):
    schedule = bn_batch8_4core[mode].schedule
    depth2 = simulator.run_pipelined(schedule, 4, 2)
    spans = depth2.instance_phase_spans
    # Instance 1's Miller phase starts while instance 0's final exponentiation
    # is still in flight -- the cross-batch overlap in one assertion.
    assert spans[(1, "miller")]["first_issue"] < spans[(0, "final_exp")]["last_finish"]
    # And in the occupancy telemetry: one-shot final exp keeps exactly one
    # core busy; at depth 4 the other cores issue later instances' Miller
    # work inside the final-exp span.
    depth1 = simulator.run_pipelined(schedule, 4, 1)
    depth4 = simulator.run_pipelined(schedule, 4, 4)
    assert depth1.phase_occupancy["final_exp"]["busy_cores"] == 1
    assert depth4.phase_occupancy["final_exp"]["busy_cores"] > 1


# ---------------------------------------------------------------------------
# Validation helpers and the describe() stall-breakdown regression
# ---------------------------------------------------------------------------

def test_validate_pipeline_depth():
    assert validate_pipeline_depth(1) == 1
    assert validate_pipeline_depth(7) == 7
    for bad in (True, False, 0, -2, 2.0, "2", None):
        with pytest.raises(SimulationError):
            validate_pipeline_depth(bad)


def test_run_pipelined_rejects_bad_depth(simulator, bn_batch8_4core):
    schedule = bn_batch8_4core["shared"].schedule
    for bad in (True, 0, 2.5):
        with pytest.raises(SimulationError):
            simulator.run_pipelined(schedule, 4, bad)


def test_multicore_describe_has_stall_breakdown(simulator, bn_batch8_4core):
    """Regression: the multi-core describe() used to omit the stall breakdown."""
    stats = simulator.run_multicore(bn_batch8_4core["shared"].schedule, 4)
    summary = stats.describe()
    for key in ("data_stalls", "writeback_stalls", "structural_stalls"):
        assert summary[key] == getattr(stats, key)
    assert summary["stall_cycles"] == (
        summary["data_stalls"] + summary["writeback_stalls"]
        + summary["structural_stalls"]
    )


def test_pipeline_describe_has_stall_breakdown_and_steady(simulator, bn_batch8_4core):
    stats = simulator.run_pipelined(bn_batch8_4core["shared"].schedule, 4, 2)
    summary = stats.describe()
    for key in ("data_stalls", "writeback_stalls", "structural_stalls"):
        assert summary[key] == getattr(stats, key)
    assert summary["depth"] == 2
    assert summary["fill_cycles"] == stats.fill_cycles
    assert summary["drain_cycles"] == stats.drain_cycles
    assert summary["steady_cycles_per_batch"] == round(stats.steady_cycles_per_batch, 1)
    assert "phase_occupancy" in summary


# ---------------------------------------------------------------------------
# Instance renaming helpers
# ---------------------------------------------------------------------------

def test_rebank_for_instance():
    banks = [0, 1, 2, 0, 1]
    # Instance 0 (and any multiple of the bank count) is the identity -- the
    # very same object, so the depth=1 path shares the one-shot bank map.
    assert rebank_for_instance(banks, 0, 3) is banks
    assert rebank_for_instance(banks, 3, 3) is banks
    assert rebank_for_instance(banks, 1, 3) == [1, 2, 0, 1, 2]
    assert rebank_for_instance(banks, 2, 3) == [2, 0, 1, 2, 0]
    # Single-bank models rotate trivially: every instance keeps bank 0.
    assert rebank_for_instance([0, 0], 5, 1) is not None
    assert rebank_for_instance([0, 0], 1, 1) == [0, 0]


def test_multicore_stats_unchanged_shape(simulator, bn_batch8_4core):
    """The multi-core walk's public shape, on the one record."""
    schedule = bn_batch8_4core["split"].schedule
    stats = simulator.run_multicore(schedule, 4)
    for walk in (stats, simulator.run(schedule), simulator.run_pipelined(schedule, 4, 2)):
        assert type(walk) is CycleStats
    assert stats.n_cores == 4
    assert len(stats.per_core_cycles) == 4
    assert sum(stats.per_core_instructions) == stats.instructions
    assert stats.lane_assignment[None] == 0


# ---------------------------------------------------------------------------
# Experiment-layer pipeline table
# ---------------------------------------------------------------------------

def test_batch_verify_pipeline_table_structure():
    from repro.evaluation import batch_verify

    result = batch_verify.run("smoke")
    # Every leaf of the smoke run, the 117 cycle cells among them.
    assert hashlib.sha256(
        json.dumps(result, sort_keys=True, default=str).encode()
    ).hexdigest() == "1022e1d4a2e12ba530106f44f396554fe40f4a8cb50c6bbbae2907f2a62772d2"
    rows = {row["batch"]: row for row in result["rows"]}
    assert max(rows) >= 4
    big = rows[max(rows)]["modes"]
    # Core scaling at the largest batch, in both accumulator modes; split
    # accumulators beat the shared chain on 4 cores and are the shared kernel
    # on one.
    for acc_mode in batch_verify.MODES:
        assert big[acc_mode]["c4"]["cycles"] < big[acc_mode]["c1"]["cycles"]
    assert big["split"]["c4"]["cycles"] < big["shared"]["c4"]["cycles"]
    assert big["split"]["c1"]["cycles"] == big["shared"]["c1"]["cycles"]
    # Batch amortisation: cycles per pairing fall strictly with the batch.
    for acc_mode in batch_verify.MODES:
        for n_cores in batch_verify.CORE_COUNTS:
            per_pairing = [rows[batch]["modes"][acc_mode][f"c{n_cores}"]["cycles_per_pairing"]
                           for batch in sorted(rows)]
            assert per_pairing == sorted(per_pairing, reverse=True)
            assert per_pairing[-1] < per_pairing[0]
    # Cyclotomic final exp cuts the final-exp phase by >= 20 % against
    # generic, compressed beats generic, and both lower the batch total.
    fe = result["final_exp"]["modes"]
    for acc_mode in batch_verify.MODES:
        for n_cores in batch_verify.CORE_COUNTS:
            generic, cyclo, compressed = (fe[mode][acc_mode][f"c{n_cores}"] for mode in (
                "generic", "cyclotomic", "compressed"))
            assert cyclo["final_exp_cycles"] <= 0.8 * generic["final_exp_cycles"]
            assert compressed["final_exp_cycles"] < generic["final_exp_cycles"]
            assert cyclo["cycles"] < generic["cycles"]
            assert compressed["cycles"] < generic["cycles"]
    pipe = result["pipeline"]
    assert pipe["depths"] == list(batch_verify.PIPELINE_DEPTHS)
    assert set(pipe["modes"]) == set(batch_verify.MODES)
    for acc_mode, cells in pipe["modes"].items():
        for n_cores in batch_verify.CORE_COUNTS:
            per_depth = cells[f"c{n_cores}"]
            for depth in batch_verify.PIPELINE_DEPTHS:
                cell = per_depth[f"d{depth}"]
                assert cell["cycles"] > 0
                assert cell["fill_cycles"] > 0
                assert cell["steady_cycles_per_pairing"] > 0
    # Depth 1 mirrors the main table's one-shot cells; depth 2 cuts the
    # steady state and depth 4 never gives it back.
    assert pipe["batch"] == max(rows)
    for acc_mode in batch_verify.MODES:
        cells = pipe["modes"][acc_mode]["c4"]
        assert cells["d1"]["cycles"] == big[acc_mode]["c4"]["cycles"]
        steady = [cells[f"d{depth}"]["steady_cycles_per_pairing"] for depth in (1, 2, 4)]
        assert steady[1] < steady[0] and steady[2] <= steady[1]
    # The overlap shows in the occupancy: at depth 4 other cores issue during
    # the final-exp span, which a one-shot run never does.
    assert pipe["modes"]["split"]["c4"]["d4"]["final_exp_busy_cores"] > 1
    assert pipe["modes"]["split"]["c4"]["d1"]["final_exp_busy_cores"] == 1
    assert "Pipelined execution" in batch_verify.render(result)
