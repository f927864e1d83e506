"""Backend: bank allocation, scheduling, register allocation, assembly, simulators."""

import hashlib
from dataclasses import replace

import pytest
from schedule_checker import check_allocation, check_walk_stats

from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import compile_pairing
from repro.compiler.regalloc import allocate_registers
from repro.compiler.schedule import (
    ScheduledProgram,
    affinity_schedule,
    program_order_schedule,
    unit_of,
)
from repro.errors import HardwareModelError, ISAError, SimulationError
from repro.hw.model import HardwareModel
from repro.hw.presets import default_model, figure10_models, paper_hw1, paper_hw2
from repro.ir.module import IRModule
from repro.isa.encoding import ENCODING_32, ENCODING_64, decode_word, encode_word, select_encoding
from repro.isa.instructions import ISA_BY_NAME, ir_op_to_machine_op
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator


# ---------------------------------------------------------------------------
# Hardware model
# ---------------------------------------------------------------------------

def test_hardware_model_validation():
    default_model(256).validate()
    with pytest.raises(HardwareModelError):
        HardwareModel(short_latency=50, long_latency=20).validate()
    with pytest.raises(TypeError):                 # one multiplier per core, by structure
        HardwareModel(n_mul_units=2)
    with pytest.raises(HardwareModelError):
        HardwareModel(issue_width=2, n_banks=1).validate()
    with pytest.raises(HardwareModelError):
        HardwareModel(issue_width=2, n_banks=2, has_writeback_fifo=False).validate()
    with pytest.raises(HardwareModelError):
        HardwareModel(bank_read_ports=1).validate()
    with pytest.raises(TypeError):                 # one write per bank per cycle, by structure
        HardwareModel(bank_write_ports=2)


def test_hardware_model_helpers():
    hw = default_model(254)
    assert hw.latency_of_unit("long") == 38
    assert hw.latency_of_unit("short") == 8
    assert hw.units_of_kind("long") == 1
    assert hw.with_fifo(True).has_writeback_fifo
    assert hw.with_cores(8).n_cores == 8
    assert hw.with_long_latency(20).long_latency == 20
    assert hw.cache_key() != hw.with_fifo(True).cache_key()
    with pytest.raises(HardwareModelError):
        hw.latency_of_unit("vector")


def test_presets():
    assert paper_hw1(254).has_writeback_fifo is False
    assert paper_hw2(254).has_writeback_fifo is True
    models = figure10_models(520)
    assert len(models) == 5
    assert models[-1].issue_width == 6


# ---------------------------------------------------------------------------
# ISA encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", [ENCODING_32, ENCODING_64])
def test_encode_decode_roundtrip(fmt):
    op = ISA_BY_NAME["MUL"]
    word = encode_word(fmt, op, 5, 17, 200)
    decoded = decode_word(fmt, word)
    assert decoded == (op, 5, 17, 200)


def test_encoding_limits():
    assert select_encoding(100) is ENCODING_32
    assert select_encoding(1000) is ENCODING_64
    with pytest.raises(ISAError):
        encode_word(ENCODING_32, ISA_BY_NAME["ADD"], 1 << 10, 0, 0)
    with pytest.raises(ISAError):
        select_encoding(1 << 20)
    with pytest.raises(ISAError):
        ir_op_to_machine_op("frob")


def test_ir_to_machine_mapping():
    assert ir_op_to_machine_op("mul").unit == "long"
    assert ir_op_to_machine_op("add").unit == "short"
    assert ir_op_to_machine_op("inv").unit == "inv"


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def _chain_module(length=6):
    """A dependent chain of multiplications (no ILP at all)."""
    module = IRModule(level="low")
    x = module.emit("input", (), attr="x")
    prev = x
    for _ in range(length):
        prev = module.emit("mul", (prev, prev))
    module.emit("output", (prev,), attr="out")
    return module


def test_schedule_contains_every_instruction(compiled_toy_bn):
    schedule = compiled_toy_bn.schedule
    assert len(schedule.order) == len(set(schedule.order)) == compiled_toy_bn.final_instructions
    assert sum(schedule.bundle_sizes) == len(schedule.order)
    assert all(0 < size <= schedule.hw.issue_width for size in schedule.bundle_sizes)
    # ``bundles`` is the order cut by the sizes, built on each read.
    assert [len(bundle) for bundle in schedule.bundles] == schedule.bundle_sizes
    assert [vid for bundle in schedule.bundles for vid in bundle] == schedule.order


def test_scheduler_respects_dependencies():
    module = _chain_module(5)
    hw = default_model(64)
    banks = allocate_banks(module, hw)
    schedule = affinity_schedule(module, hw, banks)
    stats = CycleAccurateSimulator().run(schedule)
    # A pure dependency chain cannot be overlapped: every mul waits for the previous.
    assert stats.total_cycles >= 5 * hw.long_latency
    assert stats.ipc <= 0.2


def test_scheduling_beats_program_order(compiled_toy_bn, baseline_toy_bn):
    baseline = baseline_toy_bn
    scheduled = compiled_toy_bn.cycle_stats
    assert scheduled.total_cycles < baseline.total_cycles
    assert scheduled.ipc > 2 * baseline.ipc


def test_fifo_removes_writeback_stalls(toy_bn):
    hw1 = paper_hw1(toy_bn.params.p.bit_length())
    hw2 = paper_hw2(toy_bn.params.p.bit_length())
    r1 = compile_pairing(toy_bn, hw=hw1)
    r2 = compile_pairing(toy_bn, hw=hw2)
    assert r2.cycles <= r1.cycles
    assert r2.cycle_stats.writeback_stalls == 0


def test_unit_classification():
    assert unit_of("mul") == "long"
    assert unit_of("sqr") == "long"
    assert unit_of("add") == "short"
    assert unit_of("inv") == "inv"


def test_unit_classification_rejects_unknown_ops():
    """Ops outside _SCHEDULED_OPS must raise, not slip through as unit-free
    schedulable work (they would occupy issue slots with no unit pressure)."""
    import pytest

    from repro.errors import CompilerError

    for op in ("pack", "ext", "frob", "conj", "input", "const", "output", "bogus"):
        with pytest.raises(CompilerError):
            unit_of(op)


def test_vliw_schedule_packs_multiple_ops(toy_bn):
    vliw = figure10_models(toy_bn.params.p.bit_length())[-1]
    result = compile_pairing(toy_bn, hw=vliw, do_assemble=False)
    assert max(result.schedule.bundle_sizes) > 1
    assert result.ipc > 1.0


def test_vliw_bundle_pairs_an_inv_with_a_long_op():
    # The mul exhausts the one mmul unit, but the inv queued behind it in the
    # same ready queue has a unit of its own: the scan must still reach it.
    module = IRModule(level="low")
    x = module.emit("input", (), attr="x")
    y = module.emit("input", (), attr="y")
    product = module.emit("mul", (x, x))
    inverse = module.emit("inv", (y,))
    module.emit("output", (product,), attr="product")
    module.emit("output", (inverse,), attr="inverse")
    hw = figure10_models(64)[2]          # L8-S2-lin2: two issue slots
    banks = [0, 1, 0, 1, 0, 1]
    schedule = affinity_schedule(module, hw, banks)
    assert (schedule.order, schedule.bundle_sizes) == ([product, inverse], [2])


def test_program_order_schedule_matches_instruction_count(compiled_toy_bn):
    module = compiled_toy_bn.schedule.module
    hw = compiled_toy_bn.hw
    banks = allocate_banks(module, hw)
    baseline = program_order_schedule(module, hw, banks)
    assert baseline.instruction_count == compiled_toy_bn.final_instructions


# ---------------------------------------------------------------------------
# Register allocation and assembly
# ---------------------------------------------------------------------------

def test_register_allocation_is_consistent(compiled_toy_bn):
    allocation = allocate_registers(compiled_toy_bn.schedule)
    hw = compiled_toy_bn.hw
    assert set(allocation.registers_per_bank) <= set(range(hw.n_banks))
    # Far fewer registers than SSA values thanks to liveness-based reuse.
    assert allocation.total_registers < compiled_toy_bn.final_instructions / 10
    banks = compiled_toy_bn.schedule.banks
    module = compiled_toy_bn.schedule.module
    assert len(allocation.register_of) == len(banks) == len(module)
    for op, bank, slot in zip(module.ops, banks, allocation.register_of):
        assert 0 <= bank < hw.n_banks
        if op == "output":
            assert slot == -1           # an alias of its operand: no register
        else:
            assert 0 <= slot < allocation.registers_per_bank[bank]


def test_assembled_program_structure(compiled_toy_bn):
    program = compiled_toy_bn.program
    assert program.instruction_count == compiled_toy_bn.final_instructions
    assert program.binary_size_bits() == program.bundle_count * program.issue_width * program.encoding.word_bits
    words = program.encoded_words()
    assert len(words) == program.bundle_count * program.issue_width
    hexes = program.to_hex(limit=16)
    assert len(hexes) == 16 and all(len(h) == program.encoding.word_bits // 4 for h in hexes)
    text = program.disassemble(limit=5)
    assert "MUL" in text or "ADD" in text or "SQR" in text
    # Every instruction word decodes back to a known op.
    op, rd, rs1, rs2 = decode_word(program.encoding, words[0])
    assert op.name in ISA_BY_NAME


def test_functional_simulator_rejects_missing_inputs(compiled_toy_bn, toy_bn):
    from repro.errors import SimulationError

    sim = FunctionalSimulator(compiled_toy_bn.program, toy_bn.params.p)
    with pytest.raises(SimulationError):
        sim.run({})


# ---------------------------------------------------------------------------
# Cycle-accurate simulator micro-behaviour
# ---------------------------------------------------------------------------

#: sha256 of ``repr((issue order, bundle sizes, planned_cycles))`` of the TOY-BN42
#: single-pairing schedule on each preset: the schedule itself, not only what
#: the encoded words and the walks make of it.
SCHEDULE_DIGESTS = {
    "paper-default": "8b77911ef9cceb165a7efd07821c64999d86e50cac583bc67d32b3f0d45e2971",
    "HW1": "8b77911ef9cceb165a7efd07821c64999d86e50cac583bc67d32b3f0d45e2971",
    "HW2": "2e70c0ad2a9ff796a113be64dfb0eb5257ec9ecf56486c419f80bac46a6b67be",
    "L38-S8-lin1": "8b77911ef9cceb165a7efd07821c64999d86e50cac583bc67d32b3f0d45e2971",
    "L8-S2-lin1": "0ee181fbeb6403be977cdb482a61b30914cb1bbb2242e46331b9c89c312b505f",
    "L8-S2-lin2": "e18bc3182d5a4b81fc1cdaf4a5c5f89638469401de53c3b04d5c5ab0520cb55c",
    "L8-S2-lin4": "1694c585052b73c4dcd7dbac7cf2d2bd08f560b17926c0eeb406c0a69bcc8ae3",
    "L8-S2-lin6": "cdec4ec4160ae7e3c4b2749aa6a0cfb4402a26d70f26d8acf8d69d602b1849ec",
}


@pytest.mark.parametrize("hw_name", ["paper-default", "HW1", "HW2"]
                         + [model.name for model in figure10_models()])
def test_planned_cycles_equal_bundle_walk(toy_bn, hw_name):
    # PackSched plans with the constraint model the bundle walk replays, so a
    # schedule never stalls in the walk: the two cycle counts are one number.
    width = toy_bn.params.p.bit_length()
    models = [default_model(width), paper_hw1(width), paper_hw2(width)] + figure10_models(width)
    hw = next(model for model in models if model.name == hw_name)
    schedule = compile_pairing(toy_bn, hw=hw).schedule
    stats = CycleAccurateSimulator(record_trace=True).run(schedule)
    assert schedule.planned_cycles == stats.total_cycles
    # The independent checker (``tests/schedule_checker.py``) accepts the walk
    # and the register allocation.
    assert check_walk_stats(schedule, stats) == []
    assert check_allocation(schedule, allocate_registers(schedule)) == []
    order = [vid for bundle in schedule.bundles for vid in bundle]
    sizes = [len(bundle) for bundle in schedule.bundles]
    pinned = repr((order, sizes, schedule.planned_cycles)).encode()
    assert hashlib.sha256(pinned).hexdigest() == SCHEDULE_DIGESTS[hw_name]


@pytest.mark.parametrize("hw_name", ["paper-default", "HW2", "L8-S2-lin1"])
def test_one_core_stream_walk_is_the_bundle_walk_on_single_issue_models(toy_bn, hw_name):
    # With one core and one issue slot the stream engine degenerates to the
    # bundle walk: same cycles, same stalls (L8-S2-lin1 retires short ops two
    # cycles after issue, so a write-back slot is live for only a few cycles).
    width = toy_bn.params.p.bit_length()
    models = [default_model(width), paper_hw2(width)] + figure10_models(width)
    hw = next(model for model in models if model.name == hw_name)
    schedule = compile_pairing(toy_bn, hw=hw).schedule
    bundle_walk = CycleAccurateSimulator().run(schedule)
    stream_walk = CycleAccurateSimulator().run_multicore(schedule, 1)
    assert [stats.total_cycles for stats in (bundle_walk, stream_walk)] == [schedule.planned_cycles] * 2
    assert (stream_walk.data_stalls, stream_walk.writeback_stalls, stream_walk.structural_stalls) == (
        bundle_walk.data_stalls, bundle_walk.writeback_stalls, bundle_walk.structural_stalls)


def test_cycle_sim_dependent_latency():
    module = IRModule(level="low")
    x = module.emit("input", (), attr="x")
    a = module.emit("mul", (x, x))
    b = module.emit("add", (a, a))
    module.emit("output", (b,), attr="out")
    hw = default_model(64)
    banks = allocate_banks(module, hw)
    schedule = program_order_schedule(module, hw, banks)
    stats = CycleAccurateSimulator(record_trace=True).run(schedule)
    # The add must wait for the multiplier's 38-cycle latency.
    assert stats.total_cycles >= hw.long_latency + hw.short_latency
    assert stats.data_stalls >= hw.long_latency - 1
    assert stats.trace is not None
    histogram = stats.trace.histogram()
    assert histogram["long"] == 1 and histogram["short"] == 1
    assert stats.describe()["cycles"] == stats.total_cycles


def _bundled(module, hw, bundle):
    banks = [0] * len(module)
    return ScheduledProgram(module=module, hw=hw, banks=banks, order=list(bundle),
                            bundle_sizes=[len(bundle)], planned_cycles=0)


def test_bundle_walk_refuses_a_bundle_its_model_cannot_issue(toy_bn):
    # L8-S2-lin2 packs two ops into one bundle; the default model has one issue
    # slot and one linear unit.  The walk used to retry such a bundle forever.
    width = toy_bn.params.p.bit_length()
    schedule = compile_pairing(toy_bn, hw=figure10_models(width)[2]).schedule
    assert max(schedule.bundle_sizes) == 2
    with pytest.raises(SimulationError, match="paper-default"):
        CycleAccurateSimulator(hw=default_model(width)).run(schedule)

    module = IRModule(level="low")
    x = module.emit("input", (), attr="x")
    product = module.emit("mul", (x, x))
    total = module.emit("add", (x, x))
    double = module.emit("dbl", (x,))
    # [long, short] is wider than a single-issue model ...
    with pytest.raises(SimulationError, match="2 issue slots"):
        CycleAccurateSimulator().run(_bundled(module, default_model(64), [product, total]))
    # ... and [short, short] needs two linear units of a 2-issue model with one.
    two_issue = HardwareModel(name="2-issue-lin1", issue_width=2, n_banks=2,
                              has_writeback_fifo=True)
    with pytest.raises(SimulationError, match="2-issue-lin1"):
        CycleAccurateSimulator().run(_bundled(module, two_issue, [total, double]))
    assert CycleAccurateSimulator().run(_bundled(module, two_issue, [product, total])).total_cycles == 38
    # The model itself is validated first: a VLIW model needs the FIFO.
    with pytest.raises(HardwareModelError):
        CycleAccurateSimulator(hw=replace(two_issue, has_writeback_fifo=False)).run(
            _bundled(module, two_issue, [product]))
