"""KernelSpec: the one validated description of a kernel to compile.

The literals here (two batched result digests, the ``describe()`` key orders)
were recorded at the commit *before* the compile knobs were folded into
``KernelSpec``; together with the digests in ``tests/test_eval_spec.py`` and
``tests/test_golden_outputs.py`` they pin the refactor's invariant: every
kernel is described, keyed and reported exactly as before.  (The split
batch-4 counts in the ``describe()`` table were re-recorded when the batched
kernels moved onto the single kernel's Miller walk: cycles 37 933 -> 38 130.)
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.compiler import pipeline
from repro.compiler.pipeline import (
    CompilerPipeline,
    KernelSpec,
    compile_kernel,
    compile_multi_pairing,
    compile_pairing,
    pairing_compile_digest,
    stage_modules,
)
from repro.compiler.store import ArtifactStore
from repro.errors import CompilerError, HardwareModelError, PairingError, SimulationError
from repro.fields.variants import VariantConfig
from repro.hw.presets import default_model
from repro.sim.cycle import CycleAccurateSimulator

FIELDS = {f.name for f in dataclasses.fields(KernelSpec)}
DEFAULTS = {f.name: f.default for f in dataclasses.fields(KernelSpec)}

#: Keyword entry points as ``(callable, its positional arguments after the curve)``.
ENTRY_POINTS = {
    "compile_pairing": (compile_pairing, ()),
    "compile_multi_pairing": (compile_multi_pairing, (2,)),
    "pairing_compile_digest": (pairing_compile_digest, ()),
    "stage_modules": (stage_modules, ()),
    "CompilerPipeline": (lambda curve, **knobs: CompilerPipeline(**knobs), ()),
}


# ---------------------------------------------------------------------------
# (1) Declared once
# ---------------------------------------------------------------------------

def test_the_eight_knobs():
    """Six spec fields; ``use_cache`` makes seven distinct compile keywords."""
    assert FIELDS == {
        "hw", "variant_config", "n_pairs", "split_accumulators", "final_exp_mode",
        "do_assemble",
    }


@pytest.mark.parametrize("fn", [compile_pairing, compile_multi_pairing,
                                pairing_compile_digest, stage_modules,
                                CompilerPipeline])
def test_entry_points_name_no_knob_but_the_positional_ones(fn):
    params = inspect.signature(fn).parameters
    assert params["knobs"].kind is inspect.Parameter.VAR_KEYWORD
    named = set(params) - {"curve", "use_cache", "knobs"}
    assert named <= {"n_pairs", "hw", "variant_config"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_accept_exactly_the_spec_fields(toy_bn, name):
    entry, args = ENTRY_POINTS[name]
    accepted = dict(DEFAULTS)
    if name in ("compile_pairing", "compile_multi_pairing"):
        del accepted["n_pairs"]         # its own argument: None here, positional there
    entry(toy_bn, *args, **accepted)
    for unknown in ("use_naf", "use_affinity", "optimize_ir", "record_trace",
                    "pipeline_depth", "include_baseline", "turbo"):
        with pytest.raises(TypeError, match=unknown):
            entry(toy_bn, *args, **{unknown: True})


def test_compile_pairing_is_the_single_kernel_only(toy_bn):
    with pytest.raises(TypeError, match="n_pairs"):
        compile_pairing(toy_bn, n_pairs=4)


# ---------------------------------------------------------------------------
# (2) Goldens recorded at the parent commit
# ---------------------------------------------------------------------------

def test_batched_digests_are_unchanged(toy_bn, hw1_small):
    """Both shapes of the batched key material (the literal ``pipeline_depth=1``
    stays in it): batch 4 shared on 1 core, batch 4 split on 2 cores."""
    assert pairing_compile_digest(toy_bn, hw=hw1_small.with_cores(1), n_pairs=4) == (
        "0318e02501b34993cec993357ad8e5dc56c00e03ff18d1f54653f391dfeb3807")
    split = compile_multi_pairing(toy_bn, 4, hw=hw1_small.with_cores(2),
                                  split_accumulators=True)
    assert pipeline._RESULT_CACHE.peek(
        "6911d41460b585e301f549149b95628716ac54f845e99ba969f6a7f61fe7cc42"
    ) is split


def test_describe_keys_are_unchanged(toy_bn, hw1_small):
    single = compile_pairing(toy_bn, hw=hw1_small)
    assert list(single.describe()) == [
        "curve", "hw", "variants", "hl_instructions", "init_instructions",
        "opt_instructions", "instr_reduction", "cycles", "ipc", "registers",
        "final_exp_mode", "compile_seconds"]
    batched_keys = [
        "curve", "kernel", "n_pairs", "accumulators", "accumulator_groups", "n_cores",
        "hw", "variants", "hl_instructions", "init_instructions", "opt_instructions",
        "cycles", "single_core_cycles", "cycles_per_pairing", "registers",
        "final_exp_mode", "compile_seconds"]
    hw = hw1_small.with_cores(2)
    split = compile_multi_pairing(toy_bn, 4, hw=hw, split_accumulators=True)
    assert list(split.describe()) == batched_keys
    summary = dict(split.describe(), compile_seconds=None)
    assert summary == {
        "curve": "TOY-BN42", "kernel": "multi_pairing", "n_pairs": 4,
        "accumulators": "split", "accumulator_groups": 2, "n_cores": 2, "hw": "HW1",
        "variants": "all-karatsuba", "hl_instructions": 2289, "init_instructions": 63894,
        "opt_instructions": 47329, "cycles": 38130, "single_core_cycles": 49290,
        "cycles_per_pairing": 9532.5, "registers": 692, "final_exp_mode": "generic",
        "compile_seconds": None}


# ---------------------------------------------------------------------------
# (3) One result class, one cache entry
# ---------------------------------------------------------------------------

def test_keyword_and_spec_entry_points_share_one_cache_entry(toy_bn):
    assert compile_pairing(toy_bn) is compile_kernel(toy_bn, KernelSpec())
    hw = default_model(toy_bn.params.p.bit_length()).with_cores(2)
    batched = compile_multi_pairing(toy_bn, 2, hw=hw, do_assemble=False)
    assert batched is compile_kernel(
        toy_bn, KernelSpec(hw=hw, n_pairs=2, do_assemble=False))


def test_result_carries_the_resolved_spec(toy_bn):
    single = compile_pairing(toy_bn, do_assemble=False)
    # (cache_key, not ==: the digest ignores the model's name, so an equal
    # model compiled earlier under another name may serve this call)
    assert single.spec.hw.cache_key() == default_model(toy_bn.params.p.bit_length()).cache_key()
    assert single.spec.variant_config.cache_key() == VariantConfig.all_karatsuba().cache_key()
    assert single.spec.do_assemble is False and single.program is None
    assert single.hw is single.spec.hw and single.n_pairs is None
    assert single.multicore_stats is None
    assert single.cycles == single.cycle_stats.total_cycles == single.single_core_cycles
    assert single.cycles_per_pairing == float(single.cycles)
    assert single.accumulator_groups == 1
    with pytest.raises(AttributeError, match="use_naf"):
        single.use_naf


def test_batched_result_round_trips_through_the_store(tmp_path, toy_bn, hw1_small):
    hw = hw1_small.with_cores(2)
    result = compile_multi_pairing(toy_bn, 4, hw=hw, split_accumulators=True)
    store = ArtifactStore(tmp_path / "store")
    key = pairing_compile_digest(toy_bn, hw=hw, n_pairs=4, split_accumulators=True)
    assert store.store(key, result)
    loaded = store.load(key)
    assert loaded is not result and type(loaded) is type(result)
    assert loaded.cycles == result.cycles == result.multicore_stats.total_cycles
    assert loaded.multicore_stats == result.multicore_stats
    # A depth is no part of the kernel: the reloaded schedule walks to the
    # very same pipelined score as the original's.
    simulator = CycleAccurateSimulator()
    deep = simulator.run_pipelined(loaded.schedule, 2, 2)
    assert deep == simulator.run_pipelined(result.schedule, 2, 2)
    assert deep.steady_cycles_per_batch < loaded.cycles
    assert loaded.hw == result.hw and loaded.hw.n_cores == 2
    assert (loaded.n_pairs, loaded.split_accumulators) == (4, True)
    assert loaded.describe() == result.describe()


# ---------------------------------------------------------------------------
# (4) The value itself
# ---------------------------------------------------------------------------

def test_spec_is_a_value(toy_bn, hw1_small):
    config = VariantConfig.all_karatsuba()
    spec = KernelSpec(hw=hw1_small, variant_config=config, n_pairs=4, final_exp_mode="cyclotomic")
    twin = KernelSpec(hw=hw1_small, variant_config=config, n_pairs=4, final_exp_mode="cyclotomic")
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != dataclasses.replace(spec, n_pairs=3)
    assert pickle.loads(pickle.dumps(spec)).digest(toy_bn) == spec.digest(toy_bn)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n_pairs = 3
    assert spec.resolved(toy_bn) is spec


def test_resolved_fills_the_defaults(toy_bn):
    spec = KernelSpec().resolved(toy_bn)
    assert spec.hw == default_model(toy_bn.params.p.bit_length())
    assert spec.variant_config.cache_key() == VariantConfig.all_karatsuba().cache_key()
    assert KernelSpec().digest(toy_bn) == spec.digest(toy_bn)
    assert KernelSpec(n_pairs=2, split_accumulators=True).resolved(
        toy_bn).accumulator_groups == spec.hw.n_cores


def test_stage_modules_are_the_pipelines_own(toy_bn):
    hl, low, opt = stage_modules(toy_bn)
    result = compile_pairing(toy_bn)
    assert hl.count_compute_ops() == result.hl_instructions
    assert low.count_compute_ops() == result.initial_instructions
    assert opt.count_compute_ops() == result.final_instructions
    assert stage_modules(toy_bn)[2] is opt


# ---------------------------------------------------------------------------
# (5) The compile boundary fails loudly (each of these fails at the parent)
# ---------------------------------------------------------------------------

def test_string_accumulator_mode_no_longer_compiles_the_split_kernel(toy_bn):
    with pytest.raises(CompilerError, match="split_accumulators"):
        compile_multi_pairing(toy_bn, 2, split_accumulators="shared")


@pytest.mark.parametrize("flag, value", [
    ("do_assemble", 0), ("split_accumulators", "split"),
])
def test_non_bool_flags_no_longer_mint_a_second_digest(toy_bn, flag, value):
    with pytest.raises(CompilerError, match=flag):
        pairing_compile_digest(toy_bn, **{flag: value})


@pytest.mark.parametrize("bad", [0, -3, True, 2.0, "4"])
def test_batch_size_is_validated_on_every_entry(toy_bn, bad):
    for entry in (CompilerPipeline, KernelSpec,
                  lambda **knobs: pairing_compile_digest(toy_bn, **knobs)):
        with pytest.raises(CompilerError):
            entry(n_pairs=bad)


def test_knobs_are_refused_on_the_wrong_kernel_kind(toy_bn):
    with pytest.raises(CompilerError):
        compile_pairing(toy_bn, split_accumulators=True)


def test_existing_checks_keep_their_exception_classes(toy_bn):
    with pytest.raises(PairingError):
        KernelSpec(final_exp_mode="turbo")
    batched = compile_multi_pairing(toy_bn, 2, do_assemble=False)
    for bad_depth in (0, True):
        with pytest.raises(SimulationError):
            CycleAccurateSimulator().run_pipelined(batched.schedule, 2, bad_depth)
    with pytest.raises(CompilerError):
        compile_multi_pairing(toy_bn, None)
    with pytest.raises(HardwareModelError):
        KernelSpec(hw=dataclasses.replace(
            default_model(toy_bn.params.p.bit_length()), issue_width=0))
