"""Software-path outputs and compiled binaries pinned bit for bit.

The digests were recorded on the commit *before* extension elements became
flat residue tuples with generated kernels (nested ``FpElement`` objects,
interpreted variant formulas).  Representation and kernel changes must
reproduce them exactly: the seeded points also pin the RNG consumption order
of ``field.random`` and the square-root / cofactor paths behind
``random_g1`` / ``random_g2``.

The ``KERNEL_DIGESTS`` were recorded on the commit *before* the low-level IR
became columnar (one ``Instruction`` object per F_p op, ``MachineInstruction``
/ ``Bundle`` objects in the assembled program): ``tools/kernel_digest.py``
hashes the encoded words, constant table, I/O maps, per-bank registers and
cycle statistics, so any change of instruction order, bank, bundle, issue
cycle or register slot anywhere in the back end moves them.

The BLS24 entries (``bls24-79/all-schoolbook``, ``BLS24_LEVEL_DIGESTS``) were
recorded on the commit *before* the Python-kernel generator and the IR
lowering became two leaves of one tower recursion: the four-step tower and the
schoolbook formulas are the paths no other golden walks, and that tower's
generated kernels are the ones that changed most.

The two ``batch4/*`` entries were re-recorded, on purpose, on the commit that
made the batched kernels trace the single kernel's Miller walk
(``repro.pairing.miller.miller_walk``): the program order of a batched kernel
changed (every source steps before the shared squaring, conjugate before
negating ``T``), its cycle counts by under 1 %; ``test_one_miller_walk.py``
pins what replaced them as the invariant -- a batch of one *is* the single
kernel.
"""

import hashlib
import importlib.util
import os
import random

import pytest
from schedule_checker import check_allocation, check_walk_stats

from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import compile_multi_pairing, compile_pairing, stage_modules
from repro.compiler.regalloc import allocate_registers
from repro.compiler.schedule import program_order_schedule
from repro.curves.catalog import get_curve
from repro.dse.space import named_variant_configs
from repro.hw.presets import default_model, figure10_models
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import multi_pairing
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import FINAL_EXP_MODES, easy_part, hard_part
from repro.pairing.miller import miller_loop
from repro.sim.cycle import CycleAccurateSimulator

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


#: degree -> digests of (inverse, frobenius(1)) of one seeded element per
#: extension level of TOY-BLS24-79.
BLS24_LEVEL_DIGESTS = {
    2: ("fa4120dab766d9b8ebb0b3a2a3b00db2817a80545e4840c51a5bfdcd5a25d918",
        "d9fcc2268db90cbe1e31504272f403840d1f04188d47d95e7d479ffaf01891cd"),
    4: ("ae9ff441f0d2260877ade4f060d27ffaae85c922e572a4b6df65ae1962dac603",
        "90d2f3678e8d4f6bfc7b88f27d7fb9000abd6833fe94999c39e3e948b912dd7b"),
    12: ("63bf7b367175fda8286a42dd5aaaa69bb741d1aed79d8eff733161c28747ce1c",
         "5c94e9b6a4840d6e3872a899720dad530af7325d396b42fdd497c74668c951fb"),
    24: ("f36a4a8a1acb0f0eab7bb2f3b869fb76db07049d41d911ab142f43933791f950",
         "b99e765c0a37413dd1bcd13063b9edd05f642e98e005c5e243ba576cc80b8a43"),
}


@pytest.mark.parametrize("degree", sorted(BLS24_LEVEL_DIGESTS))
def test_bls24_tower_inverse_and_frobenius_are_unchanged(degree):
    x = get_curve("TOY-BLS24-79").tower.level(degree).random(random.Random(SEED))
    assert (_digest(x.inverse()), _digest(x.frobenius(1))) == BLS24_LEVEL_DIGESTS[degree]


@pytest.mark.parametrize("mode", FINAL_EXP_MODES)
def test_hard_part_output_is_unchanged(mode):
    curve = get_curve("TOY-BN42")
    P, Q = _seeded_pairs(curve, 1)[0]
    ctx = ConcretePairingContext(curve)
    f = easy_part(ctx, miller_loop(ctx, (P.x, P.y), (Q.x, Q.y)))
    assert _digest(hard_part(ctx, f, mode=mode)) == PAIRING_DIGESTS["TOY-BN42"][0]


_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "kernel_digest.py")
_spec = importlib.util.spec_from_file_location("kernel_digest", _TOOL)
_kernel_digest_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_kernel_digest_tool)
kernel_digest = _kernel_digest_tool.kernel_digest

KERNEL_DIGESTS = {
    "manual/L38-S8-lin1": "51c9e6e73c6ca2cbaabbd4b0615892369532e8db2ec3fb69c27420e8c907be84",
    "manual/L8-S2-lin1": "8e1fe612bcdf956ad6385cbaaf00b315990db6852c03745a208b3bdf1a51f7d9",
    "manual/L8-S2-lin2": "766654364557ba9af0b6df2727d1931ef2811b78af057f172cc9fa43407c2825",
    "all-schoolbook/L38-S8-lin1": "3abca0948509a78c38b23d8e8724435451156619d11f43c52588428bbe6edbfe",
    "all-schoolbook/L8-S2-lin1": "4217c4e179b4d302b87e65b02ce032e26b672895869f06cdd92a29e1540ac372",
    "all-schoolbook/L8-S2-lin2": "0f6963e003317587106f4282c58fb477b1e41037f5890e0df211cffa61b56142",
    "all-karatsuba/L38-S8-lin1": "a1ee29b87236efb34ba807e49750a1061a883a63a3da00a82699c8e5d91519cc",
    "all-karatsuba/L8-S2-lin1": "9db275b09c71cbf0edaa5b5a7a704b91089b24e3b6153361c93257c4295e13da",
    "all-karatsuba/L8-S2-lin2": "c9c0c7068d6a6bd72c867b74ba451548bae1b446853bdf27d6859a7690a03b99",
    "batch4/shared/depth2": "3d6c174b7627b37a07aa0e501f84d0e11839a6be318461dd95c3c7ff432e76d4",
    "batch4/split/depth1": "d9ef571d3429407c1e0559555dd83fb05350b5902d3622fffc4171c9553a723e",
    "bls12-54/generic": "9fd74c129d36e13aad7a12d5742237576b2d053497f9a90fcf50950eb4902bb5",
    "bls12-54/cyclotomic": "bef3edf38b9773d4ce4e9aa9ad395e734175db1c69324eef7eaec7ac55eec6a7",
    "bls12-54/compressed": "1f2c5e26c7318ce76c9e5b7d0ba734ede8b49cb52cdca2c1d746b3a1fda5effd",
    "BLS12-381": "c330fcb599181d8d6317d23812ee4bdeecee0561665287b63d08df3d37635aa6",
    "bls24-79/all-schoolbook": "e90d65ed14aecc28a27bf2d7bf82e8231e374c71ec5b41028f3c3977e475a998",
}


def _assert_walk_is_legal(schedule):
    """The independent checker (``tests/schedule_checker.py``) accepts the
    traced bundle walk of a pinned kernel's schedule and its register
    allocation."""
    stats = CycleAccurateSimulator(record_trace=True).run(schedule)
    assert check_walk_stats(schedule, stats) == []
    assert check_allocation(schedule, allocate_registers(schedule)) == []


@pytest.mark.parametrize("variants", sorted(named_variant_configs()))
@pytest.mark.parametrize("hw_index", range(3))
def test_toy_bn_kernel_binaries_are_unchanged(variants, hw_index):
    curve = get_curve("TOY-BN42")
    hw = figure10_models(curve.params.p.bit_length())[hw_index]
    result = compile_pairing(curve, hw=hw, variant_config=named_variant_configs()[variants],
                             use_cache=False)
    assert kernel_digest(result) == KERNEL_DIGESTS[f"{variants}/{hw.name}"]
    _assert_walk_is_legal(result.schedule)


@pytest.mark.parametrize("accumulators, depth", [("shared", 2), ("split", 1)])
def test_toy_bn_batch4_kernel_binaries_are_unchanged(accumulators, depth):
    curve = get_curve("TOY-BN42")
    hw = default_model(curve.params.p.bit_length()).with_cores(2)
    result = compile_multi_pairing(curve, 4, hw=hw, use_cache=False,
                                   split_accumulators=accumulators == "split")
    assert kernel_digest(result, depth=depth) == KERNEL_DIGESTS[f"batch4/{accumulators}/depth{depth}"]
    _assert_walk_is_legal(result.schedule)


@pytest.mark.parametrize("mode", FINAL_EXP_MODES)
def test_toy_bls12_kernel_binaries_are_unchanged(mode):
    result = compile_pairing(get_curve("TOY-BLS12-54"), use_cache=False, final_exp_mode=mode)
    assert kernel_digest(result) == KERNEL_DIGESTS[f"bls12-54/{mode}"]
    _assert_walk_is_legal(result.schedule)


def test_toy_bls24_schoolbook_kernel_binary_is_unchanged():
    result = compile_pairing(get_curve("TOY-BLS24-79"), use_cache=False,
                             variant_config=named_variant_configs()["all-schoolbook"])
    assert kernel_digest(result) == KERNEL_DIGESTS["bls24-79/all-schoolbook"]
    _assert_walk_is_legal(result.schedule)


#: Single-pairing kernels whose scheduling paths no ``KERNEL_DIGESTS`` entry
#: reaches: the 4- and 6-issue queue scans of PackSched and the single-issue
#: write-back FIFO model (``tools/kernel_digest.py TOY-BN42 --hw NAME``, first
#: line).
SCHEDULER_PATH_DIGESTS = {
    "L8-S2-lin4": "472464000ffd1cefbd9374d1992fcb5e814baefa01a28bd7b847dccb61802dbf",
    "L8-S2-lin6": "1ac05ed34f41eb17f46ca37f6d9b29243cd7d512bba70e6d7b390878f055652c",
    "HW2": "a63e23209f1a88ad0ee86b5c124df75b071d6184d28bfcc300462bebdb027b42",
}

#: sha256 over the ``record_trace=True`` issue-trace codes and the
#: ``instance_start_cycles`` of the bundle walk, which ``kernel_digest`` does
#: not hash (TOY-BN42, all-karatsuba).
ISSUE_TRACE_DIGESTS = {
    "default": "fb0cafd09d5369bd08bc744533d919e0716fdb294e16ed8b92d899600cf09cf0",
    "L8-S2-lin4": "bf29d95250cb64308e0d1cc8d5e91d44005126d2dffac0af3030bd58c9c110a6",
}

#: sha256 over ``describe()``, the ``record_trace=True`` issue-trace codes and
#: the ``instance_start_cycles`` of the bundle walk over the unscheduled
#: baseline: the lowered module in program order, one op per bundle (Table 7's
#: "IPC init"; TOY-BN42, all-karatsuba).  Both models stall on data only, so
#: the two walks agree.
BASELINE_WALK_DIGESTS = {
    "default": "42c584b955078a897b94eb3e41fe06f18f6fb97b75c7d8c2cc91d24a1fbf0a7a",
    "HW2": "42c584b955078a897b94eb3e41fe06f18f6fb97b75c7d8c2cc91d24a1fbf0a7a",
}


def _toy_bn_preset(name):
    curve = get_curve("TOY-BN42")
    return curve, _kernel_digest_tool.hardware_presets(curve.params.p.bit_length())[name]


@pytest.mark.parametrize("hw_name", sorted(SCHEDULER_PATH_DIGESTS))
def test_toy_bn_scheduler_path_kernel_binaries_are_unchanged(hw_name):
    curve, hw = _toy_bn_preset(hw_name)
    result = compile_pairing(curve, hw=hw, variant_config=named_variant_configs()["all-karatsuba"],
                             use_cache=False)
    assert kernel_digest(result) == SCHEDULER_PATH_DIGESTS[hw_name]


@pytest.mark.parametrize("hw_name", sorted(ISSUE_TRACE_DIGESTS))
def test_toy_bn_issue_trace_is_unchanged(hw_name):
    curve, hw = _toy_bn_preset(hw_name)
    schedule = compile_pairing(curve, hw=hw,
                               variant_config=named_variant_configs()["all-karatsuba"]).schedule
    stats = CycleAccurateSimulator(record_trace=True).run(schedule)
    digest = hashlib.sha256(repr([stats.trace.codes, stats.instance_start_cycles]).encode())
    assert digest.hexdigest() == ISSUE_TRACE_DIGESTS[hw_name]


@pytest.mark.parametrize("hw_name", sorted(BASELINE_WALK_DIGESTS))
def test_toy_bn_baseline_walk_is_unchanged(hw_name):
    curve, hw = _toy_bn_preset(hw_name)
    lowered = stage_modules(curve, hw=hw,
                            variant_config=named_variant_configs()["all-karatsuba"])[1]
    schedule = program_order_schedule(lowered, hw, allocate_banks(lowered, hw))
    stats = CycleAccurateSimulator(record_trace=True).run(schedule)
    digest = hashlib.sha256(repr([stats.describe(), stats.trace.codes,
                                  stats.instance_start_cycles]).encode())
    assert digest.hexdigest() == BASELINE_WALK_DIGESTS[hw_name]
    assert check_walk_stats(schedule, stats) == []
    assert check_allocation(schedule, allocate_registers(schedule)) == []


def test_bls12_381_kernel_model_is_unchanged():
    # Lowering reads the tower constants (xi, Frobenius tables) through the
    # derived ``ExtElement.coeffs`` view; a wrong view changes the kernel.
    curve = get_curve("BLS12-381")
    result = compile_pairing(curve, use_cache=False)
    assert (result.cycles, result.imem_bits) == (122139, 3692320)
    assert kernel_digest(result) == KERNEL_DIGESTS["BLS12-381"]
    _assert_walk_is_legal(result.schedule)
