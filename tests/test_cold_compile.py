"""What a cold compile pays: lowering by template instantiation, no collector.

``lower_module`` scalarises each *kind* of tower operation once, over a
recording leaf, and splices the recorded rows at every use
(``repro.ir.lowering._Template`` / ``_Lowerer.instantiate`` /
``IRModule.splice``); the stage sequence runs with the cyclic collector paused.
Neither may change one row of one module.

``LOWERED_DIGESTS`` were recorded on the commit *before* templates, when every
F_p row was one ``emit`` of the recursion re-run per high-level op:
``tools/kernel_digest.lowered_digest`` hashes the seven columns, ``inputs``,
``outputs``, ``compute_ops`` and ``meta`` of the lowered module, so a constant
pooled one row early, a lane stamped from the wrong place or a miscounted
compute op moves them.  The row-by-row walk itself still exists -- the
recursion over ``_Lowerer`` directly -- and is the reference the instantiation
is checked against block for block.
"""

import gc
import tracemalloc
import zlib

import pytest
from test_golden_outputs import _kernel_digest_tool     # tools/kernel_digest.py, loaded once

from repro.compiler import pipeline
from repro.compiler.codegen import generate_multi_pairing_ir, generate_pairing_ir
from repro.compiler.pipeline import clear_caches, compile_cache_stats, compile_pairing
from repro.compiler.store import configure_store
from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.space import design_points, named_variant_configs
from repro.errors import IRError
from repro.fields.scalarise import TowerScalariser
from repro.fields.variants import VariantConfig
from repro.hw.presets import figure10_models
from repro.ir import lowering
from repro.ir.lowering import lower_module
from repro.ir.module import IRModule
from repro.pairing.final_exp import FINAL_EXP_MODES

lowered_digest = _kernel_digest_tool.lowered_digest

#: ``curve/variants/final-exp mode/shape``.
LOWERED_DIGESTS = {
    "TOY-BN42/all-karatsuba/generic/single": "4282e2263cd2679e2d141dd64100b14a907bbe0f1dbbee8f9048ca12e5deef45",
    "TOY-BN42/all-karatsuba/generic/batch2": "63b4e7f9a88fc040ea97be84617c24cffad373788de08e23dab56a7324114f31",
    "TOY-BN42/all-karatsuba/generic/batch4-split2": "ca2fba6ba538d2c2db0b820790f2f96a9e9ced7b88180a52203f2778411a59f3",
    "TOY-BN42/all-karatsuba/cyclotomic/single": "cbbfb1e4109dc2a9b7f8d30897115214ca72d523dace0dbb4572769baa15109e",
    "TOY-BN42/all-karatsuba/cyclotomic/batch2": "d3b609899538ef93f8176ba98ffc638a3fb50fb23d632e41d340fd9d45539c8b",
    "TOY-BN42/all-karatsuba/cyclotomic/batch4-split2": "ba452008e60854a3faa5e717f0a9275eba0703e543e338c287ac402bb375204d",
    "TOY-BN42/all-karatsuba/compressed/single": "a590fc9a69a20301e771a4d56bc171927aa35a971f82354e69f53909d433fa04",
    "TOY-BN42/all-karatsuba/compressed/batch2": "8d048c34aa676fffb87538b559ec1b49cd065685ce1cfa3ac8ec3a017bc85e20",
    "TOY-BN42/all-karatsuba/compressed/batch4-split2": "9c145ec7c2d4acabac580bbab5946e30b33b15d336431c4caf04baa605f720a4",
    "TOY-BN42/all-schoolbook/generic/single": "42ccce76b646af0d6523fc0878532ac6728683b4a63bd30263a24818d8ad09dc",
    "TOY-BN42/all-schoolbook/generic/batch2": "a7564c5bf2722f1be0bda18fe40e9dec02891d6c8ada8698c1eae0555d3b55d5",
    "TOY-BN42/all-schoolbook/generic/batch4-split2": "52bf5dc610b3874cc559a41b683ff5955cdecdd2f4db82a3f5aa95f859a8cbbe",
    "TOY-BN42/all-schoolbook/cyclotomic/single": "e8e6e9f368859d5f3db5a9f9cdba998fc1f100861d2b831e820903c5bc36b186",
    "TOY-BN42/all-schoolbook/cyclotomic/batch2": "ae4cb831b5cce557c3b933c99a5b377c776c0ebe39b7e882249b5c9c1cc513fb",
    "TOY-BN42/all-schoolbook/cyclotomic/batch4-split2": "c1c09aec3f373a2d0dc9b8671e1a7c7172e39e45d7639f7e8a980238d72e277d",
    "TOY-BN42/all-schoolbook/compressed/single": "be8c2b48ec7a92d28e81ca50b56dd4acf30dd38e91a5ce1c5fdc58d71e88ebe7",
    "TOY-BN42/all-schoolbook/compressed/batch2": "8bbe0c4171ddaa17edb87f4e60aa1243a3d31a5759b779c44744fa24db7e7f40",
    "TOY-BN42/all-schoolbook/compressed/batch4-split2": "1cbcbfc5bae8992fe523e504439e70858412d08416eca4c7137d9724e8712638",
    "TOY-BN42/manual/generic/single": "a027395c76c8d057430c7f24c0892364276f108c74104b97046147fb9087e375",
    "TOY-BN42/manual/generic/batch2": "1ab9cf024f33ac9508f129d324ee18b9bcf9b7df43646a62123e086aeed34af9",
    "TOY-BN42/manual/generic/batch4-split2": "c1c2edbfb91d5f6635c180874b6017859bbbaa32f7761c1d7374ef6e407960a5",
    "TOY-BN42/manual/cyclotomic/single": "aa390386c67dff48de191ba50ae4177f9ea2db3ebf9458611391a651e4b6ade1",
    "TOY-BN42/manual/cyclotomic/batch2": "5c8617f2824daf6570d0f4672f0584570f603b4c22d7009482c08080f1f9b58d",
    "TOY-BN42/manual/cyclotomic/batch4-split2": "6d1f43d031c50b98e321708513ca304dbd9bac8743b6c13b35de6942c7496ba9",
    "TOY-BN42/manual/compressed/single": "b62234bcea05bafa4bd2b96e00a3ce5c875f25b85316f503b5f562f19953764a",
    "TOY-BN42/manual/compressed/batch2": "83de161ecc0670e777f108de1045826227f4de1eef81b078939ec1231ac8a6ed",
    "TOY-BN42/manual/compressed/batch4-split2": "a7774f5756bccfdcb40cbea208f5b6e567c3a3e42d03016f7cc2311286fca784",
    "TOY-BLS12-54/all-karatsuba/generic/single": "fc450b791088d6f397cca4321c8fdbc7bf2d228f550be0df8411f28909b6ac5e",
    "TOY-BLS12-54/all-karatsuba/generic/batch2": "6aa4f60e207a9329fa4fcfc57af6a560459e0eae411c449e2f175e3665aef184",
    "TOY-BLS12-54/all-karatsuba/generic/batch4-split2": "7d87889d06ca65c21de5e98d8858f9e72f31b7ce957707e0de292c7998317f19",
    "TOY-BLS12-54/all-karatsuba/cyclotomic/single": "709af98c8ca988f2e9b4943718be55d6c7243fa272c1db445f3c21a36fa1e761",
    "TOY-BLS12-54/all-karatsuba/cyclotomic/batch2": "2139dde4fa07b4782967f374896acae181e7c4df536a712ead84089754de7224",
    "TOY-BLS12-54/all-karatsuba/cyclotomic/batch4-split2": "bb455b801375366e52a9e04b9e5e6e94083deca6df25abb77708a4626421a4aa",
    "TOY-BLS12-54/all-karatsuba/compressed/single": "99f825da52c8a942cc173229b2c85d83c4b3f5fcced45840261671faaeeced0f",
    "TOY-BLS12-54/all-karatsuba/compressed/batch2": "fd455279a319216dc4df3b42b25dd49a3e285e76d9bba632973a5c1ca5ed878a",
    "TOY-BLS12-54/all-karatsuba/compressed/batch4-split2": "25fcfb5055af9ff07fc6930283ee6d2e63d256d6bf359e9ba9c760fe962c4ed3",
    "TOY-BLS12-54/all-schoolbook/generic/single": "438c1d12092445d260d1a1fdb015f10ec79d30de12fb6ed11f865521b3f578a6",
    "TOY-BLS12-54/all-schoolbook/generic/batch2": "eecc83fb3f864dd15a8f4dc17b6e4f65aacaa36a3124f81e649fc5b074c82505",
    "TOY-BLS12-54/all-schoolbook/generic/batch4-split2": "2b4e66b81e9152933b1cd0a8d47bb4f89d830f2dff8b93bbf401491411fc5594",
    "TOY-BLS12-54/all-schoolbook/cyclotomic/single": "47a000f3d2768b7ddb8b3552e7c329c2253c94f7a323a60089965eeb91c0ae3f",
    "TOY-BLS12-54/all-schoolbook/cyclotomic/batch2": "c2f5a661d3847dd2d4cf3a0f3732837782af8922f690a9ed467fa2df706c7eb2",
    "TOY-BLS12-54/all-schoolbook/cyclotomic/batch4-split2": "21fbc0d954e4636ce4d937919672c6d4a9000f36b34fb72bdb9d118c0f202a4c",
    "TOY-BLS12-54/all-schoolbook/compressed/single": "dab09f15a88e1a465294b5a5505cc93ff459996428cba7ed130d93eebd3ba2e5",
    "TOY-BLS12-54/all-schoolbook/compressed/batch2": "354c30e2581b099490a10b627d17671b6cfd337bf497557f0057bc3beeca1ec9",
    "TOY-BLS12-54/all-schoolbook/compressed/batch4-split2": "7d4b7d020e2ab749d0c18eb0e0e91c934a90886841c81c5fbe4a901531978cd0",
    "TOY-BLS12-54/manual/generic/single": "755a146e4dca1b7201effdcc313b64aea91e87d6318fa6764f3a218d3d112757",
    "TOY-BLS12-54/manual/generic/batch2": "c14b140a34a445cacbcd1cee7e877ff482b0463eac64b51549c64ddbc4592853",
    "TOY-BLS12-54/manual/generic/batch4-split2": "7d0f3e768a8a9670b14fcaca23e86e8cb7ba3aa20f03321e2b5f1cfabc6b3273",
    "TOY-BLS12-54/manual/cyclotomic/single": "5c5a6d42450b2ae4b011c196df30c91c667fd8a3a3a3463116d89eb18857cb8a",
    "TOY-BLS12-54/manual/cyclotomic/batch2": "845fcd99c272385d192e87294ea7928b32760066d4e84c422a96f80968a4311a",
    "TOY-BLS12-54/manual/cyclotomic/batch4-split2": "1f6dd3302b4db42376c2c9d9d8cf879c7ef0759b8f80bd5311db6fe67d35aa5c",
    "TOY-BLS12-54/manual/compressed/single": "83e9e507fa1cec15793d093fe330225e8ff768114e2df5887fdaa1e6d106077c",
    "TOY-BLS12-54/manual/compressed/batch2": "ba29205c8a9a6076bd8d67810ec9ce905a09621afe305059a8a1b014544a7d0e",
    "TOY-BLS12-54/manual/compressed/batch4-split2": "8757c239d7d412eef614bc528473d7d295d7355bc0f562d1292d40a3c5adc5d0",
    "TOY-BLS24-79/all-karatsuba/generic/single": "f7af6c88d0dab2bffba3570c7bdfbe21de9dc0f545cb6935f230e46c71965261",
    "TOY-BLS24-79/all-karatsuba/generic/batch2": "e0e8f73062d1e19557343fed9f4518d34473feed981c55da1d58418086d87ba0",
    "TOY-BLS24-79/all-karatsuba/generic/batch4-split2": "fa7f60f402c859da13e73e166af18eed0be4e53377911405cc06179d71152b60",
    "TOY-BLS24-79/all-karatsuba/cyclotomic/single": "0ce7f24e01bf1676a7737e3b39f6810fcbc8131218557883767cd011b08743b4",
    "TOY-BLS24-79/all-karatsuba/cyclotomic/batch2": "778abf76895f8c304fc1d25f6fcb688a857a1951804d554a6bfed9303831811a",
    "TOY-BLS24-79/all-karatsuba/cyclotomic/batch4-split2": "f28d1f73fd363e399c5eb1900510fcc73f2b515f4aea47958b13ef34e196e2c6",
    "TOY-BLS24-79/all-karatsuba/compressed/single": "9db52aba806653aaf70f679abdf1583e193cbfbf82dc31b070dce50a3ed438a8",
    "TOY-BLS24-79/all-karatsuba/compressed/batch2": "9201bdf5b7f6eb71688f59dde10d74ef645d5362091cdf928bb42904966cde8f",
    "TOY-BLS24-79/all-karatsuba/compressed/batch4-split2": "0f94d6110256a7b0aaded2f1e28dbf4eaecb8d994b3deb5169bf7692f6cb482d",
    "TOY-BLS24-79/all-schoolbook/generic/single": "30aef4ff3b89e71ea2ee9e64fdb4bd1884f68dd9cd42de2f24976e1136ff830c",
    "TOY-BLS24-79/all-schoolbook/generic/batch2": "d65328b57c8a6ceace43052de49bd00c26b237090b5a7c211626c66454d9c45e",
    "TOY-BLS24-79/all-schoolbook/generic/batch4-split2": "519adc9507057bac41b27cfe4d74322a0e9d74c9ec6f3216691ef6d14dd859c1",
    "TOY-BLS24-79/all-schoolbook/cyclotomic/single": "438658ae2c259d368c5eeecf5b39b857e61619fabbcb9a09b1145b610dbc98c4",
    "TOY-BLS24-79/all-schoolbook/cyclotomic/batch2": "2d6857c0d17f6623be47e66f179661456cc63d2cad6a602c2e0d3011942df486",
    "TOY-BLS24-79/all-schoolbook/cyclotomic/batch4-split2": "2dc1d17dc3a61cdb63d7a2ed54f1273f83f4a6127324d2b3f33adc64911b88d2",
    "TOY-BLS24-79/all-schoolbook/compressed/single": "036b77bac0ef4523d7cc64ca3cd3273aa613b8b12e6587fb35aace01f50f921b",
    "TOY-BLS24-79/all-schoolbook/compressed/batch2": "7e3d67e394dc847205c66716b9668b455a57ec6954ee0562a7efa6982a9fe0d0",
    "TOY-BLS24-79/all-schoolbook/compressed/batch4-split2": "712a739e9caed8769c1053af964b61847a6f42e3ac9b194ff13227f42aa35eb1",
    "TOY-BLS24-79/manual/generic/single": "c70f980056998f462bd3f8ecae90ce7eb20c9d54217193b9abe85a84c4b38c88",
    "TOY-BLS24-79/manual/generic/batch2": "2f19c39c1461d622ee27478365226c005fc6f2a12d7f373bc74e60e7051952ab",
    "TOY-BLS24-79/manual/generic/batch4-split2": "d4a112e3ca04badafbde84a1b40922ed0be12cd7542f405434d571bb01ceb376",
    "TOY-BLS24-79/manual/cyclotomic/single": "7ab7c762f48203e8509e2a309bbe7ff9ae4e8398b0b330f15d2d9484db9da865",
    "TOY-BLS24-79/manual/cyclotomic/batch2": "3cb825177648215eb5e0324eeb3878c7257947beda4fd4482940a57f0405e705",
    "TOY-BLS24-79/manual/cyclotomic/batch4-split2": "d3572bc9482c29a40445934fed02d7f8dee7cd562a296f925d87b06a9c8029cb",
    "TOY-BLS24-79/manual/compressed/single": "bb56e12e65db0ab17ed9908ff022b8152d42746224e97a58ff93632a4e8c7380",
    "TOY-BLS24-79/manual/compressed/batch2": "be26ecbfb107cf74d0580b352cb8d2c630c5de6620c5faffb9d8f851e5d3ee84",
    "TOY-BLS24-79/manual/compressed/batch4-split2": "55d9dc454a0885b5293f0ef450f0b9e519fe5719941f35d513e6eb29b13a918f",
    "BN254N/all-karatsuba/generic/single": "249eb46ed28406e61a31dce11fee78ece8aa06497c520e123c7bcb92dc46d12d",
    "BLS12-381/all-karatsuba/generic/single": "3d7e086bb11c59091461279f6c3b072ec24d91860e235477738f544646a6b81c",
}

#: shape -> (n_pairs, accumulator_groups): the single kernel, a shared batch
#: of two, a batch of four split over two cores.
SHAPES = {"single": (None, None), "batch2": (2, None), "batch4-split2": (4, 2)}


def _traced(curve, mode="generic", shape="single"):
    n_pairs, groups = SHAPES[shape]
    if n_pairs is None:
        return generate_pairing_ir(curve, use_naf=True, final_exp_mode=mode)
    return generate_multi_pairing_ir(curve, n_pairs, accumulator_groups=groups,
                                     final_exp_mode=mode)


# ---------------------------------------------------------------------------
# Templates: the pinned table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("mode", FINAL_EXP_MODES)
@pytest.mark.parametrize("curve_name", ["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79"])
def test_lowered_toy_modules_are_unchanged(curve_name, mode, shape):
    curve = get_curve(curve_name)
    traced = _traced(curve, mode, shape)
    for variants, config in named_variant_configs().items():
        key = f"{curve_name}/{variants}/{mode}/{shape}"
        assert lowered_digest(lower_module(traced, curve.tower.levels, config)) == \
            LOWERED_DIGESTS[key], key


@pytest.mark.parametrize("curve_name", ["BN254N", "BLS12-381"])
def test_lowered_paper_modules_are_unchanged(curve_name):
    curve = get_curve(curve_name)
    low = lower_module(_traced(curve), curve.tower.levels)
    assert lowered_digest(low) == LOWERED_DIGESTS[f"{curve_name}/all-karatsuba/generic/single"]


def test_lowering_keeps_no_state_between_calls(toy_bn):
    """Templates live for one call: the same module lowers to the same rows
    whatever was lowered in between, and the traced module is only read."""
    traced, levels = _traced(toy_bn, "cyclotomic", "batch2"), toy_bn.tower.levels
    before = lowered_digest(traced)
    first = lower_module(traced, levels, VariantConfig.all_karatsuba())
    lower_module(traced, levels, VariantConfig.all_schoolbook())
    again = lower_module(traced, levels, VariantConfig.all_karatsuba())
    assert lowered_digest(first) == lowered_digest(again)
    assert lowered_digest(traced) == before


@pytest.fixture
def recorded_templates(monkeypatch):
    """Every template recorded while the fixture is active, in order."""
    recorded, record = [], lowering._Template.__init__

    def spy(self, *args):
        record(self, *args)
        recorded.append(self)

    monkeypatch.setattr(lowering._Template, "__init__", spy)
    return recorded


def test_bls12_381_kernel_is_lowered_from_a_handful_of_templates(recorded_templates):
    curve = get_curve("BLS12-381")
    traced = _traced(curve)
    low = lower_module(traced, curve.tower.levels)
    assert (traced.compute_ops, low.compute_ops) == (2565, 127722)
    assert 0 < len(recorded_templates) <= 16
    # The recursion ran over a sliver of what it used to: the rest is splicing.
    assert sum(len(template.ops) for template in recorded_templates) < len(low) // 20


# ---------------------------------------------------------------------------
# Templates: an instantiation is the row-by-row walk of the same operation
# ---------------------------------------------------------------------------

def _tower_calls(tower):
    """(method, field, operand widths, extra) of every kind of call
    ``lower_module`` makes on this tower."""
    full, twist = tower.full_field, tower.twist_field
    yield "mul_sublevel", full, (full.degree, full.degree), ()
    yield "mul_sublevel", twist, (full.degree, twist.degree), ()
    yield "mul_sublevel", tower.fp, (full.degree, 1), ()
    for method in ("sqr", "inverse", "mul_by_nonresidue", "conjugate"):
        yield method, full, (full.degree,), ()
    yield "mul_by_nonresidue", twist, (twist.degree,), ()
    for power in (1, 2, 3):
        yield "frobenius", full, (full.degree,), (power,)


def _input_operands(leaf, widths) -> list:
    names = iter(range(sum(widths)))
    return [tuple(leaf.emit("input", (), attr=("x", next(names))) for _ in range(width))
            for width in widths]


@pytest.mark.parametrize("variants", sorted(named_variant_configs()))
@pytest.mark.parametrize("curve_name", ["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79"])
def test_an_instantiation_is_the_row_by_row_walk(curve_name, variants):
    """The recursion over ``_Lowerer`` itself emits row by row; a template
    spliced in the same place must leave the same columns -- the first time,
    when its constants are new to the pool and land in place, and the second,
    under another lane and phase, when they are all pooled."""
    curve, config = get_curve(curve_name), named_variant_configs()[variants]
    p, met_constants = curve.params.p, 0
    for method, field, widths, extra in _tower_calls(curve.tower):
        call = (method, widths, extra)
        walked, spliced = lowering._Lowerer(p), lowering._Lowerer(p)
        operands = _input_operands(walked, widths)
        assert _input_operands(spliced, widths) == operands
        template = lowering._Template(p, config.variant_for, method, field, widths, extra)
        met_constants += len(template.consts)
        for lane, phase in ((None, "miller"), (1, "final_exp")):
            for leaf in (walked, spliced):
                leaf.low.current_lane, leaf.low.current_phase = lane, phase
            expected = getattr(TowerScalariser(walked, config.variant_for), method)(
                field, *operands, *extra)
            flat = [value for operand in operands for value in operand]
            assert spliced.instantiate(template, flat) == tuple(expected), (call, lane)
        assert lowered_digest(spliced.low) == lowered_digest(walked.low), call
        spliced.low.validate()
    assert met_constants > 0        # the in-place rule was exercised, not skipped


def test_a_constant_first_met_inside_a_template_is_pooled_in_place(toy_bn, recorded_templates):
    """``const`` rows are emitted where the recursion first asks for the value
    -- in the middle of the Frobenius block -- once, and the second Frobenius
    is pure column extension."""
    full = toy_bn.tower.full_field
    module = IRModule(level="high")
    x = module.emit("input", (), degree=full.degree, attr="x")
    once = module.emit("frob", (x,), degree=full.degree, attr=1)
    module.emit("output", (module.emit("frob", (once,), degree=full.degree, attr=1),),
                degree=full.degree, attr="out")
    low = lower_module(module, toy_bn.tower.levels)
    template, = recorded_templates
    pooled = [vid for vid, op in enumerate(low.ops) if op == "const"]
    assert len(pooled) == len(template.consts) > 1
    first_use = {}
    for vid, operands in enumerate(zip(low.a, low.b)):
        for operand in operands:
            first_use.setdefault(operand, vid)
    assert all(first_use[vid] == vid + 1 for vid in pooled)      # each right before its use
    block = len(template.ops) - len(template.consts)
    assert low.compute_ops == 2 * block
    assert low.ops[-full.degree - block:-full.degree].count("const") == 0


# ---------------------------------------------------------------------------
# lower_module's error paths
# ---------------------------------------------------------------------------

def _bad_module(case: str) -> IRModule:
    module = IRModule(level="high")
    x12 = module.emit("input", (), degree=12, attr="x")
    x6 = module.emit("input", (), degree=6, attr="y")
    x2 = module.emit("input", (), degree=2, attr="z")
    if case == "degree":
        module.emit("sqr", (module.emit("input", (), degree=5, attr="w"),), degree=5)
    elif case == "conj":
        module.emit("conj", (x6,), degree=6)
    elif case == "exp":
        module.emit("exp", (x2,), degree=2, attr=-3)
    elif case == "pack":
        module.emit("pack", (x2,) * 5, degree=12)
    elif case == "ext-index":
        module.emit("ext", (x12,), degree=2, attr=6)
    elif case == "ext-width":
        module.emit("ext", (x6,), degree=2, attr=0)
    elif case == "op":
        module.emit("pdbl", (x2,), degree=2)
    return module


@pytest.mark.parametrize("case, message", [
    ("degree", "no tower level of degree 5"),
    ("conj", "conj lowering requires a quadratic top-level step"),
    ("exp", "exp lowering requires a non-negative exponent"),
    ("pack", "pack expects exactly 6 coefficients"),
    ("ext-index", "ext expects a w-power index in 0..5, got 6"),
    ("ext-width", "ext requires a full-field operand"),
    ("op", "cannot lower high-level op 'pdbl'"),
])
def test_lowering_rejects_what_it_cannot_lower(toy_bn, case, message):
    with pytest.raises(IRError, match=message):
        lower_module(_bad_module(case), toy_bn.tower.levels)


def test_lowering_exp_runs_its_steps_through_the_templates(toy_bn, rng, recorded_templates):
    from repro.ir.interp import interpret_low_level

    field = toy_bn.tower.twist_field
    module = IRModule(level="high")
    x = module.emit("input", (), degree=2, attr="x")
    module.emit("output", (module.emit("exp", (x,), degree=2, attr=11),), degree=2, attr="out")
    module.emit("output", (module.emit("exp", (x,), degree=2, attr=0),), degree=2, attr="one")
    low = lower_module(module, toy_bn.tower.levels)
    assert len(recorded_templates) == 2                 # one squaring, one product: 3 + 2 uses
    value = field.random(rng)
    outputs = interpret_low_level(low, toy_bn.params.p, {
        ("x", j): coeff for j, coeff in enumerate(value.to_base_coeffs())})
    assert [outputs[("out", j)] for j in range(2)] == (value ** 11).to_base_coeffs()
    assert [outputs[("one", j)] for j in range(2)] == field.one().to_base_coeffs()


# ---------------------------------------------------------------------------
# The collector: paused for the stage sequence, left as it was found
# ---------------------------------------------------------------------------

def _collections() -> list:
    return [generation["collections"] for generation in gc.get_stats()]


def test_a_compile_runs_no_collection(toy_bn, collector_restored):
    """Hundreds of collections (a few of them full) used to run inside one
    compile and free nothing.  What is left is the one young-generation pass
    of the collector resuming over what the compile built."""
    clear_caches()
    assert gc.isenabled()
    gc.collect()                        # the allocation counters start from zero
    before = _collections()
    compile_pairing(toy_bn, use_cache=False)
    young, middle, full = (now - then for now, then in zip(_collections(), before))
    assert (middle, full) == (0, 0) and young <= 1
    assert gc.isenabled()


@pytest.fixture
def collector_restored():
    """Whatever a test (or a failing assertion) does to the collector ends with it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_left_as_found_when_a_stage_raises(toy_bn, monkeypatch,
                                                            collector_restored, enabled):
    def broken_stage(*args, **kwargs):
        assert not gc.isenabled()       # the fault hits inside the paused region
        raise RuntimeError("bank allocation fell over")

    monkeypatch.setattr(pipeline, "allocate_banks", broken_stage)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="fell over"):
        compile_pairing(toy_bn, use_cache=False)
    assert gc.isenabled() is enabled


def test_a_disabled_collector_stays_disabled(toy_bn, collector_restored):
    gc.disable()
    compile_pairing(toy_bn, use_cache=False)
    assert not gc.isenabled()


def test_pool_workers_resume_collecting_after_their_compiles(toy_bn):
    clear_caches()
    points = design_points(named_variant_configs().values(),
                           figure10_models(toy_bn.params.p.bit_length())[:1])
    with ParallelExplorer(toy_bn, workers=2) as explorer:
        explorer.explore(points, "efficiency")
        if explorer._pool_unavailable:
            pytest.skip("process pools unavailable in this environment")
        assert explorer.last_report.parallel
        probes = [explorer._pool.submit(gc.isenabled) for _ in range(8)]
        assert all(probe.result(timeout=30) for probe in probes)


# ---------------------------------------------------------------------------
# The footprint: no per-op object survives a stage that does not need it
# ---------------------------------------------------------------------------

#: The TOY-BN42 default-model kernel: bytes of its pickled bulk (schedule and
#: program) and the traced peak of one compile from empty caches.  With one
#: list per bundle, a planned issue cycle per value, a consumer list per value
#: and a tuple per GVN key they read 979 703 bytes and 18.7 MB.
BULK_BYTES = 817_477
PEAK_BYTES = 10_850_000


def test_a_compile_keeps_no_object_per_op(toy_bn):
    compile_pairing(toy_bn)              # imports and per-curve set-up, outside the trace
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        result = compile_pairing(toy_bn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bulk = len(zlib.decompress(result.bulk.pack()))
    assert bulk <= BULK_BYTES * 1.02
    assert peak <= PEAK_BYTES * 1.15


#: What one more point of one variant config may add to the memory a process
#: retains, with a disk tier: the result's head and its packed bulk, about
#: 195 kB on TOY-BN42.  A result that held its live schedule and program
#: added about 1.9 MB a point.
RETAINED_BYTES_PER_POINT = 500_000


def test_a_sweep_holds_each_kernel_as_the_bytes_written(toy_bn, tmp_path):
    """Three Fig-10 models of one variant config: each compile is kept as the
    bytes the disk tier wrote, and no lowered module outlives IROpt."""
    configure_store(tmp_path / "store")
    config = next(iter(named_variant_configs().values()))
    models = figure10_models(toy_bn.params.p.bit_length())[:3]
    compile_pairing(toy_bn, use_cache=False)     # per-curve set-up, outside the trace
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        retained = []
        for hw in models:
            compile_pairing(toy_bn, hw=hw, variant_config=config, final_exp_mode="cyclotomic")
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        clear_caches()
    assert retained[2] - retained[0] <= 2 * RETAINED_BYTES_PER_POINT, retained
    assert compile_cache_stats()["lowering"]["entries"] == 0
