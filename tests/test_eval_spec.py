"""EvalSpec: the one validated bundle of evaluation knobs.

The goldens here (compile digests, the metrics of one batched two-core
evaluation) were captured at the commit *before* the knobs were
folded into ``EvalSpec``; they pin the refactor's invariants: same digests
(so stores written earlier still serve), same winners and tie-breaks.  The
batched metrics were re-recorded when the batched kernels moved onto the
single kernel's Miller walk (cycles 33 060 -> 33 280, same winners), and kept
when the final-exp and accumulator policies were retired: the evaluation
that compiled all six kernels then scores exactly as the two it compiles now.
The grid digests were re-recorded when the five ``service_*`` fields left
``DesignMetrics``: each equals the digest of the earlier record with those
keys deleted, so every other field held byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.compiler import pipeline
from repro.compiler.pipeline import pairing_compile_digest
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.space import DesignPoint
from repro.dse.spec import EvalSpec
from repro.fields.variants import VariantConfig
from repro.hw.presets import figure10_models, paper_hw1
from repro.hw.technology import TECH_40NM


@pytest.fixture(scope="module")
def point(toy_bn):
    return DesignPoint(VariantConfig.all_karatsuba(),
                       paper_hw1(toy_bn.params.p.bit_length()))


# ---------------------------------------------------------------------------
# (1) Golden digests
# ---------------------------------------------------------------------------

def test_pairing_compile_digests_are_unchanged(toy_bn):
    assert pairing_compile_digest(toy_bn) == (
        "ce6e3a663f007a9ff1091bd82d189c99175b4dd84154ccd6818ce2b33ca51b10")
    assert pairing_compile_digest(
        toy_bn, final_exp_mode="cyclotomic", do_assemble=False
    ) == "58cde04466da78f02b3d011cef6ff11d8574207f455c205942f65dce4a2176c0"


def test_compile_pairing_is_keyed_by_pairing_compile_digest(toy_bn):
    result = pipeline.compile_pairing(toy_bn, final_exp_mode="cyclotomic",
                                      do_assemble=False)
    key = pairing_compile_digest(toy_bn, final_exp_mode="cyclotomic",
                                 do_assemble=False)
    assert pipeline._RESULT_CACHE.peek(key) is result


# ---------------------------------------------------------------------------
# (2) The value itself
# ---------------------------------------------------------------------------

def test_spec_is_a_value():
    spec = EvalSpec(n_cores=2, batch_size=4)
    twin = EvalSpec(n_cores=2, batch_size=4)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != dataclasses.replace(spec, n_cores=4)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, twin, EvalSpec()}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n_cores = 3


def test_spec_defaults_and_normalisation():
    spec = EvalSpec()
    assert [field.name for field in dataclasses.fields(EvalSpec)] == [
        "n_cores", "technology", "batch_size"]
    assert tuple(getattr(spec, field.name) for field in dataclasses.fields(spec)) == (
        1, TECH_40NM, None)
    # The kernels a point compiles: both accumulator modes only for a batch
    # on more than one core.
    assert EvalSpec().accumulator_modes == ("shared",)
    assert EvalSpec(n_cores=2).accumulator_modes == ("shared",)
    assert EvalSpec(batch_size=2).accumulator_modes == ("shared",)
    assert EvalSpec(batch_size=2, n_cores=2).accumulator_modes == ("shared", "split")


REJECTED = [
    {"n_cores": True}, {"n_cores": 1.5}, {"n_cores": 0}, {"n_cores": -1},
    {"batch_size": True}, {"batch_size": 2.5}, {"batch_size": 0}, {"batch_size": -4},
]

#: Keywords that are no ``EvalSpec`` field: a ``TypeError`` at every boundary.
#: The DSE scores every point on the cyclotomic final exponentiation, and
#: picks the accumulator mode itself.
RETIRED = [
    {"pipeline_depth": 2}, {"pipeline_depth": "auto"},
    {"batch_size": 2, "split_accumulators": "sometimes"},
    {"split_accumulators": 2},
    {"split_accumulators": "auto"},
    {"split_accumulators": True},
    {"final_exp_mode": "sometimes"},
    {"final_exp_mode": None},
    {"final_exp_mode": "cyclotomic"},
    {"final_exp_mode": "auto"},
]


@pytest.mark.parametrize("knobs", REJECTED + RETIRED, ids=lambda knobs: repr(knobs))
def test_bad_knobs_are_rejected_at_every_boundary(toy_bn, point, knobs):
    error = TypeError if knobs in RETIRED else ValueError
    with pytest.raises(error):
        EvalSpec(**knobs)
    with pytest.raises(error):
        evaluate_design_point(toy_bn, point, **knobs)
    with pytest.raises(error):
        ParallelExplorer(toy_bn, workers=1, **knobs)


def test_unknown_knob_is_a_type_error(toy_bn, point):
    with pytest.raises(TypeError):
        evaluate_design_point(toy_bn, point, batchsize=4)
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, batchsize=4)


# ---------------------------------------------------------------------------
# (3) The folded ladder keeps winners and tie-breaks
# ---------------------------------------------------------------------------

def test_all_auto_evaluation_matches_the_pre_refactor_metrics(toy_bn, point):
    metrics = evaluate_design_point(toy_bn, point, n_cores=2, batch_size=4)
    assert dataclasses.asdict(metrics) == {
        "label": "all-karatsuba/HW1",
        "curve": "TOY-BN42",
        "cycles": 33280,
        "instructions": 42509,
        "ipc": 1.277313701923077,
        "frequency_mhz": 1142.892075539265,
        "latency_us": 29.119109942465112,
        "throughput_ops": 137366.8360023155,
        "area_mm2": 1.093091208,
        "throughput_per_mm2": 125668.22877813826,
        "registers": 692,
        "batch": 4,
        "cycles_per_pairing": 8320.0,
        "accumulator_mode": "split",
        "final_exp_mode": "cyclotomic",
        "power_mw": 0.8809930721119377,
        "energy_per_pairing_uj": 0.006413433531344402,
        "throughput_per_watt": 155922719.8836155,
    }


# ---------------------------------------------------------------------------
# (4) The metrics grid: every field of every evaluation kind, exactly
# ---------------------------------------------------------------------------

GRID_EVALUATIONS = {
    "single": {},
    "batch4-1core": dict(batch_size=4, n_cores=1),
    "batch4-2core": dict(batch_size=4, n_cores=2),
    "batch4-4core": dict(batch_size=4, n_cores=4),
}

#: sha256 of ``json.dumps(dataclasses.asdict(metrics))`` (floats by repr, so
#: exact), TOY-BN42, all-Karatsuba.
GRID_DIGESTS = {
    ("HW1", "single"): "ae0e8d7521861ef1d11fdd6a4508f5dbb0869e2e617262ca7920acd183769ef7",
    ("HW1", "batch4-1core"): "126e93356ee675f219668f60e7b300b4241be131630ed592bec93a2da147ae20",
    ("HW1", "batch4-2core"): "887c4747356bfc506f133ab75dd97dc129e2f08695263d626ed99a1a80a8f036",
    ("HW1", "batch4-4core"): "4bf6c56640f75b234d9cf2e20b0e4b74abf70f8231b6ef08251ac9451f0a9c79",
    ("L8-S2-lin6", "single"): "82e16ae7e3a0e6d2838ac16cf49edd1f66de8cb3bb1a838e988fa92543c44f2b",
    ("L8-S2-lin6", "batch4-1core"):
        "fa55daf190dfc9516a566f9447a34853f3d9ea471b02cff52f3df7045a446a80",
    ("L8-S2-lin6", "batch4-2core"):
        "6b6c4768e0fdde115be0fc15f64a18838f6e2f36fa81351e38c34a883423cb07",
    ("L8-S2-lin6", "batch4-4core"):
        "8d581374bb92c7eb724f446086874e1c536d9812f466dd161fc50e5c4c1ab504",
}


@pytest.mark.parametrize("hw_name, evaluation", sorted(GRID_DIGESTS),
                         ids=["/".join(key) for key in sorted(GRID_DIGESTS)])
def test_design_metrics_grid_is_unchanged(toy_bn, hw_name, evaluation):
    bits = toy_bn.params.p.bit_length()
    hw = {model.name: model for model in [paper_hw1(bits), *figure10_models(bits)]}[hw_name]
    metrics = evaluate_design_point(toy_bn, DesignPoint(VariantConfig.all_karatsuba(), hw),
                                    **GRID_EVALUATIONS[evaluation])
    fields = dataclasses.asdict(metrics)
    assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == \
        GRID_DIGESTS[hw_name, evaluation], fields
