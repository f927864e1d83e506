"""EvalSpec: the one validated bundle of evaluation knobs.

The goldens here (compile digests, the metrics of one batched two-core
evaluation) were captured at the commit *before* the knobs were
folded into ``EvalSpec``; they pin the refactor's invariants: same digests
(so stores written earlier still serve), same winners and tie-breaks.  The
batched metrics were re-recorded when the batched kernels moved onto the
single kernel's Miller walk (cycles 33 060 -> 33 280, same winners), and kept
when the final-exp and accumulator policies were retired: the evaluation
that compiled all six kernels then scores exactly as the two it compiles now.
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
from repro.service import ServiceProfile


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
    profile = ServiceProfile(rate_rps=1000.0)
    spec = EvalSpec(n_cores=2, batch_size=4, service_profile=profile)
    twin = EvalSpec(n_cores=2, batch_size=4, service_profile=profile)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != dataclasses.replace(spec, n_cores=4)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, twin, EvalSpec()}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n_cores = 3


def test_spec_defaults_and_normalisation():
    spec = EvalSpec()
    assert [field.name for field in dataclasses.fields(EvalSpec)] == [
        "n_cores", "technology", "do_assemble", "batch_size", "service_profile"]
    assert tuple(getattr(spec, field.name) for field in dataclasses.fields(spec)) == (
        1, TECH_40NM, True, None, None)
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
        "service_p50_us": 0.0,
        "service_p95_us": 0.0,
        "service_p99_us": 0.0,
        "service_vps": 0.0,
        "service_rejected": 0,
        "power_mw": 0.8809930721119377,
        "energy_per_pairing_uj": 0.006413433531344402,
        "throughput_per_watt": 155922719.8836155,
    }


# ---------------------------------------------------------------------------
# (4) The metrics grid: every field of every evaluation kind, exactly
# ---------------------------------------------------------------------------

GRID_PROFILE = ServiceProfile(rate_rps=20_000.0, max_batch=4, deadline_us=300.0,
                              queue_bound=32, pairs_per_request=3, n_requests=48,
                              arrival="poisson", seed=1)

GRID_EVALUATIONS = {
    "single": {},
    "batch4-1core": dict(batch_size=4, n_cores=1),
    "batch4-2core": dict(batch_size=4, n_cores=2),
    "batch4-4core": dict(batch_size=4, n_cores=4),
    "batch4-2core-service": dict(batch_size=4, n_cores=2, service_profile=GRID_PROFILE),
}

#: sha256 of ``json.dumps(dataclasses.asdict(metrics))`` (floats by repr, so
#: exact), TOY-BN42, all-Karatsuba.
GRID_DIGESTS = {
    ("HW1", "single"): "0015385280a706ec23638d688b9042334f0c01d7dee52fefb04345c3ac74bb08",
    ("HW1", "batch4-1core"): "4c5ad129370a858f1ddc8e8753614ab895feafb79efba3526b304804f1dcc1bf",
    ("HW1", "batch4-2core"): "38790f0739d657258a453782c8989c4319c1d649b9ceb6b6c0c01de6d7901c4c",
    ("HW1", "batch4-4core"): "1b2deba6659cf09f3e9349c93a3ba7f8b0b83b45e65fd70b608305aad5eee203",
    ("HW1", "batch4-2core-service"):
        "b969e6536a550f9ad6d3996f823a9b68727f9267a820d781fc38de330a043caf",
    ("L8-S2-lin6", "single"): "1f9f1c65ae68cfb78afa0ba4a358e7edec0cb96f4ad8c945b402ba1276df6338",
    ("L8-S2-lin6", "batch4-1core"):
        "d0bde78376cde800d134e51f0672a3dc2d9b43bd233cf8a1cda8edc27cf2078a",
    ("L8-S2-lin6", "batch4-2core"):
        "67692d08d09648e7eb10305b4a36392173a7f6420e5151c907443943a24b2736",
    ("L8-S2-lin6", "batch4-4core"):
        "eafe2f5b3090fb571f2b627de6c712bf1b337fb28b91fd6f7b4c11306f8547c6",
    ("L8-S2-lin6", "batch4-2core-service"):
        "cbf7cd82cf6406e86f685b15611ae1c6c1756b12b29be232a8d244bd6ea4cf7f",
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
