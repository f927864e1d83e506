"""The DSE's evaluation boundary: no knob is left, and the records hold.

The compile digests were captured at the commit *before* the evaluation
knobs were folded into one value (since deleted); they pin that stores
written earlier still serve.  The DSE scores one kernel per point, so the
keywords it once took (``n_cores``, ``technology``, ``batch_size`` and the
retired policies) are a ``TypeError`` at both entry points.  The grid digests
were re-recorded when fields left ``DesignMetrics`` (the five ``service_*``
fields, then ``batch``, ``cycles_per_pairing``, ``accumulator_mode`` and
``final_exp_mode``): each equals the digest of the earlier record with those
keys deleted, so every other field held byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.compiler import pipeline
from repro.compiler.pipeline import pairing_compile_digest
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.space import DesignPoint
from repro.fields.variants import VariantConfig
from repro.hw.presets import figure10_models, paper_hw1
from repro.hw.technology import TECH_40NM, TECH_65NM


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
# (2) No evaluation knob is left
# ---------------------------------------------------------------------------

#: Keywords the DSE no longer takes: a ``TypeError`` at both entry points.
#: Every point is scored on its single-pairing kernel with the cyclotomic
#: final exponentiation, on one core at 40 nm; batched kernels are compiled
#: by ``compile_multi_pairing`` (the ``batch_verify`` experiment).
RETIRED = [
    {"n_cores": True}, {"n_cores": 1.5}, {"n_cores": 0}, {"n_cores": -1},
    {"n_cores": 1}, {"n_cores": 2},
    {"technology": TECH_40NM}, {"technology": TECH_65NM},
    {"batch_size": True}, {"batch_size": 2.5}, {"batch_size": 0}, {"batch_size": -4},
    {"batch_size": None}, {"batch_size": 4},
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


@pytest.mark.parametrize("knobs", RETIRED, ids=lambda knobs: repr(knobs))
def test_bad_knobs_are_rejected_at_every_boundary(toy_bn, point, knobs):
    with pytest.raises(TypeError):
        evaluate_design_point(toy_bn, point, **knobs)
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, workers=1, **knobs)


def test_unknown_knob_is_a_type_error(toy_bn, point):
    with pytest.raises(TypeError):
        evaluate_design_point(toy_bn, point, batchsize=4)
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, batchsize=4)


# ---------------------------------------------------------------------------
# (3) The metrics grid: every field of every evaluation kind, exactly
# ---------------------------------------------------------------------------

#: sha256 of ``json.dumps(dataclasses.asdict(metrics))`` (floats by repr, so
#: exact), TOY-BN42, all-Karatsuba.
GRID_DIGESTS = {
    "HW1": "7d442d34fcc103efd113ce739358bfe860bd24939cab1f2139542db8ac831d69",
    "L8-S2-lin6": "0ce7565ff4cb046a0c3536a027bf166867dcd97673a8b57aa2d50ebcf218f315",
}


@pytest.mark.parametrize("hw_name", sorted(GRID_DIGESTS),
                         ids=[f"{name}/single" for name in sorted(GRID_DIGESTS)])
def test_design_metrics_grid_is_unchanged(toy_bn, hw_name):
    bits = toy_bn.params.p.bit_length()
    hw = {model.name: model for model in [paper_hw1(bits), *figure10_models(bits)]}[hw_name]
    metrics = evaluate_design_point(toy_bn, DesignPoint(VariantConfig.all_karatsuba(), hw))
    fields = dataclasses.asdict(metrics)
    assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == \
        GRID_DIGESTS[hw_name], fields
