"""EvalSpec: the one validated bundle of evaluation knobs.

The goldens here (compile digests, the metrics of one fully-"auto"
evaluation) were captured at the commit *before* the knobs were
folded into ``EvalSpec``; they pin the refactor's invariants: same digests
(so stores written earlier still serve), same winners and tie-breaks.  The
all-"auto" metrics were re-recorded when the batched kernels moved onto the
single kernel's Miller walk (cycles 33 060 -> 33 280, same winners).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.compiler import pipeline
from repro.compiler.pipeline import pairing_compile_digest
from repro.config import PIPELINE_DEPTH_ENV
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.space import DesignPoint
from repro.dse.spec import EvalSpec
from repro.fields.variants import VariantConfig
from repro.hw.presets import paper_hw1
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
    spec = EvalSpec(n_cores=2, batch_size=4, service_profile=profile,
                    pipeline_depth="auto")
    twin = EvalSpec(n_cores=2, batch_size=4, service_profile=profile,
                    pipeline_depth="auto")
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != dataclasses.replace(spec, n_cores=4)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, twin, EvalSpec()}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n_cores = 3


def test_spec_defaults_and_normalisation(monkeypatch):
    monkeypatch.setenv(PIPELINE_DEPTH_ENV, "2")
    spec = EvalSpec()
    assert (spec.n_cores, spec.technology, spec.do_assemble, spec.batch_size,
            spec.split_accumulators, spec.final_exp_mode, spec.service_profile,
            spec.pipeline_depth) == (1, TECH_40NM, True, None, "auto",
                                     "cyclotomic", None, 1)
    # Booleans spell forced accumulator modes; None is the environment default
    # for batched sweeps -- equal evaluations compare equal.
    assert EvalSpec(batch_size=2, split_accumulators=True) == \
        EvalSpec(batch_size=2, split_accumulators="split", pipeline_depth=2)
    assert EvalSpec(split_accumulators=False).split_accumulators == "shared"
    # What the policies enumerate.
    assert EvalSpec(batch_size=2).accumulator_modes == ("shared",)
    assert EvalSpec(batch_size=2, n_cores=2).accumulator_modes == ("shared", "split")
    assert EvalSpec(n_cores=2, split_accumulators="split").accumulator_modes == ("shared",)
    assert EvalSpec(final_exp_mode="auto").final_exp_modes == (
        "generic", "cyclotomic", "compressed")
    assert EvalSpec(final_exp_mode="generic").final_exp_modes == ("generic",)
    # Depth 1 without a batch is the classic evaluation and stays legal.
    assert EvalSpec(pipeline_depth=1).depths == (1,)


REJECTED = [
    {"n_cores": True}, {"n_cores": 1.5}, {"n_cores": 0}, {"n_cores": -1},
    {"batch_size": True}, {"batch_size": 2.5}, {"batch_size": 0}, {"batch_size": -4},
    {"batch_size": 4, "pipeline_depth": True},
    {"batch_size": 4, "pipeline_depth": 2.5},
    {"batch_size": 4, "pipeline_depth": 0},
    {"batch_size": 4, "pipeline_depth": "x"},
    {"batch_size": 2, "split_accumulators": "sometimes"},
    {"split_accumulators": 2},
    {"final_exp_mode": "sometimes"},
    {"final_exp_mode": None},
    {"pipeline_depth": 2},          # depth != 1 needs a batch
    {"pipeline_depth": "auto"},
]


@pytest.mark.parametrize("knobs", REJECTED, ids=lambda knobs: repr(knobs))
def test_bad_knobs_are_rejected_at_every_boundary(toy_bn, point, knobs):
    with pytest.raises(ValueError):
        EvalSpec(**knobs)
    with pytest.raises(ValueError):
        evaluate_design_point(toy_bn, point, **knobs)
    with pytest.raises(ValueError):
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
    metrics = evaluate_design_point(
        toy_bn, point, n_cores=2, batch_size=4, split_accumulators="auto",
        final_exp_mode="auto", pipeline_depth="auto")
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
        "pipeline_depth": 2,
        "steady_cycles_per_pairing": 8273.25,
        "steady_throughput_ops": 138143.06053114135,
        "service_p50_us": 0.0,
        "service_p95_us": 0.0,
        "service_p99_us": 0.0,
        "service_vps": 0.0,
        "service_rejected": 0,
        "power_mw": 0.8809930721119377,
        "energy_per_pairing_uj": 0.006377396509999408,
        "throughput_per_watt": 156803798.92202955,
    }
