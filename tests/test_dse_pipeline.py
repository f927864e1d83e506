"""Pipeline depth as a first-class DSE knob, ranked end to end.

Exercises the ``pipeline_depth`` policy on :func:`evaluate_design_point` and
:class:`ParallelExplorer` (explicit depth, ``"auto"`` ladder, environment
default), the ``"steady_throughput"`` objective's deterministic ranking for
any worker count, the steady-state service-time model behind
``ServiceProfile.pipeline_depth``, and the runner's ``--pipeline-depth``
flag.
"""

from __future__ import annotations

import types

import pytest

from repro import default_model
from repro.config import PIPELINE_DEPTH_ENV
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.objectives import OBJECTIVES
from repro.dse.space import design_points, figure2_variant_configs
from repro.dse.spec import AUTO_PIPELINE_DEPTHS, EvalSpec
from repro.errors import ServiceError, SimulationError
from repro.evaluation import runner
from repro.service import ServiceProfile

PROFILE = ServiceProfile(rate_rps=20_000.0, max_batch=4, deadline_us=300.0,
                         queue_bound=32, pairs_per_request=3, n_requests=48,
                         arrival="poisson", seed=1)


@pytest.fixture(scope="module")
def two_points():
    configs = list(figure2_variant_configs().values())[:2]
    return list(design_points(configs, [default_model()]))


# ---------------------------------------------------------------------------
# The pipeline_depth policy on evaluate_design_point
# ---------------------------------------------------------------------------

def test_resolve_pipeline_policy(monkeypatch):
    def depths(pipeline_depth):
        return EvalSpec(batch_size=4, pipeline_depth=pipeline_depth).depths

    monkeypatch.delenv(PIPELINE_DEPTH_ENV, raising=False)
    assert depths(None) == (1,)
    assert depths("auto") == AUTO_PIPELINE_DEPTHS
    assert depths(3) == (3,)
    monkeypatch.setenv(PIPELINE_DEPTH_ENV, "2")
    assert depths(None) == (2,)
    # The environment default is for batched sweeps; it never makes a
    # single-pairing evaluation illegal.
    assert EvalSpec().depths == (1,)


def test_explicit_depth_recorded_and_improves(toy_bn, two_points):
    one_shot = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                     batch_size=4, do_assemble=False)
    deep = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                 batch_size=4, do_assemble=False,
                                 pipeline_depth=2)
    assert one_shot.pipeline_depth == 1
    assert one_shot.steady_cycles_per_pairing == one_shot.cycles_per_pairing
    assert one_shot.steady_throughput_ops == pytest.approx(
        one_shot.throughput_ops, rel=1e-9)
    assert deep.pipeline_depth == 2
    # Keeping two batch instances in flight overlaps the final-exp tail with
    # the next instance's Miller lanes on the 4-core model: the sustained
    # figure must beat the one-shot score strictly.
    assert deep.steady_cycles_per_pairing < one_shot.steady_cycles_per_pairing
    assert deep.steady_throughput_ops > one_shot.steady_throughput_ops
    # The one-shot latency figures do not change -- depth is a throughput knob.
    assert deep.cycles == one_shot.cycles
    summary = deep.describe()
    assert summary["pipeline_depth"] == 2
    assert summary["steady_cycles_per_pairing"] == round(
        deep.steady_cycles_per_pairing, 1)


def test_auto_depth_picks_the_steady_state_winner(toy_bn, two_points):
    auto = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                 batch_size=4, do_assemble=False,
                                 pipeline_depth="auto")
    assert auto.pipeline_depth in AUTO_PIPELINE_DEPTHS
    explicit = {
        depth: evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                     batch_size=4, do_assemble=False,
                                     pipeline_depth=depth)
        for depth in AUTO_PIPELINE_DEPTHS
    }
    best = min(explicit.values(), key=lambda m: m.steady_cycles_per_pairing)
    assert auto.steady_cycles_per_pairing == best.steady_cycles_per_pairing
    # On the 4-core batch-4 kernel the ladder must do better than one-shot.
    assert auto.pipeline_depth > 1


def test_env_default_depth(toy_bn, two_points, monkeypatch):
    monkeypatch.setenv(PIPELINE_DEPTH_ENV, "2")
    metrics = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                    batch_size=4, do_assemble=False)
    assert metrics.pipeline_depth == 2


def test_single_pairing_depth_one_is_fine(toy_bn, two_points):
    metrics = evaluate_design_point(toy_bn, two_points[0], do_assemble=False,
                                    pipeline_depth=1)
    assert metrics.pipeline_depth == 1
    assert metrics.steady_cycles_per_pairing == metrics.cycles_per_pairing


# ---------------------------------------------------------------------------
# steady_throughput objective + explorer determinism
# ---------------------------------------------------------------------------

def test_steady_throughput_objective_registered():
    assert "steady_throughput" in OBJECTIVES


@pytest.mark.parametrize("workers", [1, 2])
def test_explorer_ranking_deterministic(toy_bn, two_points, workers):
    engine = ParallelExplorer(toy_bn, workers=workers, do_assemble=False,
                              batch_size=4, n_cores=4, pipeline_depth="auto")
    ranked = engine.explore(two_points, "steady_throughput")
    assert len(ranked) == 2
    assert all(m.steady_throughput_ops > 0 for m in ranked)
    assert ranked[0].steady_throughput_ops >= ranked[1].steady_throughput_ops
    # The ranking is a pure function of the design points: a fresh sequential
    # pass reproduces the exact same figures in the exact same order.
    again = ParallelExplorer(toy_bn, workers=1, do_assemble=False,
                             batch_size=4, n_cores=4, pipeline_depth="auto")
    reranked = again.explore(two_points, "steady_throughput")
    assert [(m.label, m.pipeline_depth, m.steady_throughput_ops) for m in ranked] \
        == [(m.label, m.pipeline_depth, m.steady_throughput_ops) for m in reranked]


# ---------------------------------------------------------------------------
# Steady-state service-time model
# ---------------------------------------------------------------------------

def test_service_profile_validates_depth():
    ServiceProfile(rate_rps=1.0, pipeline_depth=2)
    ServiceProfile(rate_rps=1.0, pipeline_depth=None)
    for bad in (True, 0, 2.5):
        with pytest.raises(ServiceError):
            ServiceProfile(rate_rps=1.0, pipeline_depth=bad)


def test_service_latency_uses_steady_state(toy_bn, two_points):
    one_shot = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                     batch_size=4, do_assemble=False,
                                     service_profile=PROFILE)
    deep = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                 batch_size=4, do_assemble=False,
                                 service_profile=PROFILE, pipeline_depth=2)
    # A continuously-fed accelerator serves each batch in its steady-state
    # time: latency percentiles can only improve (or hold) vs one-shot.
    assert deep.service_p50_us <= one_shot.service_p50_us
    assert deep.service_vps >= one_shot.service_vps


def test_service_profile_depth_overrides_scoring_depth(toy_bn, two_points):
    profile = ServiceProfile(rate_rps=PROFILE.rate_rps, max_batch=PROFILE.max_batch,
                             deadline_us=PROFILE.deadline_us,
                             queue_bound=PROFILE.queue_bound,
                             pairs_per_request=PROFILE.pairs_per_request,
                             n_requests=PROFILE.n_requests,
                             arrival=PROFILE.arrival, seed=PROFILE.seed,
                             pipeline_depth=2)
    via_profile = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                        batch_size=4, do_assemble=False,
                                        service_profile=profile)
    via_scoring = evaluate_design_point(toy_bn, two_points[0], n_cores=4,
                                        batch_size=4, do_assemble=False,
                                        service_profile=PROFILE,
                                        pipeline_depth=2)
    assert via_profile.service_p50_us == via_scoring.service_p50_us
    assert via_profile.service_vps == via_scoring.service_vps


# ---------------------------------------------------------------------------
# Runner --pipeline-depth flag
# ---------------------------------------------------------------------------

def _dummy_experiments():
    calls = []

    def run(scale=None):
        calls.append(scale)
        return {"ok": True}

    module = types.SimpleNamespace(run=run, render=lambda result: "dummy")
    return {"dummy": module}, calls


def test_runner_pipeline_depth_flag(monkeypatch, capsys):
    monkeypatch.setenv(PIPELINE_DEPTH_ENV, "1")  # registers restoration
    experiments, calls = _dummy_experiments()
    monkeypatch.setattr(runner, "EXPERIMENTS", experiments)
    assert runner.main(["--pipeline-depth", "3", "dummy"]) == 0
    assert calls == [None]
    import os

    assert os.environ[PIPELINE_DEPTH_ENV] == "3"
    capsys.readouterr()


def test_runner_pipeline_depth_flag_rejects_garbage(monkeypatch):
    monkeypatch.setenv(PIPELINE_DEPTH_ENV, "1")
    experiments, _ = _dummy_experiments()
    monkeypatch.setattr(runner, "EXPERIMENTS", experiments)
    for bad in ("zero", "2.5"):
        with pytest.raises(SimulationError):
            runner.main(["--pipeline-depth", bad, "dummy"])
    with pytest.raises(SimulationError):
        runner.main(["--pipeline-depth", "0", "dummy"])
    with pytest.raises(SimulationError):
        runner.main(["--pipeline-depth", "-2", "dummy"])
