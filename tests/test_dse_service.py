"""DSE ranking by end-to-end service behaviour (``service_profile``)."""

from __future__ import annotations

import pytest

from repro import default_model
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.objectives import OBJECTIVES
from repro.dse.space import design_points, figure2_variant_configs
from repro.service import ServiceProfile

PROFILE = ServiceProfile(rate_rps=20_000.0, max_batch=4, deadline_us=300.0,
                         queue_bound=32, pairs_per_request=3, n_requests=48,
                         arrival="poisson", seed=1)


@pytest.fixture(scope="module")
def two_points():
    configs = list(figure2_variant_configs().values())[:2]
    return list(design_points(configs, [default_model()]))


def test_evaluate_with_service_profile(toy_bn, two_points):
    metrics = evaluate_design_point(toy_bn, two_points[0], batch_size=12,
                                    do_assemble=False, service_profile=PROFILE)
    assert metrics.service_p50_us > 0
    assert metrics.service_p50_us <= metrics.service_p95_us <= metrics.service_p99_us
    assert metrics.service_vps > 0
    assert metrics.service_rejected >= 0
    summary = metrics.describe()
    assert summary["service"]["sustained_vps"] == pytest.approx(
        metrics.service_vps, rel=1e-3)


def test_evaluate_without_profile_leaves_fields_zero(toy_bn, two_points):
    metrics = evaluate_design_point(toy_bn, two_points[0], batch_size=12,
                                    do_assemble=False)
    assert metrics.service_vps == 0.0
    assert metrics.service_p99_us == 0.0
    assert "service" not in metrics.describe()


def test_service_metrics_are_deterministic(toy_bn, two_points):
    first = evaluate_design_point(toy_bn, two_points[0], batch_size=12,
                                  do_assemble=False, service_profile=PROFILE)
    second = evaluate_design_point(toy_bn, two_points[0], batch_size=12,
                                   do_assemble=False, service_profile=PROFILE)
    assert first.service_p99_us == second.service_p99_us
    assert first.service_vps == second.service_vps


def test_single_pairing_evaluation_accepts_profile(toy_bn, two_points):
    """The service model also works when the point is scored on the 1-pairing kernel."""
    metrics = evaluate_design_point(toy_bn, two_points[0], do_assemble=False,
                                    service_profile=PROFILE)
    assert metrics.service_vps > 0


def test_explorer_ranks_by_service_objectives(toy_bn, two_points):
    engine = ParallelExplorer(toy_bn, workers=1, do_assemble=False, batch_size=12,
                              service_profile=PROFILE)
    ranked = engine.explore(two_points, "service_throughput")
    assert len(ranked) == 2
    assert all(metrics.service_vps > 0 for metrics in ranked)
    assert ranked[0].service_vps >= ranked[1].service_vps

    by_p99 = engine.explore(two_points, "service_p99")
    assert by_p99[0].service_p99_us <= by_p99[1].service_p99_us


def test_service_objectives_registered():
    assert "service_throughput" in OBJECTIVES
    assert "service_p99" in OBJECTIVES
