"""A sweep ranks the same at any worker count: the ranking is a pure
function of its design points."""

from __future__ import annotations

import pytest

from repro import default_model
from repro.dse.engine import ParallelExplorer
from repro.dse.space import design_points, figure2_variant_configs


@pytest.fixture(scope="module")
def two_points():
    configs = list(figure2_variant_configs().values())[:2]
    return list(design_points(configs, [default_model()]))


@pytest.mark.parametrize("workers", [1, 2])
def test_explorer_ranking_deterministic(toy_bn, two_points, workers):
    with ParallelExplorer(toy_bn, workers=workers) as engine:
        ranked = engine.explore(two_points, "throughput")
    assert len(ranked) == 2
    assert all(m.throughput_ops > 0 for m in ranked)
    assert ranked[0].throughput_ops >= ranked[1].throughput_ops
    # The ranking is a pure function of the design points: a fresh sequential
    # pass reproduces the exact same figures in the exact same order.
    reranked = ParallelExplorer(toy_bn, workers=1).explore(two_points, "throughput")
    assert [(m.label, m.cycles, m.throughput_ops) for m in ranked] \
        == [(m.label, m.cycles, m.throughput_ops) for m in reranked]
