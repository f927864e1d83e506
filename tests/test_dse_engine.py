"""Parallel exploration engine: determinism, cache reuse, worker sharding."""

import pytest
from test_artifact_store import _flip_bulk_byte, _section_offsets

from repro.compiler.pipeline import (
    clear_caches,
    compile_cache_stats,
    pairing_compile_digest,
)
from repro.compiler.store import CACHE_DIR_ENV, active_store, reset_store_state
from repro.config import WORKERS_ENV
from repro.dse.codesign import alu_family_codesign
from repro.dse.engine import ParallelExplorer, worker_cache_stats
from repro.dse.explorer import evaluate_design_point
from repro.dse.objectives import OBJECTIVES, resolve_objective
from repro.dse.space import design_points, named_variant_configs
from repro.errors import DSEError
from repro.hw.presets import figure10_models
from repro.reliability import configure_faults
from repro.reliability.faults import FaultPlan


@pytest.fixture(scope="module")
def toy_points(toy_bn):
    configs = list(named_variant_configs().values())
    hw_models = figure10_models(toy_bn.params.p.bit_length())[:2]
    return design_points(configs, hw_models)


# ---------------------------------------------------------------------------
# Sequential parity (the workers=1 contract)
# ---------------------------------------------------------------------------

def test_workers1_reproduces_sequential_exactly(toy_bn, toy_points):
    """ParallelExplorer(workers=1) is bit-identical to the in-order loop."""
    reference = [evaluate_design_point(toy_bn, point) for point in toy_points]
    score = resolve_objective("throughput")
    reference_ranked = sorted(reference, key=score, reverse=True)

    engine = ParallelExplorer(toy_bn, workers=1)
    ranked = engine.explore(toy_points, objective="throughput")
    assert ranked == reference_ranked
    assert engine.evaluated == reference
    assert engine.last_report is not None
    assert engine.last_report.parallel is False
    assert engine.last_report.points == len(toy_points)


def test_second_sweep_performs_zero_recompilations(toy_bn, toy_points):
    """A cached re-sweep over the same design points never recompiles."""
    clear_caches()
    engine = ParallelExplorer(toy_bn, workers=1)
    first = engine.explore(toy_points, objective="efficiency")
    misses_after_first = compile_cache_stats()["result"]["misses"]
    assert misses_after_first == len(toy_points)
    assert engine.last_report.cache_stats["result"]["misses"] == len(toy_points)

    second = engine.explore(toy_points, objective="efficiency")
    stats = compile_cache_stats()["result"]
    assert second == first
    assert stats["misses"] == misses_after_first          # zero recompilations
    assert stats["hits"] >= len(toy_points)
    # The per-sweep report confirms: every point served from cache, none compiled.
    assert engine.last_report.cache_stats["result"]["misses"] == 0
    assert engine.last_report.cache_stats["result"]["hits"] == len(toy_points)


def test_objective_handling_matches_legacy(toy_bn, toy_points):
    engine = ParallelExplorer(toy_bn, workers=1)
    with pytest.raises(DSEError):
        engine.explore(toy_points, objective="nonsense")
    with pytest.raises(DSEError):
        engine.best([], objective="throughput")
    by_callable = engine.explore(toy_points, objective=lambda m: -m.cycles)
    assert by_callable[0].cycles == min(m.cycles for m in engine.evaluated)
    assert engine.last_report.objective == "<lambda>"
    # A registry Objective passed directly reports its registry name, as the
    # Pareto sweep does.
    engine.explore(toy_points, objective=OBJECTIVES["efficiency"])
    assert engine.last_report.objective == "efficiency"


# ---------------------------------------------------------------------------
# Parallel sharding
# ---------------------------------------------------------------------------

def test_parallel_workers_agree_with_sequential(toy_bn, toy_points):
    sequential = ParallelExplorer(toy_bn, workers=1).explore(toy_points)
    # The parent answers what its memory tier holds: empty it, so that the
    # pool is still what this test exercises.
    clear_caches()
    with ParallelExplorer(toy_bn, workers=2) as parallel:
        ranked = parallel.explore(toy_points)
        # Deterministic merge: identical metrics and identical ranking regardless
        # of worker count (the engine falls back to sequential where pools are
        # denied, which trivially preserves the contract).
        assert ranked == sequential
        assert parallel.evaluated == [
            evaluate_design_point(toy_bn, point) for point in toy_points
        ]
        if parallel.last_report.parallel:
            # Fewer points than 4 x workers: one point per chunk.
            assert parallel.last_report.chunks == len(toy_points)
            # Worker compile activity is tracked in the process-lifetime totals.
            totals = worker_cache_stats()["result"]
            assert totals["hits"] + totals["misses"] >= len(toy_points)


def test_chunking_is_deterministic_and_exhaustive(toy_bn, toy_points):
    """Chunks are contiguous, cover every point once and balance the misses
    across workers: ``ceil(n / (4 * workers))`` points each."""
    for workers, n, size in ((3, len(toy_points), 1), (2, 25, 4), (3, 25, 3)):
        indexed = list(enumerate(range(n)))
        chunks = ParallelExplorer(toy_bn, workers=workers)._chunk_indexed(indexed)
        assert [index for chunk in chunks for index, _ in chunk] == list(range(n))
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= size
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, workers=2, chunk_size=2)


def test_default_workers_env(toy_bn, monkeypatch):
    monkeypatch.delenv("FINESSE_DSE_WORKERS", raising=False)
    assert ParallelExplorer(toy_bn).workers == 1
    monkeypatch.setenv("FINESSE_DSE_WORKERS", "4")
    assert ParallelExplorer(toy_bn).workers == 4
    assert ParallelExplorer(toy_bn, workers=2).workers == 2     # explicit wins
    monkeypatch.setenv("FINESSE_DSE_WORKERS", "bogus")
    assert ParallelExplorer(toy_bn).workers == 1
    monkeypatch.setenv("FINESSE_DSE_WORKERS", "0")
    assert ParallelExplorer(toy_bn).workers == 1


# ---------------------------------------------------------------------------
# Codesign through the engine
# ---------------------------------------------------------------------------

def test_codesign_routes_through_engine(toy_bn, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    records = alu_family_codesign(toy_bn, long_latencies=(14, 26, 38))
    assert [record.long_latency for record in records] == [14, 26, 38]
    assert all(record.cycles > 0 and 0 < record.ipc <= 1.0 for record in records)
    # The engine path must agree with a direct re-evaluation.
    again = alu_family_codesign(toy_bn, long_latencies=(14, 26, 38))
    assert again == records


# ---------------------------------------------------------------------------
# Dedup at dispatch: each distinct point compiles exactly once pool-wide
# ---------------------------------------------------------------------------

def test_cold_parallel_sweep_compiles_each_distinct_point_once(toy_bn, toy_points):
    """Duplicated points are dispatched once and filled from a representative."""
    clear_caches()
    points = list(toy_points) + list(toy_points[:3])
    with ParallelExplorer(toy_bn, workers=2) as engine:
        ranked = engine.explore(points)
    report = engine.last_report
    assert report.points == len(points)
    assert report.distinct_points == len(toy_points)
    # Exactly one compilation per distinct point across the whole pool,
    # whether the sweep ran parallel or fell back to the sequential path.
    assert report.cache_stats["result"]["misses"] == len(toy_points)
    assert "distinct_points" in report.describe()
    # Duplicate slots carry their twin's metrics; ranking covers all 9 points.
    for i in range(3):
        assert engine.evaluated[len(toy_points) + i] == engine.evaluated[i]
    assert len(ranked) == len(points)
    assert engine.evaluated[: len(toy_points)] == [
        evaluate_design_point(toy_bn, point) for point in toy_points
    ]


# ---------------------------------------------------------------------------
# Warm sweeps: the parent answers cached points before it builds a pool
# ---------------------------------------------------------------------------

@pytest.fixture
def sweep_store(tmp_path, monkeypatch):
    """An empty disk tier that pool workers see too (they inherit the variable)."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
    reset_store_state()
    clear_caches()
    return active_store()


def _sweep(curve, points, workers):
    with ParallelExplorer(curve, workers=workers) as explorer:
        ranked = explorer.explore(points, "efficiency")
        if workers > 1 and explorer._pool_unavailable:
            pytest.skip("process pools unavailable in this environment")
        return ranked, explorer


def _entry(store, curve, point):
    return store._path(pairing_compile_digest(
        curve, hw=point.hw, variant_config=point.variant_config,
        final_exp_mode="cyclotomic"))


def test_cold_parallel_sweep_counts_as_before(toy_bn, toy_points, sweep_store):
    """The parent's lookups find nothing and count nothing: every miss and
    every store is the worker's that compiled the point."""
    n = len(toy_points)
    _, explorer = _sweep(toy_bn, toy_points, 2)
    report = explorer.last_report
    assert (report.cached_points, report.parallel) == (0, True)
    assert "cached_points" not in report.describe()
    assert report.cache_stats["result"]["misses"] == n
    assert (report.cache_stats["disk"]["misses"], report.cache_stats["disk"]["stores"],
            report.cache_stats["disk"]["hits"]) == (n, n, 0)
    assert sweep_store.stats.misses == 0        # none of them the parent's


def test_warm_parallel_sweep_forks_nothing(toy_bn, toy_points, sweep_store):
    n = len(toy_points)
    sequential, _ = _sweep(toy_bn, toy_points, 1)
    clear_caches()                              # memory tier only
    ranked, explorer = _sweep(toy_bn, toy_points, 2)
    report = explorer.last_report
    assert explorer._pool is None               # never created, not merely closed
    assert (report.chunks, report.parallel, report.distinct_points) == (0, False, n)
    assert report.cached_points == report.describe()["cached_points"] == n
    assert report.cache_stats["result"]["misses"] == 0
    assert report.cache_stats["disk"]["hits"] == n
    assert ranked == sequential
    # What the parent answered it now holds: the next sweep is memory hits,
    # and duplicates of a cached representative are filled from it.
    _, explorer = _sweep(toy_bn, toy_points + toy_points[:3], 2)
    report = explorer.last_report
    assert explorer.evaluated[n:] == explorer.evaluated[:3]
    assert (report.cached_points, report.distinct_points, report.chunks) == (n, n, 0)
    assert report.cache_stats["result"]["hits"] == n
    assert report.cache_stats["disk"]["hits"] == 0
    # One path at either worker count: the same warm sweep, duplicates
    # included, reports the same bookkeeping in process and with a pool.
    described = {}
    for workers in (1, 2):
        clear_caches()                          # memory tier only
        _, explorer = _sweep(toy_bn, toy_points + toy_points[:3], workers)
        described[workers] = dict(explorer.last_report.describe(), workers=None)
    assert described[1] == described[2]
    assert described[1]["cached_points"] == described[1]["distinct_points"] == n


def test_mixed_sweep_dispatches_only_what_is_missing(toy_bn, toy_points, sweep_store):
    n = len(toy_points)
    sequential, reference = _sweep(toy_bn, toy_points, 1)
    for point in toy_points[::2]:               # every other point: slots interleave
        _entry(sweep_store, toy_bn, point).unlink()
    clear_caches()
    ranked, explorer = _sweep(toy_bn, toy_points, 2)     # one point per chunk
    report = explorer.last_report
    missing = len(toy_points[::2])
    assert (report.cached_points, report.chunks) == (n - missing, missing)
    assert report.cache_stats["result"]["misses"] == missing
    assert report.cache_stats["disk"]["hits"] == n - missing
    assert ranked == sequential
    assert explorer.evaluated == reference.evaluated        # every answer in its own slot


def test_corrupt_entry_read_by_the_parent_is_dispatched(toy_bn, toy_points, sweep_store):
    """Damage to an entry's head is a miss at the parent's load."""
    sequential, _ = _sweep(toy_bn, toy_points, 1)
    path = _entry(sweep_store, toy_bn, toy_points[2])
    blob = bytearray(path.read_bytes())
    head, bulk = _section_offsets(blob)
    blob[(head + bulk) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    clear_caches()
    ranked, explorer = _sweep(toy_bn, toy_points, 2)
    report = explorer.last_report
    assert sweep_store.stats.corrupt == 1       # the parent's own read
    assert (report.cached_points, report.chunks) == (len(toy_points) - 1, 1)
    assert report.cache_stats["result"]["misses"] == 1      # recompiled by a worker
    assert ranked == sequential


def test_a_damaged_bulk_leaves_a_warm_sweep_cached(toy_bn, toy_points, sweep_store):
    """A sweep prices every point from the heads: damage inside one entry's
    bulk is neither read nor fixed by it, and costs no dispatch."""
    sequential, _ = _sweep(toy_bn, toy_points, 1)
    _flip_bulk_byte(_entry(sweep_store, toy_bn, toy_points[2]))
    clear_caches()
    ranked, explorer = _sweep(toy_bn, toy_points, 2)
    report = explorer.last_report
    assert (report.cached_points, report.chunks) == (len(toy_points), 0)
    assert report.cache_stats["result"]["misses"] == 0
    assert (report.cache_stats["disk"]["hits"], report.cache_stats["disk"]["corrupt"]) == (
        len(toy_points), 0)
    assert ranked == sequential


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_report_carries_every_store_counter(toy_bn, toy_points, sweep_store, workers):
    """The report's ``disk`` entry is the store's whole counter set, pool
    workers' counts included: two garbage reads are two ``corrupt``."""
    _sweep(toy_bn, toy_points, 1)
    clear_caches()
    configure_faults(FaultPlan.parse("store.read:garbage@1*2"))
    try:
        _, explorer = _sweep(toy_bn, toy_points, workers)
    finally:
        configure_faults(None)
    disk = explorer.last_report.cache_stats["disk"]
    assert list(disk) == ["hits", "misses", "stores", "corrupt", "evictions", "errors"]
    assert (disk["corrupt"], disk["evictions"], disk["errors"]) == (2, 0, 0)
    # The parent drops both entries and dispatches their points; whoever
    # compiles them finds nothing on disk (two more misses) and stores both.
    assert (disk["hits"], disk["misses"], disk["stores"]) == (len(toy_points) - 2, 4, 2)


@pytest.mark.parametrize("budget", [None, 7], ids=["exhaustive", "top7"])
def test_pareto_is_one_result_for_any_workers_and_cache_state(
        toy_bn, toy_points, sweep_store, budget):
    results = []
    for workers in (1, 2):
        clear_caches(disk=True)
        for _ in ("cold", "warm"):
            clear_caches()                      # memory tier only
            with ParallelExplorer(toy_bn, workers=workers) as explorer:
                results.append(explorer.explore_pareto(
                    toy_points, ("throughput", "area"), budget=budget))
        assert explorer.last_report.cache_stats["result"]["misses"] == 0
        assert explorer.last_report.chunks == 0
    assert results.count(results[0]) == 4
