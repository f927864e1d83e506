"""Every host-side counter surface, pinned after one fixed toy workload.

Runner summaries, the ledger, ``tools/chaos.py`` and operators index these
dicts by key, so their key sets, key order and values are a contract: a
refactor of how the counting is done must leave every one of them as it is.
Only wall-clock figures (latencies, throughput) and on-disk sizes are pinned
by key alone.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.compiler.pipeline import clear_caches, compile_cache_stats
from repro.compiler.store import SCHEMA_VERSION, code_fingerprint, configure_store
from repro.dse.engine import ParallelExplorer
from repro.dse.space import design_points, named_variant_configs
from repro.hw.presets import figure10_models
from repro.reliability import configure_faults
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import FaultPlan
from repro.service import ServiceConfig, VerificationService
from repro.service.workloads import make_bls_requests, make_groth16_requests

STAGE = ["hits", "misses", "stores", "hit_rate", "entries", "name"]
DISK = ["hits", "misses", "stores", "corrupt", "evictions", "errors", "hit_rate", "name"]
RELIABILITY = {"retries": 1, "backoff_s": 0.0216, "worker_crashes": 0, "eval_timeouts": 0,
               "chunks_resubmitted": 0, "points_isolated": 0, "points_quarantined": 0}


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    configure_faults(None)


def _pinned(actual: dict, expected: dict) -> None:
    """Same keys in the same order, and the same values."""
    assert list(actual) == list(expected)
    assert actual == expected


def test_sweep_counter_schemas(toy_bn, tmp_path):
    """A cold sweep fills the store; a second one, with its memory tier
    dropped, reads one garbage entry and retries one evaluation."""
    store = configure_store(tmp_path / "store")
    clear_caches()
    points = design_points(list(named_variant_configs().values())[:2],
                           figure10_models(toy_bn.params.p.bit_length())[:1])
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        explorer.explore(points, "throughput")
        clear_caches()
        configure_faults(FaultPlan.parse(
            "worker.evaluate:error@1*1;store.read:garbage@1*1"))
        explorer.explore(points + points[:1], "throughput")
        configure_faults(None)

    stats = compile_cache_stats()
    assert list(stats) == ["codegen", "lowering", "iropt", "result", "disk"]
    # IROpt drops the lowered module it consumed: no ``lowering`` entry stays.
    for name, values in (("codegen", [1, 1, 1, 0.5, 1]), ("lowering", [1, 1, 1, 0.5, 0]),
                         ("iropt", [0, 1, 1, 0.0, 1]), ("result", [0, 1, 2, 0.0, 2])):
        _pinned(stats[name], dict(zip(STAGE, values + [name])))
    disk = dict(zip(DISK, [1, 2, 1, 1, 0, 0, 0.3333, "disk"]))
    _pinned(stats["disk"], disk)
    _pinned(store.counters(), disk)

    described = store.describe()
    assert described.pop("bytes") > 0
    _pinned(described, dict(
        disk, entries=2, root=str(tmp_path / "store"), schema=SCHEMA_VERSION,
        namespace=f"v{SCHEMA_VERSION}-{code_fingerprint()[:12]}",
        max_bytes=store.max_bytes))

    _pinned(explorer.reliability.snapshot(), RELIABILITY)
    _pinned(explorer.last_report.describe(), {
        "points": 3, "distinct_points": 2, "workers": 1, "chunks": 0,
        "objective": "throughput", "parallel": False, "compile_hits": 0,
        "compile_misses": 1, "cached_points": 1, "disk_hits": 1, "disk_misses": 2,
        "failed_points": 0, "reliability": RELIABILITY,
    })


def test_service_counter_schemas(toy_bn):
    """Two full batches: the first holds a forgery, fails its fused check and
    trips a one-failure breaker, so the second is verified exactly."""
    config = ServiceConfig(max_batch=4, deadline_ms=10_000.0, breaker_threshold=1,
                           breaker_cooldown_ms=60_000.0)
    traffic = (make_groth16_requests(toy_bn, 4, seed=3, forge_fraction=0.25)
               + make_bls_requests(toy_bn, 4, seed=4))

    async def scenario():
        async with VerificationService(toy_bn, config, rng=random.Random(1)) as service:
            verdicts = await asyncio.wait_for(
                asyncio.gather(*[service.submit(request) for request, _ in traffic]),
                timeout=60.0)
            return service, verdicts

    service, verdicts = asyncio.run(scenario())
    assert verdicts == [expected for _, expected in traffic]

    snapshot = service.metrics.snapshot()
    latency, vps = snapshot.pop("latency_ms"), snapshot.pop("sustained_vps")
    assert list(latency) == ["p50", "p95", "p99"] and vps > 0
    _pinned(snapshot, {
        "admitted": 8, "completed": 8, "rejected": 0, "batches": 2,
        "mean_batch_size": 4.0, "batch_size_histogram": {4: 2}, "queue_depth_max": 4,
        "reliability": {
            "fused_batches": 1, "fused_failures": 1, "fused_pairs": 12,
            "fused_sources": 8, "breaker_exact_batches": 1, "breaker_trips": 1,
            "breaker_probes": 0, "shed": 0, "failed_requests": 0,
        },
    })
    _pinned(service.vk_cache.stats(), {"hits": 7, "misses": 9, "evictions": 0, "entries": 9})
    _pinned(service.breaker.snapshot(),
            {"state": "open", "consecutive_failures": 0, "trips": 1, "probes": 0})


def test_breaker_counter_schema():
    now = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1.0, clock=lambda: now[0])
    breaker.record_failure()
    breaker.record_failure()
    now[0] = 2.0
    assert breaker.allow()
    breaker.record_failure()
    _pinned(breaker.snapshot(),
            {"state": "open", "consecutive_failures": 0, "trips": 2, "probes": 1})
