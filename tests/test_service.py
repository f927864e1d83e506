"""Streaming verification service: batching policy, routing, caching, backpressure.

The asyncio tests drive the real service (real pairings on the toy curve)
through ``asyncio.run`` -- no event-loop plugin needed -- and assert the three
behaviours the service contract promises: batches flush on deadline OR
max-batch, every caller gets exactly its own verdict, and service-path
verdicts are bit-identical to unbatched ``multi_pairing`` verification.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.errors import PairingError, ServiceError, ServiceOverloadedError
from repro.pairing.batch import multi_pairing
from repro.service import (
    DynamicBatcher,
    ServiceConfig,
    VerificationService,
    VerifyingKeyCache,
    g2_point_digest,
    make_bls_requests,
    make_groth16_requests,
)
from repro.service.config import (
    DEADLINE_ENV,
    FUSE_ENV,
    MAX_BATCH_ENV,
    QUEUE_BOUND_ENV,
)
from repro.service.workloads import build_request_pairs


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_defaults_and_overrides():
    config = ServiceConfig()
    assert config.max_batch == 8
    assert config.fuse == "rlc"
    assert config.deadline_s == pytest.approx(0.020)
    bigger = config.with_overrides(max_batch=32)
    assert bigger.max_batch == 32
    assert config.max_batch == 8  # frozen: original untouched


@pytest.mark.parametrize("bad", [
    {"max_batch": 0},
    {"max_batch": True},
    {"deadline_ms": -1.0},
    {"queue_bound": 0},
    {"fuse": "xor"},
    {"accumulators": 0},
    {"vk_cache_entries": 0},
    {"retry_after_ms": -2.0},
])
def test_config_rejects_degenerate_values(bad):
    with pytest.raises(ServiceError):
        ServiceConfig(**bad)


def test_config_from_env(monkeypatch):
    monkeypatch.setenv(MAX_BATCH_ENV, "4")
    monkeypatch.setenv(DEADLINE_ENV, "2.5")
    monkeypatch.setenv(QUEUE_BOUND_ENV, "17")
    monkeypatch.setenv(FUSE_ENV, "none")
    config = ServiceConfig.from_env()
    assert (config.max_batch, config.deadline_ms,
            config.queue_bound, config.fuse) == (4, 2.5, 17, "none")
    # explicit overrides beat the environment
    assert ServiceConfig.from_env(max_batch=9).max_batch == 9


def test_config_from_env_ignores_malformed(monkeypatch):
    monkeypatch.setenv(MAX_BATCH_ENV, "lots")
    monkeypatch.setenv(FUSE_ENV, "sometimes")
    config = ServiceConfig.from_env()
    assert config.max_batch == ServiceConfig().max_batch
    assert config.fuse == "rlc"


# ---------------------------------------------------------------------------
# Verifying-key cache
# ---------------------------------------------------------------------------

def test_g2_digest_is_content_addressed(toy_bn):
    g2 = toy_bn.g2_generator
    twin = g2.scalar_mul(1)  # structurally equal, different object
    assert g2_point_digest(toy_bn, g2) == g2_point_digest(toy_bn, twin)
    other = g2.scalar_mul(2)
    assert g2_point_digest(toy_bn, g2) != g2_point_digest(toy_bn, other)
    assert g2_point_digest(toy_bn, g2, use_naf=True) \
        != g2_point_digest(toy_bn, g2, use_naf=False)


def test_g2_digest_rejects_infinity(toy_bn):
    infinity = toy_bn.g2_generator.scalar_mul(toy_bn.r)
    with pytest.raises(PairingError):
        g2_point_digest(toy_bn, infinity)


def test_vk_cache_hits_and_evicts(toy_bn):
    cache = VerifyingKeyCache(toy_bn, max_entries=1)
    g2 = toy_bn.g2_generator
    other = g2.scalar_mul(3)
    first = cache.get(g2)
    assert cache.get(g2.scalar_mul(1)) is first        # content hit
    cache.get(other)                                   # evicts g2
    cache.get(g2)                                      # recomputed
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 3
    assert stats["evictions"] == 2
    assert stats["entries"] == 1


# ---------------------------------------------------------------------------
# Dynamic batcher (cheap dummy flush -- policy only, no pairings)
# ---------------------------------------------------------------------------

def _run(coro):
    return asyncio.run(coro)


def test_batcher_max_batch_flush():
    """A backlog of 4 with max_batch=2 flushes as two full batches, no deadline wait."""
    flushed = []

    async def flush(items):
        flushed.append(list(items))
        return items

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=2, deadline_s=60.0, queue_bound=16)
        futures = [batcher.admit(i) for i in range(4)]
        await batcher.start()
        results = await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await batcher.stop()
        return results

    assert _run(scenario()) == [0, 1, 2, 3]
    assert [len(batch) for batch in flushed] == [2, 2]


def test_batcher_deadline_flush():
    """A short batch flushes once the oldest request's deadline expires."""
    flushed = []

    async def flush(items):
        flushed.append(list(items))
        return items

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=100, deadline_s=0.05, queue_bound=16)
        await batcher.start()
        futures = [batcher.admit(i) for i in range(3)]
        results = await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await batcher.stop()
        return results

    assert _run(scenario()) == [0, 1, 2]
    assert [len(batch) for batch in flushed] == [3]   # one batch, well short of 100


def test_batcher_zero_deadline_flushes_greedily():
    flushed = []

    async def flush(items):
        flushed.append(list(items))
        return items

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=8, deadline_s=0.0, queue_bound=16)
        futures = [batcher.admit(i) for i in range(3)]
        await batcher.start()
        return await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)

    assert _run(scenario()) == [0, 1, 2]
    assert flushed and len(flushed[0]) == 3


def test_batcher_queue_full_rejects_with_retry_hint():
    async def flush(items):
        return items

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=4, deadline_s=1.0, queue_bound=2)
        futures = [batcher.admit(i) for i in range(2)]  # consumer never started
        with pytest.raises(ServiceOverloadedError) as info:
            batcher.admit(99)
        for future in futures:
            future.cancel()
        return info.value.retry_after_s

    assert _run(scenario()) > 0


def test_batcher_rejects_after_stop():
    async def flush(items):
        return items

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=2, deadline_s=0.01, queue_bound=4)
        await batcher.start()
        await batcher.stop()
        with pytest.raises(ServiceError):
            batcher.admit(1)

    _run(scenario())


def test_batcher_flush_errors_propagate_to_callers():
    async def flush(items):
        raise RuntimeError("verification backend down")

    async def scenario():
        batcher = DynamicBatcher(flush, max_batch=2, deadline_s=0.01, queue_bound=4)
        futures = [batcher.admit(i) for i in range(2)]
        await batcher.start()
        results = await asyncio.gather(*futures, return_exceptions=True)
        await batcher.stop()
        return results

    results = _run(scenario())
    assert all(isinstance(result, RuntimeError) for result in results)


# ---------------------------------------------------------------------------
# The service itself (real pairings on the toy curve)
# ---------------------------------------------------------------------------

def _serve_with_metrics(curve, traffic, config, seed=7):
    """Run every (request, expected) pair through one service instance; the
    verdicts and the ``reliability`` block of its snapshot."""
    async def scenario():
        async with VerificationService(curve, config,
                                       rng=random.Random(seed)) as service:
            futures = [service.submit(request) for request, _ in traffic]
            verdicts = await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
            return verdicts, service.metrics.snapshot()["reliability"]

    return asyncio.run(scenario())


def _serve_all(curve, traffic, config):
    return _serve_with_metrics(curve, traffic, config)[0]


def test_service_routes_verdicts_exactly(toy_bn):
    """Interleaved valid/forged Groth16+BLS traffic: every caller gets its own verdict."""
    traffic = (make_groth16_requests(toy_bn, 4, seed=3, forge_fraction=0.5)
               + make_bls_requests(toy_bn, 4, seed=4, forge_fraction=0.5))
    config = ServiceConfig(max_batch=8, deadline_ms=50.0, queue_bound=64)
    verdicts = _serve_all(toy_bn, traffic, config)
    assert verdicts == [expected for _, expected in traffic]
    # the fused check failed (forgeries present), so attribution was exact
    assert False in verdicts and True in verdicts


def test_service_bit_identical_to_unbatched(toy_bn):
    """Service-path verdicts equal per-request unbatched multi_pairing verdicts."""
    traffic = (make_groth16_requests(toy_bn, 3, seed=11, forge_fraction=0.34)
               + make_bls_requests(toy_bn, 2, seed=12))
    config = ServiceConfig(max_batch=5, deadline_ms=50.0, queue_bound=64)
    verdicts = _serve_all(toy_bn, traffic, config)

    reference_cache = VerifyingKeyCache(toy_bn)
    for verdict, (request, _) in zip(verdicts, traffic):
        pairs = build_request_pairs(request, toy_bn, reference_cache)
        assert verdict == multi_pairing(toy_bn, pairs).is_one()


def test_service_fuse_none_matches_rlc(toy_bn):
    traffic = make_groth16_requests(toy_bn, 4, seed=5, forge_fraction=0.25)
    rlc = _serve_all(toy_bn, traffic,
                     ServiceConfig(max_batch=4, deadline_ms=50.0))
    unfused = _serve_all(toy_bn, traffic,
                         ServiceConfig(max_batch=4, deadline_ms=50.0, fuse="none"))
    assert rlc == unfused == [expected for _, expected in traffic]


def test_service_all_valid_batch_passes_fused(toy_bn):
    """An all-valid batch is accepted by the single fused product."""
    traffic = make_bls_requests(toy_bn, 4, seed=6)
    config = ServiceConfig(max_batch=4, deadline_ms=50.0)

    async def scenario():
        async with VerificationService(toy_bn, config,
                                       rng=random.Random(1)) as service:
            futures = [service.submit(request) for request, _ in traffic]
            verdicts = await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
            return verdicts, service.metrics.batch_size_histogram()

    verdicts, histogram = asyncio.run(scenario())
    assert verdicts == [True] * 4
    assert histogram == {4: 1}        # coalesced into one fused batch


def test_service_vk_cache_reuse(toy_bn):
    """Fixed G2 points (vk, g2 generator, public keys) hit the cache across requests."""
    traffic = make_groth16_requests(toy_bn, 6, seed=8, n_circuits=1)
    config = ServiceConfig(max_batch=6, deadline_ms=50.0)

    async def scenario():
        async with VerificationService(toy_bn, config) as service:
            futures = [service.submit(request) for request, _ in traffic]
            await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
            return service.vk_cache.stats()

    stats = asyncio.run(scenario())
    assert stats["misses"] == 2           # one circuit: beta and delta, once each
    assert stats["hits"] == 10            # the other five requests reuse both


def test_service_verify_helpers_and_metrics(toy_bn):
    (request, expected), = make_groth16_requests(toy_bn, 1, seed=9)
    (bls_request, bls_expected), = make_bls_requests(toy_bn, 1, seed=10)
    config = ServiceConfig(max_batch=2, deadline_ms=5.0)

    async def scenario():
        async with VerificationService(toy_bn, config) as service:
            first = await service.verify_groth16(request.proof, request.vk)
            second = await service.verify_bls(
                bls_request.public_key, bls_request.message, bls_request.signature)
            return first, second, service.metrics.snapshot()

    first, second, snapshot = asyncio.run(scenario())
    assert (first, second) == (expected, bls_expected)
    assert snapshot["admitted"] == snapshot["completed"] == 2
    assert snapshot["rejected"] == 0
    assert snapshot["latency_ms"]["p50"] > 0
    assert snapshot["sustained_vps"] > 0


def test_service_rejects_unsupported_request(toy_bn):
    async def scenario():
        async with VerificationService(toy_bn, ServiceConfig()) as service:
            with pytest.raises(ServiceError):
                service.submit(object())

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# The coalesced fused batch: soundness, attribution, determinism
# ---------------------------------------------------------------------------

def test_cancelling_forgeries_are_both_rejected(toy_bn):
    """Two requests of one circuit carrying ``C + D`` and ``C - D``: each is
    invalid, and the errors cancel in the coalesced ``delta`` group whenever the
    two coefficients are equal -- so they must not be."""
    (first, _), (second, _) = make_groth16_requests(toy_bn, 2, seed=21, n_circuits=1)
    D = toy_bn.g1_generator.scalar_mul(0xD1FF)
    traffic = [(replace(request, proof=replace(request.proof, c=request.proof.c + shift)), False)
               for request, shift in ((first, D), (second, -D))]
    cache = VerifyingKeyCache(toy_bn)
    pairs = [build_request_pairs(request, toy_bn, cache) for request, _ in traffic]
    assert not any(multi_pairing(toy_bn, product).is_one() for product in pairs)
    assert multi_pairing(toy_bn, pairs[0] + pairs[1]).is_one()      # unit coefficients: fooled
    config = ServiceConfig(max_batch=2, deadline_ms=50.0)
    for seed in range(20):
        verdicts, reliability = _serve_with_metrics(toy_bn, traffic, config, seed)
        assert verdicts == [False, False], seed
        assert (reliability["fused_batches"], reliability["fused_failures"]) == (1, 1)


def test_a_forgery_inside_a_coalesced_batch_is_attributed_exactly(toy_bn):
    traffic = make_groth16_requests(toy_bn, 8, seed=23, forge_fraction=1 / 8)
    config = ServiceConfig(max_batch=8, deadline_ms=50.0)
    verdicts, reliability = _serve_with_metrics(toy_bn, traffic, config, seed=3)
    assert verdicts == [expected for _, expected in traffic] == [True] * 7 + [False]
    assert reliability["fused_failures"] == 1
    assert (reliability["fused_pairs"], reliability["fused_sources"]) == (24, 12)


def test_the_coalescing_is_visible_in_the_snapshot(toy_bn):
    config = ServiceConfig(max_batch=8, deadline_ms=50.0)
    for make, pairs, sources in [(make_groth16_requests, 24, 12), (make_bls_requests, 16, 5)]:
        traffic = make(toy_bn, 16, seed=25)                # two full batches
        verdicts, reliability = _serve_with_metrics(toy_bn, traffic, config, seed=5)
        assert verdicts == [True] * 16
        assert reliability["fused_batches"] == 2 and reliability["fused_failures"] == 0
        assert (reliability["fused_pairs"], reliability["fused_sources"]) == \
            (2 * pairs, 2 * sources)


def test_fused_and_exact_agree_on_a_mixed_stream(toy_bn):
    groth16 = make_groth16_requests(toy_bn, 8, seed=27, forge_fraction=0.25)
    bls = make_bls_requests(toy_bn, 8, seed=28, forge_fraction=0.25)
    traffic = [entry for pair in zip(groth16, bls) for entry in pair]
    assert len(traffic) == 16
    fused = _serve_all(toy_bn, traffic, ServiceConfig(max_batch=8, deadline_ms=50.0))
    exact = _serve_all(toy_bn, traffic,
                       ServiceConfig(max_batch=8, deadline_ms=50.0, fuse="none"))
    assert fused == exact == [expected for _, expected in traffic]


_FUSED_SOURCES_SCRIPT = """
import asyncio, random
import repro
from repro.service import (ServiceConfig, VerificationService, make_bls_requests,
                           make_groth16_requests)

curve = repro.get_curve("TOY-BN42")
traffic = make_groth16_requests(curve, 8, seed=31) + make_bls_requests(curve, 8, seed=32)

async def scenario():
    config = ServiceConfig(max_batch=16, deadline_ms=50.0)
    async with VerificationService(curve, config, rng=random.Random(9)) as service:
        verdicts = await asyncio.gather(*(service.submit(request) for request, _ in traffic))
        reliability = service.metrics.snapshot()["reliability"]
        print(verdicts.count(True), reliability["fused_pairs"], reliability["fused_sources"])

asyncio.run(scenario())
"""


def test_the_same_rng_coalesces_alike_under_either_hash_seed():
    """Groups are keyed by ``id`` and by point hashes; their order is dict
    insertion, so nothing a batch does may depend on the hash seed."""
    lines = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        lines.add(subprocess.run([sys.executable, "-c", _FUSED_SOURCES_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
    assert lines == {"16 40 17\n"}                         # 24 + 16 pairs -> 12 + 5 sources
