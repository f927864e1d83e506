"""Compile cache: content addressing, hit/miss accounting, collision resistance."""

from repro.compiler.cache import CompileCache
from repro.compiler.pipeline import clear_caches, compile_cache_stats, compile_pairing
from repro.fields.variants import VariantConfig
from repro.hw.presets import default_model, paper_hw1, paper_hw2


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

def test_make_key_is_content_addressed():
    hw = default_model(64)
    config_a = VariantConfig.all_karatsuba()
    config_b = VariantConfig.all_karatsuba()
    # Independently constructed but identical configurations share a key.
    assert CompileCache.make_key("X", config_a, hw) == CompileCache.make_key("X", config_b, hw)
    # The digest is a hex SHA-256.
    key = CompileCache.make_key("X", config_a, hw)
    assert len(key) == 64 and int(key, 16) >= 0


def test_make_key_separates_variant_configs():
    """Distinct variant configs must not collide, even when names match."""
    hw = default_model(64)
    base = VariantConfig.all_karatsuba()
    keys = {CompileCache.make_key("X", base, hw)}
    for degree in (2, 6, 12):
        override = base.with_override("mul", degree, "schoolbook")
        override.name = base.name  # same display name, different content
        key = CompileCache.make_key("X", override, hw)
        assert key not in keys
        keys.add(key)
    # Schoolbook-everywhere differs from Karatsuba-everywhere via the fallback table.
    assert CompileCache.make_key("X", VariantConfig.all_schoolbook(), hw) not in keys


def test_make_key_separates_hw_and_flags():
    config = VariantConfig.all_karatsuba()
    k1 = CompileCache.make_key("X", config, paper_hw1(64))
    k2 = CompileCache.make_key("X", config, paper_hw2(64))  # differs only by the FIFO
    assert k1 != k2
    assert CompileCache.make_key("X", config, paper_hw1(64), use_naf=False) != k1
    assert CompileCache.make_key("Y", config, paper_hw1(64)) != k1


# ---------------------------------------------------------------------------
# Store semantics and statistics
# ---------------------------------------------------------------------------

def test_lookup_store_accounting():
    cache = CompileCache("test")
    assert cache.peek("a") is None
    assert cache.stats.hits + cache.stats.misses == 0       # peek never counts
    assert cache.get_or_compute("a", lambda: 42) == 42
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    assert cache.peek("a") == 42
    assert cache.get_or_compute("a", lambda: 43) == 42
    assert cache.stats.hits == 1 and cache.stats.stores == 1
    assert "a" in cache and len(cache) == 1
    assert cache.stats.snapshot()["hit_rate"] == 0.5
    described = cache.describe()
    assert described["name"] == "test" and described["entries"] == 1


def test_get_or_compute_runs_factory_once():
    cache = CompileCache("test")
    calls = []
    for _ in range(3):
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
    assert value == "v"
    assert len(calls) == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 2


def test_clear_resets_entries_and_stats():
    cache = CompileCache("test")
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("a", lambda: 1)
    assert cache.stats.hits + cache.stats.misses == 2 and cache.stats.stores == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.snapshot() == {"hits": 0, "misses": 0, "stores": 0, "hit_rate": 0.0}


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------

def test_compile_pairing_hits_cache_on_recompile(toy_bn, hw1_small):
    clear_caches()
    first = compile_pairing(toy_bn, hw=hw1_small)
    after_first = compile_cache_stats()["result"]
    assert after_first["misses"] == 1 and after_first["stores"] == 1
    second = compile_pairing(toy_bn, hw=hw1_small)
    after_second = compile_cache_stats()["result"]
    assert second is first
    assert after_second["misses"] == 1 and after_second["hits"] == 1


def test_compile_pairing_use_cache_false_bypasses_stats(toy_bn, hw1_small):
    clear_caches()
    compile_pairing(toy_bn, hw=hw1_small)
    before = compile_cache_stats()["result"]
    result = compile_pairing(toy_bn, hw=hw1_small, use_cache=False)
    after = compile_cache_stats()["result"]
    assert result.cycles > 0
    assert after == before


def test_disk_counters_present_without_a_store(toy_bn, hw1_small):
    """No ArtifactStore configured: stats["disk"] reports zeroed counters.

    Runner summaries and --assert-warm scripts index the ``disk`` key
    unconditionally; a cold configuration must yield zeros, not a KeyError.
    """
    from repro.compiler.store import active_store, configure_store, reset_store_state

    configure_store(None)
    try:
        assert active_store() is None
        clear_caches()
        compile_pairing(toy_bn, hw=hw1_small)
        stats = compile_cache_stats()
    finally:
        reset_store_state()
    # The store's full counter key set, all zeroed: code indexing any
    # counter behaves identically on cold and warm configurations.
    for counter in ("hits", "misses", "stores", "corrupt", "evictions", "errors"):
        assert stats["disk"][counter] == 0
    assert stats["disk"]["hit_rate"] == 0.0


def test_stage_caches_reused_across_hw_models(toy_bn):
    """Different hardware models share codegen/lowering/iropt artefacts."""
    clear_caches()
    compile_pairing(toy_bn, hw=paper_hw1(toy_bn.params.p.bit_length()))
    iropt_before = compile_cache_stats()["iropt"]
    compile_pairing(toy_bn, hw=paper_hw2(toy_bn.params.p.bit_length()))
    stats = compile_cache_stats()
    # A second full compile happened (new result entry)...
    assert stats["result"]["misses"] == 2
    # ...but the IR-level stages were served from cache.
    assert stats["iropt"]["misses"] == iropt_before["misses"]
    assert stats["iropt"]["hits"] == iropt_before["hits"] + 1
