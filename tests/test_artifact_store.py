"""Disk-backed artifact store: round-trips, corruption, concurrency, eviction,
and the two-tier (memory -> disk -> compile) pipeline integration."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import time

import pytest
from test_cold_compile import LOWERED_DIGESTS, lowered_digest
from test_golden_outputs import kernel_digest

import repro.compiler.store as store_mod
from repro.compiler.pipeline import (
    clear_caches,
    compile_cache_stats,
    compile_multi_pairing,
    compile_pairing,
    pairing_compile_digest,
    stage_modules,
)
from repro.compiler.store import (
    CACHE_DIR_ENV,
    ArtifactStore,
    Deferred,
    active_store,
    configure_store,
    reset_store_state,
)
from repro.curves.catalog import get_curve
from repro.dse.space import design_points, named_variant_configs
from repro.errors import CompilerError
from repro.fields.variants import VariantConfig
from repro.hw.presets import figure10_models
from repro.pairing.ate import optimal_ate_pairing
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def pipeline_store(tmp_path):
    """Activate a fresh store for the compile pipeline; deactivate afterwards."""
    store = configure_store(tmp_path / "cache")
    clear_caches()
    yield store
    clear_caches()
    reset_store_state()


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


# ---------------------------------------------------------------------------
# Round-trip and counters
# ---------------------------------------------------------------------------

def test_round_trip_and_counters(store):
    assert store.load(KEY_A) is None
    assert store.stats.misses == 1
    assert store.store(KEY_A, {"value": list(range(100))})
    assert store.load(KEY_A) == {"value": list(range(100))}
    assert store.stats.hits == 1 and store.stats.stores == 1
    assert KEY_A in store and len(store) == 1
    described = store.describe()
    assert described["entries"] == 1 and described["bytes"] > 0
    assert described["schema"] == store_mod.SCHEMA_VERSION


def test_round_trip_compile_result(store, toy_bn, hw1_small):
    result = compile_pairing(toy_bn, hw=hw1_small, use_cache=False)
    key = "cc" + "2" * 62
    assert store.store(key, _copy(result))
    loaded = store.load(key)
    assert loaded is not result
    assert loaded.cycles == result.cycles
    assert loaded.describe() == result.describe()
    assert loaded.schedule.instruction_count == result.schedule.instruction_count


# ---------------------------------------------------------------------------
# Facts first: the head answers, the bulk waits for its first reader
# ---------------------------------------------------------------------------

KEY_C = "cc" + "2" * 62


@pytest.fixture(scope="module")
def compiled(toy_bn, hw1_small):
    return compile_pairing(toy_bn, hw=hw1_small, use_cache=False)


def _copy(result):
    """``result`` with a bulk of its own.  The store packs the bulk it writes,
    so a result compared with what the store returns is stored as a copy and
    stays live."""
    return dataclasses.replace(result, bulk=Deferred(result.bulk.get()))


def _head(result) -> dict:
    """Every field but the bulk (a ``VariantConfig`` compares by identity, so
    it is taken apart)."""
    head = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
            if f.name != "bulk"}
    variants = result.spec.variant_config
    head["spec"] = (dataclasses.replace(result.spec, variant_config=None),
                    variants.name, variants.cache_key())
    return head


def assert_same_kernel(got, expected):
    """Every field of a result, ``schedule`` and ``program`` included (an
    ``IRModule`` compares by identity, so its columns are compared)."""
    assert _head(got) == _head(expected)
    for name in (f.name for f in dataclasses.fields(expected.schedule)):
        mine, theirs = getattr(got.schedule, name), getattr(expected.schedule, name)
        assert (vars(mine) == vars(theirs)) if name == "module" else (mine == theirs)
    assert got.program == expected.program


def assert_same_compile(got, expected):
    """:func:`assert_same_kernel` for two separate compiles: timings aside."""
    assert_same_kernel(got, dataclasses.replace(expected, stage_seconds=got.stage_seconds))


def test_loaded_result_answers_from_the_head_alone(store, compiled):
    store.store(KEY_C, _copy(compiled))
    loaded = store.load(KEY_C)
    assert not loaded.bulk.materialised
    assert (loaded.cycles, loaded.ipc, loaded.imem_bits, loaded.total_registers) == (
        compiled.cycles, compiled.ipc, compiled.imem_bits, compiled.total_registers)
    assert loaded.describe() == compiled.describe()
    assert _head(loaded) == _head(compiled)
    assert not loaded.bulk.materialised         # none of the above read the bulk
    # One read materialises both, once.
    schedule = loaded.schedule
    assert loaded.bulk.materialised
    assert loaded.schedule is schedule and loaded.program is loaded.program
    assert_same_kernel(loaded, compiled)


def test_loaded_program_computes_the_software_pairing(store, compiled, toy_bn, rng):
    store.store(KEY_C, _copy(compiled))
    P, Q = toy_bn.random_g1(rng), toy_bn.random_g2(rng)
    inputs = {(name, j): coeff
              for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y))
              for j, coeff in enumerate(value.to_base_coeffs())}
    outputs = FunctionalSimulator(store.load(KEY_C).program, toy_bn.params.p).run(inputs).outputs
    assert [outputs[("result", j)] for j in range(toy_bn.params.k)] == (
        optimal_ate_pairing(toy_bn, P, Q).to_base_coeffs())


def test_loaded_schedule_drives_every_walk_to_the_compiled_figures(store, toy_bn, hw1_small):
    hw = hw1_small.with_cores(2)
    compiled = compile_multi_pairing(toy_bn, 2, hw=hw, do_assemble=False, use_cache=False)
    store.store(KEY_C, _copy(compiled))
    loaded = store.load(KEY_C)
    assert loaded.multicore_stats == compiled.multicore_stats
    assert not loaded.bulk.materialised         # the one-shot walk is a recorded fact
    simulator = CycleAccurateSimulator()
    assert simulator.run_pipelined(loaded.schedule, 2, 2) == \
        simulator.run_pipelined(compiled.schedule, 2, 2)
    assert loaded.bulk.materialised             # deeper is a walk over the schedule
    assert simulator.run(loaded.schedule) == compiled.cycle_stats
    assert simulator.run_multicore(loaded.schedule, 2) == compiled.multicore_stats


@pytest.mark.slow
def test_paper_curve_kernel_round_trips_in_every_field(store):
    compiled = compile_pairing(get_curve("BLS12-381"), use_cache=False)
    store.store(KEY_C, _copy(compiled))
    loaded = store.load(KEY_C)
    assert (loaded.cycles, loaded.imem_bits) == (122139, 3692320)
    assert not loaded.bulk.materialised
    assert_same_kernel(loaded, compiled)


@pytest.mark.parametrize("curve_name", [
    "TOY-BN42", pytest.param("TOY-BLS24-79", marks=pytest.mark.slow)])
def test_imem_bits_is_a_recorded_fact(curve_name):
    """On every Fig-10 point, a compile that skips the assembler records the
    size of the binary it would emit: NOP slots included, and 64-bit words
    once the flattened register file outgrows the 32-bit encoding."""
    curve = get_curve(curve_name)
    points = design_points(named_variant_configs().values(),
                           figure10_models(curve.params.p.bit_length()))
    for point in points:
        knobs = dict(hw=point.hw, variant_config=point.variant_config, use_cache=False)
        assembled = compile_pairing(curve, **knobs)
        bare = compile_pairing(curve, do_assemble=False, **knobs)
        assert bare.program is None
        assert bare.imem_bits == assembled.imem_bits == \
            assembled.program.binary_size_bits(), point.display_label


def _section_offsets(blob: bytes) -> tuple:
    """``(first head byte, first bulk byte)`` of an entry file: the head's
    length leads it, the bulk's length and SHA-256 (8 + 32 bytes) follow it."""
    start = blob.index(b"\n") + 1 + 4
    return start, start + int.from_bytes(blob[start - 4:start], "big") + 8 + 32


def _flip_bulk_byte(path):
    blob = bytearray(path.read_bytes())
    blob[(_section_offsets(blob)[1] + len(blob)) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("damage", ["head", "truncated", "key", "schema",
                                    "short-digest", "shorter-than-digest"])
def test_damage_anywhere_is_a_load_time_miss(store, compiled, damage, monkeypatch):
    """Damage the head shows -- its own bytes, the bulk's length -- is a miss
    at load; damage inside the bulk waits for the bulk's first read."""
    store.store(KEY_C, _copy(compiled))
    path = store._path(KEY_C)
    blob = bytearray(path.read_bytes())
    head, bulk = _section_offsets(blob)
    assert head < bulk < len(blob) - 1000       # a small head, then the bulk
    if damage == "head":
        blob[(head + bulk) // 2] ^= 0x01
    elif damage == "truncated":
        del blob[-1000:]
    elif damage == "short-digest":              # the first newline on byte 63
        del blob[0]
    elif damage == "shorter-than-digest":
        del blob[40:]
    elif damage == "key":                       # a valid entry under another name
        blob = ArtifactStore._serialize(KEY_A, _copy(compiled))
    else:                                       # a valid entry of another format
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION - 1)
        blob = ArtifactStore._serialize(KEY_C, _copy(compiled))
        monkeypatch.undo()
    path.write_bytes(bytes(blob))
    assert store.load(KEY_C) is None
    assert store.stats.corrupt == 1 and store.stats.misses == 1
    assert not path.exists()


def test_a_damaged_bulk_is_never_unpickled(store, compiled):
    """The head still answers; the first read of the bulk raises, since a
    ``Deferred`` the store returns directly has nothing to rebuild it from,
    and so does a pickled copy of it."""
    store.store(KEY_C, _copy(compiled))
    _flip_bulk_byte(store._path(KEY_C))
    loaded = store.load(KEY_C)
    assert (store.stats.hits, store.stats.corrupt) == (1, 0)
    assert loaded.describe() == compiled.describe()
    for damaged in (pickle.loads(pickle.dumps(loaded)), loaded):
        with pytest.raises(CompilerError, match="damaged"):
            damaged.schedule
        with pytest.raises(CompilerError, match="damaged"):
            damaged.program
        assert not damaged.bulk.materialised


def test_re_storing_an_unread_value_writes_the_digest_it_came_with(store, compiled,
                                                                   tmp_path):
    """Nothing is re-hashed: a damaged bulk re-stored unread is written
    byte for byte, under the digest that still exposes the damage."""
    store.store(KEY_C, _copy(compiled))
    _flip_bulk_byte(store._path(KEY_C))
    damaged = store._path(KEY_C).read_bytes()
    loaded = store.load(KEY_C)
    elsewhere = ArtifactStore(tmp_path / "elsewhere")
    assert store.store(KEY_C, loaded) and elsewhere.store(KEY_C, loaded)
    assert store._path(KEY_C).read_bytes() == elsewhere._path(KEY_C).read_bytes() == damaged
    with pytest.raises(CompilerError, match="damaged"):
        elsewhere.load(KEY_C).schedule


def test_two_entries_keep_their_own_bulk(store, compiled, toy_bn, hw2_small):
    other = compile_pairing(toy_bn, hw=hw2_small, use_cache=False)
    store.store(KEY_A, _copy(compiled))
    store.store(KEY_B, _copy(other))
    loaded, loaded_other = store.load(KEY_A), store.load(KEY_B)
    assert_same_kernel(loaded_other, other)
    assert_same_kernel(loaded, compiled)
    assert loaded.schedule.hw == compiled.hw != loaded_other.schedule.hw


def test_unmaterialised_result_is_stored_and_pickled_as_it_is(store, compiled, tmp_path):
    store.store(KEY_C, _copy(compiled))
    loaded = store.load(KEY_C)
    elsewhere = ArtifactStore(tmp_path / "elsewhere")
    assert store.store(KEY_A, loaded) and elsewhere.store(KEY_B, loaded)
    copies = [store.load(KEY_A), elsewhere.load(KEY_B), pickle.loads(pickle.dumps(loaded))]
    assert not loaded.bulk.materialised         # written out without being read
    original = store._path(KEY_C).read_bytes()
    assert store.store(KEY_C, loaded) and store._path(KEY_C).read_bytes() == original
    assert type(copies[2].bulk._packed) is bytes    # a view is pickled as bytes
    for copy in copies:
        assert not copy.bulk.materialised
        assert_same_kernel(copy, compiled)
    # A materialised one pickles too (and arrives materialised).
    assert_same_kernel(pickle.loads(pickle.dumps(copies[0])), compiled)


def test_a_written_result_keeps_the_bytes_it_wrote(store, compiled):
    written = _copy(compiled)
    assert store.store(KEY_C, written)
    assert not written.bulk.materialised        # the live schedule and program are dropped
    blob = store._path(KEY_C).read_bytes()
    assert written.bulk.pack() == blob[_section_offsets(blob)[1]:]
    assert store.store(KEY_C, written) and store._path(KEY_C).read_bytes() == blob
    assert_same_kernel(written, compiled)


def test_a_value_carries_one_deferred_part(store):
    part = Deferred([1, 2, 3])
    assert store.store(KEY_A, {"part": part, "again": part, "rest": "head"})
    loaded = store.load(KEY_A)
    assert loaded["rest"] == "head" and not loaded["part"].materialised
    assert loaded["part"].get() == loaded["again"].get() == [1, 2, 3]
    assert store.store(KEY_B, [Deferred(1), Deferred(2)]) is False
    assert store.stats.errors == 1 and KEY_B not in store


def test_entries_are_namespaced_by_schema_version(store, monkeypatch):
    store.store(KEY_A, "artifact")
    assert f"v{store_mod.SCHEMA_VERSION}-" in str(store._path(KEY_A))
    # Bumping the schema version makes old artefacts invisible, not broken.
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1)
    upgraded = ArtifactStore(store.root)
    assert upgraded.load(KEY_A) is None
    assert upgraded.stats.corrupt == 0          # a clean miss, not corruption
    # ...and never unpickled into the new classes: the first store prunes it.
    assert upgraded.store(KEY_B, "artifact") and not store.namespace.exists()


def test_entries_are_namespaced_by_code_fingerprint(store, monkeypatch):
    """Artefacts from another toolchain version are never served, and GC
    reclaims their abandoned namespace before touching live entries."""
    store.store(KEY_A, "artifact")
    monkeypatch.setattr(store_mod, "_CODE_FINGERPRINT", "f" * 64)
    migrated = ArtifactStore(store.root)
    assert migrated.namespace != store.namespace
    assert migrated.load(KEY_A) is None         # other-toolchain artefact invisible
    migrated.store(KEY_A, "new artifact")
    migrated.gc(max_bytes=migrated.total_bytes() + 1)
    assert not store.namespace.exists()         # stale namespace reclaimed first
    assert migrated.load(KEY_A) == "new artifact"


# ---------------------------------------------------------------------------
# Corruption: truncation, bit-rot, misplaced files
# ---------------------------------------------------------------------------

def test_truncated_entry_is_a_miss_and_gets_rewritten(store):
    store.store(KEY_A, "artifact")
    path = store._path(KEY_A)
    path.write_bytes(path.read_bytes()[:30])
    assert store.load(KEY_A) is None
    assert store.stats.corrupt == 1 and store.stats.misses == 1
    assert not path.exists()                    # dropped so the next store rewrites it
    assert store.store(KEY_A, "artifact")
    assert store.load(KEY_A) == "artifact"


def test_bitrot_payload_is_a_miss(store):
    store.store(KEY_A, "artifact")
    path = store._path(KEY_A)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert store.load(KEY_A) is None
    assert store.stats.corrupt == 1


def test_misplaced_entry_key_mismatch_is_a_miss(store):
    store.store(KEY_A, "artifact")
    target = store._path(KEY_B)
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(store._path(KEY_A), target)
    assert store.load(KEY_B) is None            # embedded key defends the rename
    assert store.stats.corrupt == 1


def test_unpicklable_value_counts_as_error_not_crash(store):
    assert store.store(KEY_A, lambda: None) is False
    assert store.stats.errors == 1 and store.stats.stores == 0
    assert store.load(KEY_A) is None


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------

def test_gc_evicts_least_recently_used_first(tmp_path):
    store = ArtifactStore(tmp_path / "cache", max_bytes=10 ** 9)
    payload = "x" * 2000
    keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
    now = time.time()
    for age, key in enumerate(keys):
        store.store(key, payload)
        os.utime(store._path(key), (now - 1000 + 100 * age, now - 1000 + 100 * age))
    entry_bytes = store.total_bytes() // 4
    # Budget for two entries: the two oldest go first.
    store.max_bytes = 2 * entry_bytes + entry_bytes // 2
    evicted = store.gc()
    assert evicted == 2 and store.stats.evictions == 2
    assert keys[0] not in store and keys[1] not in store
    assert keys[2] in store and keys[3] in store


def test_store_triggers_gc_over_budget(tmp_path):
    store = ArtifactStore(tmp_path / "cache", max_bytes=1)
    store.store(KEY_A, "a" * 1000)
    store.store(KEY_B, "b" * 1000)
    # A 1-byte budget can hold nothing; every store evicts down to the floor.
    assert len(store) <= 1
    assert store.stats.evictions >= 1


def test_first_store_reclaims_stale_namespaces(store, monkeypatch):
    """A toolchain change frees the old namespace on first use, not at 2 GiB."""
    store.store(KEY_A, "old-toolchain artifact")
    monkeypatch.setattr(store_mod, "_CODE_FINGERPRINT", "e" * 64)
    migrated = ArtifactStore(store.root)
    migrated.store(KEY_A, "new artifact")        # way under budget
    assert not store.namespace.exists()
    assert migrated.stats.evictions == 1
    assert migrated.load(KEY_A) == "new artifact"


def test_orphaned_tmp_files_are_reclaimed(store):
    store.store(KEY_A, "artifact")
    shard = store._path(KEY_A).parent
    orphan = shard / f".{KEY_A}.art.99999.0.tmp"
    orphan.write_bytes(b"partial write from a killed worker")
    old = time.time() - 2 * store_mod._TMP_GRACE_SECONDS
    os.utime(orphan, (old, old))
    fresh = shard / f".{KEY_A}.art.99999.1.tmp"
    fresh.write_bytes(b"in-flight write from a live worker")
    store.gc()
    assert not orphan.exists()                   # past the grace period: deleted
    assert fresh.exists()                        # live writer's file untouched
    assert store.load(KEY_A) == "artifact"
    store.clear()                                # clear() takes everything, age or not
    assert not fresh.exists() and len(store) == 0


def test_hits_refresh_recency(tmp_path):
    store = ArtifactStore(tmp_path / "cache", max_bytes=10 ** 9)
    old = time.time() - 10_000
    store.store(KEY_A, "a")
    store.store(KEY_B, "b")
    for key in (KEY_A, KEY_B):
        os.utime(store._path(key), (old, old))
    assert store.load(KEY_A) == "a"             # refreshes A's access time
    store.max_bytes = store.total_bytes() - 1   # force one eviction
    store.gc()
    assert KEY_A in store and KEY_B not in store


# ---------------------------------------------------------------------------
# Concurrency: atomic publication without locks
# ---------------------------------------------------------------------------

def _store_worker(root, key, tag):
    from repro.compiler.store import ArtifactStore

    store = ArtifactStore(root)
    for _ in range(20):
        store.store(key, {"tag": tag, "payload": list(range(500))})
    return True


def test_concurrent_writers_converge_to_one_valid_entry(tmp_path):
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    root = str(tmp_path / "cache")
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_store_worker, [root] * 2, [KEY_A] * 2, ["p1", "p2"]))
    except (OSError, PermissionError, BrokenProcessPool):
        pytest.skip("process pools unavailable in this environment")
    assert results == [True, True]
    store = ArtifactStore(root)
    value = store.load(KEY_A)
    assert value is not None and value["tag"] in ("p1", "p2")
    assert len(store) == 1
    # No temporary files left behind by either writer (names are dot-prefixed).
    leftovers = [p for p in store.namespace.rglob(".*.tmp")]
    assert leftovers == []


def _store_deferred_worker(root, key, tag):
    store = ArtifactStore(root)
    for _ in range(20):
        store.store(key, {"tag": tag, "bulk": Deferred([tag] * 500)})
    return True


def test_concurrent_writers_never_mix_one_head_with_another_bulk(tmp_path):
    """Both sections of an entry are one write of one writer."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    root = str(tmp_path / "cache")
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_store_deferred_worker, [root] * 2, [KEY_A] * 2, ["p1", "p2"]))
    except (OSError, PermissionError, BrokenProcessPool):
        pytest.skip("process pools unavailable in this environment")
    store = ArtifactStore(root)
    value = store.load(KEY_A)
    assert value["tag"] in ("p1", "p2") and not value["bulk"].materialised
    assert value["bulk"].get() == [value["tag"]] * 500
    assert len(store) == 1 and not list(store.namespace.rglob(".*.tmp"))


# ---------------------------------------------------------------------------
# Activation: environment variable, explicit configuration
# ---------------------------------------------------------------------------

def test_env_var_activates_store(tmp_path, monkeypatch):
    reset_store_state()
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
    store = active_store()
    assert store is not None and store.root == tmp_path / "env-cache"
    assert active_store() is store              # memoised: counters accumulate
    monkeypatch.delenv(CACHE_DIR_ENV)
    reset_store_state()
    assert active_store() is None


@pytest.mark.parametrize("max_bytes", [True, 0, -1, 1.5, "10"])
def test_a_budget_that_is_not_a_positive_int_is_refused(tmp_path, max_bytes):
    """Never silently clamped to a one-byte budget that evicts everything."""
    store = ArtifactStore(tmp_path / "cache")
    with pytest.raises(ValueError, match="max_bytes"):
        ArtifactStore(tmp_path / "cache", max_bytes=max_bytes)
    with pytest.raises(ValueError, match="max_bytes"):
        configure_store(tmp_path / "cache", max_bytes=max_bytes)
    with pytest.raises(ValueError, match="max_bytes"):
        store.gc(max_bytes=max_bytes)


def test_configure_store_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
    try:
        assert configure_store(None) is None
        assert active_store() is None           # disk tier off despite the env var
        pinned = configure_store(tmp_path / "pinned", max_bytes=1234)
        assert active_store() is pinned and pinned.max_bytes == 1234
    finally:
        reset_store_state()


# ---------------------------------------------------------------------------
# Two-tier pipeline integration
# ---------------------------------------------------------------------------

def test_disk_hit_is_not_a_recompilation(pipeline_store, toy_bn, hw1_small):
    compile_pairing(toy_bn, hw=hw1_small)
    stats = compile_cache_stats()
    assert stats["disk"]["stores"] == 1 and stats["result"]["misses"] == 1
    # Same process, cold memory tier: the disk serves the artefact and the
    # "result misses == recompilations" contract holds.
    clear_caches()
    again = compile_pairing(toy_bn, hw=hw1_small)
    stats = compile_cache_stats()
    assert stats["result"]["misses"] == 0
    assert stats["disk"]["hits"] == 1
    assert again.cycles > 0
    # The memory tier was repopulated: a third compile touches neither disk nor
    # the pipeline.
    compile_pairing(toy_bn, hw=hw1_small)
    stats = compile_cache_stats()
    assert stats["result"]["hits"] == 1 and stats["disk"]["hits"] == 1


def test_a_cache_hit_answers_with_the_callers_labels(pipeline_store, toy_bn, hw1_small):
    """Names are labels, not semantics, so neither digest carries them -- and
    ``default_model`` / ``paper_hw1`` / ``figure10_models()[0]`` are one model
    under three names.  A hit once answered with whoever compiled first."""
    alpha = compile_pairing(toy_bn, hw=hw1_small)
    renamed = dataclasses.replace(hw1_small, name="beta")
    relabelled = VariantConfig({}, name="mine")
    memory = compile_pairing(toy_bn, hw=renamed, variant_config=relabelled)
    clear_caches()                                  # memory tier only
    disk = compile_pairing(toy_bn, hw=renamed, variant_config=relabelled)
    stats = compile_cache_stats()
    assert stats["result"]["misses"] == 0 and stats["disk"]["hits"] == 1
    for hit in (memory, disk):
        assert (hit.hw.name, hit.variant_config.name) == ("beta", "mine")
        assert (hit.describe()["hw"], hit.describe()["variants"]) == ("beta", "mine")
        assert hit.cycles == alpha.cycles
    assert memory.schedule is alpha.schedule        # relabelled, not recompiled
    # The first result is untouched, and one caller's repeated hits are one object.
    assert alpha.describe()["hw"] == hw1_small.name
    assert compile_pairing(toy_bn, hw=renamed, variant_config=relabelled) is disk
    assert compile_pairing(toy_bn, hw=hw1_small) is compile_pairing(toy_bn, hw=hw1_small)


def test_a_relabelled_hit_stays_lazy_and_shares_the_bulk(pipeline_store, compiled, toy_bn,
                                                         hw1_small):
    compile_pairing(toy_bn, hw=hw1_small)
    clear_caches()                                  # memory tier only
    renamed = dataclasses.replace(hw1_small, name="beta")
    disk = compile_pairing(toy_bn, hw=renamed)       # disk hit, relabelled at once
    memory = compile_pairing(toy_bn, hw=hw1_small)   # memory hit, relabelled back
    assert (disk.hw.name, memory.hw.name) == ("beta", hw1_small.name)
    assert compile_cache_stats()["disk"]["hits"] == 1
    assert memory.bulk is disk.bulk and not disk.bulk.materialised
    assert memory.schedule is disk.schedule          # one materialisation for both
    assert_same_compile(memory, compiled)            # as compiled without a cache


def test_a_kernel_compiled_with_a_disk_tier_is_held_as_the_bytes_written(
        pipeline_store, compiled, toy_bn, hw1_small):
    """Materialised, those bytes are the kernel a compile without a cache
    builds; and the lowered module IROpt consumed, lowered again on demand,
    is the one pinned."""
    hw = hw1_small.with_cores(2)
    single = compile_pairing(toy_bn, hw=hw1_small)
    split = compile_multi_pairing(toy_bn, 2, hw=hw, split_accumulators=True)
    assert not single.bulk.materialised and not split.bulk.materialised
    assert compile_cache_stats()["lowering"]["entries"] == 0
    reference = compile_multi_pairing(toy_bn, 2, hw=hw, split_accumulators=True,
                                      use_cache=False)
    assert_same_compile(single, compiled)
    assert_same_compile(split, reference)
    assert kernel_digest(single) == kernel_digest(compiled)
    assert kernel_digest(split) == kernel_digest(reference)
    assert lowered_digest(stage_modules(toy_bn, hw=hw1_small)[1]) == \
        LOWERED_DIGESTS["TOY-BN42/all-karatsuba/generic/single"]


def test_a_damaged_bulk_is_recompiled_on_its_first_read(pipeline_store, compiled, toy_bn,
                                                         hw1_small):
    """A served result whose bulk fails its digest answers from its head,
    then rebuilds the bulk on first read: one ``corrupt``, one recompilation
    (a ``result`` miss), the entry rewritten."""
    compile_pairing(toy_bn, hw=hw1_small)
    path = pipeline_store._path(pairing_compile_digest(toy_bn, hw=hw1_small))
    _flip_bulk_byte(path)
    damaged = path.read_bytes()
    clear_caches()                                  # memory tier only
    served = compile_pairing(toy_bn, hw=hw1_small)
    stats = compile_cache_stats()
    assert (stats["disk"]["hits"], stats["disk"]["corrupt"], stats["result"]["misses"]) == (
        1, 0, 0)
    assert _head(served) == _head(compiled) | {"stage_seconds": served.stage_seconds}
    # A copy pickled elsewhere has no hook: its first read raises.
    with pytest.raises(CompilerError, match="damaged"):
        pickle.loads(pickle.dumps(served)).schedule
    schedule = served.schedule
    stats = compile_cache_stats()
    assert (stats["disk"]["corrupt"], stats["result"]["misses"], stats["disk"]["stores"]) == (
        1, 1, 1)
    assert served.schedule is schedule and served.bulk.materialised
    assert_same_compile(served, compiled)
    assert path.read_bytes() != damaged             # rewritten, and served whole next time
    clear_caches()
    assert_same_compile(compile_pairing(toy_bn, hw=hw1_small), compiled)
    stats = compile_cache_stats()
    assert (stats["disk"]["hits"], stats["disk"]["corrupt"], stats["result"]["misses"]) == (
        1, 0, 0)


def test_a_rebuilt_bulk_must_agree_with_its_head(pipeline_store, toy_bn, hw1_small):
    """A head that records other figures than the recompiled kernel's is
    an error, not an answer: the figures were already served."""
    compile_pairing(toy_bn, hw=hw1_small)
    key = pairing_compile_digest(toy_bn, hw=hw1_small)
    loaded = pipeline_store.load(key)
    pipeline_store.store(key, dataclasses.replace(
        loaded, total_registers=loaded.total_registers + 1))
    _flip_bulk_byte(pipeline_store._path(key))
    clear_caches()                                  # memory tier only
    with pytest.raises(CompilerError, match="disagrees with its stored head"):
        compile_pairing(toy_bn, hw=hw1_small).schedule


def test_store_counters_always_report_under_the_disk_key(tmp_path, pipeline_store):
    """Every consumer reads ``compile_cache_stats()["disk"]``; a store could
    once be named otherwise, which made the key vanish."""
    with pytest.raises(TypeError, match="name"):
        ArtifactStore(tmp_path / "other", name="fast")
    assert pipeline_store.name == "disk"
    assert compile_cache_stats()["disk"] == pipeline_store.counters()


def test_use_cache_false_bypasses_disk(pipeline_store, toy_bn, hw1_small):
    compile_pairing(toy_bn, hw=hw1_small, use_cache=False)
    stats = compile_cache_stats()["disk"]
    assert stats["hits"] == 0 and stats["misses"] == 0 and stats["stores"] == 0


def test_clear_caches_resets_store_counters_and_optionally_disk(
    pipeline_store, toy_bn, hw1_small
):
    compile_pairing(toy_bn, hw=hw1_small)
    assert len(pipeline_store) == 1
    clear_caches()
    snapshot = pipeline_store.stats.snapshot()
    assert snapshot["hits"] == 0 and snapshot["misses"] == 0 and snapshot["stores"] == 0
    assert len(pipeline_store) == 1             # artefacts persist by default
    clear_caches(disk=True)
    assert len(pipeline_store) == 0             # genuinely cold on demand
    compile_pairing(toy_bn, hw=hw1_small)
    assert compile_cache_stats()["result"]["misses"] == 1


# ---------------------------------------------------------------------------
# Cross-process persistence: the acceptance-criterion scenario
# ---------------------------------------------------------------------------

_SWEEP_SCRIPT = """
import json, sys
from repro.compiler.pipeline import compile_cache_stats, compile_pairing
from repro.curves.catalog import get_curve
from repro.curves.catalog import get_curve
from repro.fields.variants import VariantConfig
from repro.hw.presets import paper_hw1, paper_hw2

curve = get_curve("TOY-BN42")
bits = curve.params.p.bit_length()
for hw in (paper_hw1(bits), paper_hw2(bits)):
    compile_pairing(curve, hw=hw)
print(json.dumps(compile_cache_stats()))
"""


def test_fresh_process_sweep_is_served_from_disk(tmp_path):
    """Two design points compiled in one process are recompilation-free in the next."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env[CACHE_DIR_ENV] = str(tmp_path / "cache")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run_sweep():
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    cold = run_sweep()
    assert cold["result"]["misses"] == 2
    assert cold["disk"]["stores"] == 2

    warm = run_sweep()
    assert warm["result"]["misses"] == 0        # zero recompilations
    assert warm["disk"]["hits"] == 2
    assert warm["disk"]["misses"] == 0
