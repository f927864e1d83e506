"""ArtifactStore contracts under injected faults: corruption is a miss.

The store's docstring promises that torn writes, truncation and bit-rot are
*misses* -- never crashes, never wrong artifacts.  These tests prove the
promise by injecting every corruption mode at the ``store.read`` /
``store.write`` fault points and asserting the store either returns exactly
what was stored or returns ``None``.  The values here have no deferred part,
so every byte of their entries is in the head section, checked at load; a
damaged bulk, checked on its first read, is ``test_artifact_store.py``'s.
"""

import pytest

from repro.compiler.store import ArtifactStore
from repro.reliability import configure_faults
from repro.reliability.faults import FaultPlan


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    configure_faults(None)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _fill(store, n=6):
    entries = {f"{i:02d}" + "a" * 62: {"index": i, "blob": bytes(range(i, i + 50))}
               for i in range(n)}
    for key, value in entries.items():
        assert store.store(key, value)
    return entries


@pytest.mark.parametrize("mode", ["truncate", "torn", "garbage", "flip"])
def test_read_corruption_is_a_miss_never_a_wrong_value(store, mode):
    entries = _fill(store)
    # Corrupt every read: each lookup must be None or the exact stored value.
    configure_faults(FaultPlan.parse(f"store.read:{mode}@1*inf;seed=11"))
    for key, value in entries.items():
        loaded = store.load(key)
        assert loaded is None or loaded == value
        assert loaded is None, f"{mode} corruption must not pass the digest check"
    assert store.stats.corrupt == len(entries)
    assert store.stats.misses == len(entries)
    assert store.stats.hits == 0
    # Corrupt entries were dropped: a re-store round-trips cleanly.
    configure_faults(None)
    for key, value in entries.items():
        assert key not in store
        assert store.store(key, value)
        assert store.load(key) == value


@pytest.mark.parametrize("mode", ["truncate", "torn", "garbage", "flip"])
def test_write_corruption_never_serves_a_wrong_value(store, mode):
    configure_faults(FaultPlan.parse(f"store.write:{mode}@1*inf;seed=23"))
    entries = _fill(store)
    configure_faults(None)
    for key, value in entries.items():
        loaded = store.load(key)
        assert loaded is None or loaded == value
        assert loaded is None, f"a {mode}-corrupted write must not verify"
    # The store self-heals: the next store of the same key is served again.
    for key, value in entries.items():
        assert store.store(key, value)
        assert store.load(key) == value


def test_read_io_error_is_a_miss(store):
    entries = _fill(store, n=2)
    configure_faults(FaultPlan.parse("store.read:error@1*inf"))
    for key in entries:
        assert store.load(key) is None
    assert store.stats.misses == len(entries)
    assert store.stats.corrupt == 0          # I/O failure, not corruption


def test_write_enospc_fails_the_store_without_raising(store):
    configure_faults(FaultPlan.parse("store.write:enospc@1*inf"))
    assert store.store("f" * 64, {"value": 1}) is False
    assert store.stats.errors == 1
    assert store.stats.stores == 0
    configure_faults(None)
    # Disk pressure gone: same key stores and loads normally.
    assert store.store("f" * 64, {"value": 1})
    assert store.load("f" * 64) == {"value": 1}


def test_transient_read_fault_window_heals(store):
    entries = _fill(store, n=1)
    (key, value), = entries.items()
    configure_faults(FaultPlan.parse("store.read:garbage@1*2;seed=7"))
    assert store.load(key) is None           # fault 1: corrupt -> dropped
    # A missing file never reaches the fault point, so the window only
    # advances on reads that actually return bytes.
    assert store.load(key) is None           # plain miss: entry already gone
    assert store.store(key, value)
    assert store.load(key) is None           # fault 2: corrupt again
    assert store.store(key, value)
    assert store.load(key) == value          # window exhausted: clean again


def test_key_mismatch_is_rejected(store, tmp_path):
    # A valid artifact renamed under another key must not be served: the
    # embedded key check catches misplaced files even when the digest holds.
    key_a, key_b = "a" * 64, "b" * 64
    assert store.store(key_a, {"value": "A"})
    path_a, path_b = store._path(key_a), store._path(key_b)
    path_b.parent.mkdir(parents=True, exist_ok=True)
    path_b.write_bytes(path_a.read_bytes())
    assert store.load(key_b) is None
    assert store.stats.corrupt == 1


def test_faults_inert_when_unconfigured(store):
    configure_faults(None)
    entries = _fill(store)
    for key, value in entries.items():
        assert store.load(key) == value
    assert store.stats.hits == len(entries)
    assert store.stats.corrupt == 0
    assert store.stats.errors == 0
