"""Disk-backed, content-addressed artifact store shared across processes.

The in-memory :class:`repro.compiler.cache.CompileCache` makes re-compilation
free *within* one process; this module extends that to a second tier so that
worker pools, repeated CLI invocations and CI runs share compile artefacts:

    memory (``CompileCache``)  ->  disk (``ArtifactStore``)  ->  compile

Layout and format
-----------------
Entries live under ``<root>/v<SCHEMA_VERSION>-<fingerprint>/<key[:2]>/<key>.art``
where ``key`` is the same SHA-256 semantic digest produced by
:meth:`CompileCache.make_key`.  The directory name is a namespace with two
self-invalidation axes:

* :data:`SCHEMA_VERSION` is bumped by hand whenever the file format below
  changes incompatibly, making stale formats invisible without migration
  logic;
* the *fingerprint* is a digest of the ``repro`` package sources
  (:func:`code_fingerprint`), so artefacts compiled by an older compiler are
  never served after a code change -- compile keys describe the *input*
  configuration, and only the fingerprint ties an artefact to the toolchain
  that produced it.  Without this, a CI cache restored across commits would
  happily mask real cycle-count changes.

Abandoned namespaces are garbage-collected before live entries whenever the
store goes over budget.

Each file is two sections behind a checked head::

    <sha256 hex of the head section> \n
    <head length, 4 bytes> <head> <bulk length, 8 bytes> <bulk sha256, 32 bytes>
    <bulk>

all lengths big-endian.  The *head* is a zlib-compressed pickle of
``{"schema", "key", "value"}`` without the value's :class:`Deferred` part (a
value may carry one); the *bulk* is that part's own compressed pickle, empty
for a plain value.  The head section -- everything before the bulk -- is
covered by the hex digest on the first line, and records the bulk's length
and its own SHA-256.  :meth:`ArtifactStore.load` reads the whole file,
verifies the head digest and the bulk's length, and unpickles the head only:
the bulk waits inside the value's ``Deferred`` for its first reader as a
``memoryview`` of the file bytes, so a load copies none of them and hashes
~2 kB, not the ~0.2-1 MB of a kernel entry (a
:class:`~repro.compiler.pipeline.CompileResult` defers its schedule and
program, all but ~1 kB of it).  :meth:`Deferred.get` checks the bulk digest
before it decompresses anything.  Both digests sit in the file they cover, so
they guard against accidental damage only, and each section is checked just
before it is used: no byte is unpickled unchecked.

Damage to the head, a wrong key or schema, a short digest line and a bulk of
the wrong length (truncated or torn) are load-time *misses*: the entry is
dropped and rewritten.  Damage inside a bulk of the right length surfaces on
the first read of the value's deferred part, never as unpickled garbage: a
result the compile pipeline loaded rebuilds itself there (the entry is
dropped, the kernel recompiled and the entry rewritten, see
``repro.compiler.pipeline._lookup``); any other ``Deferred`` raises
:class:`~repro.errors.CompilerError`.  :meth:`ArtifactStore.store` leaves the
value it wrote in the loaded state: its ``Deferred`` keeps the bulk bytes just
written, and their digest, and drops the live objects, so a process holds each
persisted kernel once, compressed, whether it compiled or loaded it.
Re-storing a value whose bulk was never read writes the digest it came with,
never one recomputed over unchecked bytes.  Pickled, a ``Deferred`` sends a
view as ``bytes``, with its digest.  The embedded key defends against renamed
or misplaced files.  The pickled classes need no version of their own: the
fingerprint covers the sources that define them.

Concurrency
-----------
Writers serialise to a unique temporary file in the destination directory and
publish it with :func:`os.replace`, which is atomic on POSIX: readers see
either the old entry, the new entry, or no entry -- never a partial write.
Two processes racing to store the same key therefore converge on one valid
entry without any locking, which is what lets every worker of a
:class:`repro.dse.engine.ParallelExplorer` pool share a single store.

Eviction
--------
``max_bytes`` bounds the namespace's footprint.  Hits refresh the entry's
access time explicitly (``os.utime``; many filesystems mount ``noatime``), and
when a store pushes the total over budget the least-recently-used entries are
deleted first.  GC is best-effort and race-tolerant: losing a file underneath
the scanner is never an error.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import pickle
import time
import zlib
from pathlib import Path

from repro.config import CACHE_DIR_ENV, MAX_BYTES_ENV, env_int, env_str, positive_int
from repro.errors import CompilerError
from repro.obs import Counters
from repro.reliability import faults as _faults

#: Bump on any incompatible change to the entry format.
SCHEMA_VERSION = 8

#: Default eviction budget: 2 GiB holds thousands of toy-curve kernels and
#: hundreds of full-size ones while staying inside CI cache quotas.
DEFAULT_MAX_BYTES = 2 * 1024 ** 3

_PICKLE_PROTOCOL = 4                   # stable across CPython 3.10-3.12
#: zlib level of both sections.  On a TOY-BN42 kernel entry levels 6 / 3 / 1
#: compress in 43 / 18 / 12.5 ms to 310 / 315 / 322 kB and all decompress in
#: 4.2 ms, next to 7 ms of pickling: level 1 more than halves a store write
#: (BLS12-381: 266 -> 91 ms) for +4.5 % bytes (docs/performance.md, 1.20.0).
_ZLIB_LEVEL = 1
_SUFFIX = ".art"
_TMP_COUNTER = itertools.count()

#: Orphaned temp files (writer killed mid-publish) older than this are deleted.
_TMP_GRACE_SECONDS = 3600

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (memoised per process).

    Part of every store namespace: artefacts persisted by one version of the
    toolchain are invisible to any other, which keeps disk-served sweeps
    honest across commits (see the module docstring).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                continue
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


class Deferred:
    """The part of a stored value (one at most) that is unpickled on first use.

    It holds the live value or its compressed pickle and that pickle's
    SHA-256, not both.  A loaded one holds a view of the entry's bytes, which
    keeps the file's one buffer alive; a written one keeps the bytes the
    store wrote (:meth:`pack`) in place of the live value -- the state a load
    returns.  Either way :meth:`get` checks the digest and unpickles once, on
    first use; copies of the value share the ``Deferred``, and so that one
    materialisation.  Bytes that fail the digest are never unpickled: the
    :attr:`rebuild` hook, when one is set, supplies the value instead (the
    compile pipeline sets one on each result it loads), else :meth:`get`
    raises :class:`~repro.errors.CompilerError`.  Pickled anywhere else it
    travels in the state it is in, a view as ``bytes`` with its digest, and
    without the hook.
    """

    #: Called with no argument for the value when the bulk fails its digest.
    rebuild = None

    def __init__(self, value, packed: bytes | memoryview | None = None,
                 digest: bytes | None = None):
        self._value, self._packed, self._digest = value, packed, digest

    def __getstate__(self):
        packed = None if self._packed is None else bytes(self._packed)
        return {"_value": self._value, "_packed": packed, "_digest": self._digest}

    @property
    def materialised(self) -> bool:
        return self._packed is None

    def get(self):
        if self._packed is not None:
            if hashlib.sha256(self._packed).digest() == self._digest:
                self._value = pickle.loads(zlib.decompress(self._packed))
            elif self.rebuild is not None:
                self._value = self.rebuild()
            else:
                raise CompilerError(
                    f"stored bulk damaged: {len(self._packed)} bytes fail their SHA-256")
            self._packed = self._digest = self.rebuild = None
        return self._value

    def pack(self) -> bytes | memoryview:
        """The bulk section, kept from now on (with its SHA-256) in place of
        the live value."""
        if self._packed is None:
            self._packed = zlib.compress(pickle.dumps(self._value, _PICKLE_PROTOCOL),
                                         _ZLIB_LEVEL)
            self._digest = hashlib.sha256(self._packed).digest()
            self._value = None
        return self._packed


class _HeadPickler(pickle.Pickler):
    """Pickles a value without its :class:`Deferred` part, which it keeps."""

    deferred = None

    def persistent_id(self, obj):
        if not isinstance(obj, Deferred):
            return None
        if self.deferred not in (None, obj):
            raise ValueError("a stored value may carry one deferred part")
        self.deferred = obj
        return "bulk"


def store_counters() -> Counters:
    """The counters of one :class:`ArtifactStore` (zeroed)."""
    # ``corrupt``: damaged entries dropped (also misses when found at load;
    # a bulk that fails its digest on first read is found after its hit);
    # ``errors``: failed writes (serialisation, ENOSPC, ...).
    return Counters("hits", "misses", "stores", "corrupt", "evictions", "errors")


class ArtifactStore:
    """Disk tier of the compile cache (see the module docstring for format)."""

    #: The key of this tier in ``compile_cache_stats()``; every consumer reads
    #: the counters under this literal, so it is not configurable.
    name = "disk"

    def __init__(self, root, max_bytes: int | None = None):
        self.root = Path(root).expanduser()
        self.namespace = self.root / f"v{SCHEMA_VERSION}-{code_fingerprint()[:12]}"
        self.max_bytes = (env_int(MAX_BYTES_ENV, DEFAULT_MAX_BYTES) if max_bytes is None
                          else positive_int(max_bytes, "max_bytes"))
        self.stats = store_counters()
        # Running estimate of the root's total size, so stores do not pay a
        # full directory walk each; measured on first use, corrected by gc().
        self._bytes_estimate: int | None = None

    # -- paths -------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}{_SUFFIX}"

    def _iter_entries(self, namespace: Path | None = None):
        """Yield ``(path, stat)`` for every entry, tolerating concurrent deletion."""
        namespace = self.namespace if namespace is None else namespace
        if not namespace.is_dir():
            return
        for shard in sorted(namespace.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob(f"*{_SUFFIX}")):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def _stale_namespaces(self) -> list:
        """Namespace directories of other schema versions / code fingerprints."""
        if not self.root.is_dir():
            return []
        return [d for d in sorted(self.root.glob("v*"))
                if d.is_dir() and d != self.namespace]

    # -- serialisation -----------------------------------------------------------
    @staticmethod
    def _serialize(key: str, value) -> bytes:
        buffer = io.BytesIO()
        pickler = _HeadPickler(buffer, protocol=_PICKLE_PROTOCOL)
        pickler.dump({"schema": SCHEMA_VERSION, "key": key, "value": value})
        head = zlib.compress(buffer.getvalue(), _ZLIB_LEVEL)
        if pickler.deferred is None:
            bulk, bulk_digest = b"", hashlib.sha256(b"").digest()
        else:       # a packed part keeps the digest it has: nothing is re-hashed
            bulk = pickler.deferred.pack()
            bulk_digest = pickler.deferred._digest
        section = b"".join((len(head).to_bytes(4, "big"), head,
                            len(bulk).to_bytes(8, "big"), bulk_digest))
        digest = hashlib.sha256(section).hexdigest().encode("ascii")
        return b"".join((digest, b"\n", section, bulk))

    @staticmethod
    def _deserialize(key: str, blob: bytes):
        """Decode one artefact file; raise ``ValueError`` on any inconsistency
        the head shows (the bulk's own digest is checked on its first read)."""
        # Every section is a slice of one view: no step copies the file's bytes.
        if blob[64:65] != b"\n":
            raise ValueError("malformed artifact header")
        view = memoryview(blob)[65:]
        head_end = 4 + int.from_bytes(view[:4], "big")
        bulk_start = head_end + 8 + 32
        if hashlib.sha256(view[:bulk_start]).hexdigest().encode("ascii") != blob[:64]:
            raise ValueError("artifact head digest mismatch")
        bulk = view[bulk_start:]
        if len(bulk) != int.from_bytes(view[head_end:head_end + 8], "big"):
            raise ValueError("artifact bulk length mismatch")
        unpickler = pickle.Unpickler(io.BytesIO(zlib.decompress(view[4:head_end])))
        deferred = Deferred(None, bulk, bytes(view[head_end + 8:bulk_start]))   # still packed
        unpickler.persistent_load = lambda pid: deferred
        record = unpickler.load()
        if not isinstance(record, dict) or record.get("schema") != SCHEMA_VERSION:
            raise ValueError("artifact schema mismatch")
        if record.get("key") != key:
            raise ValueError("artifact key mismatch")
        return record["value"]

    # -- lookup/store ------------------------------------------------------------
    def load(self, key: str):
        """Return the stored value or ``None``; corruption counts as a miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
            if _faults.ACTIVE is not None:
                blob = _faults.ACTIVE.apply("store.read", blob)
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = self._deserialize(key, blob)
        except Exception:
            # Truncated write, bit-rot, stale pickle: drop the entry so the
            # next store rewrites it, and report a miss -- never an error.
            self.stats.misses += 1
            self.drop(key)
            return None
        self.stats.hits += 1
        self._touch(path)
        return value

    def drop(self, key: str) -> None:
        """Delete a damaged entry, counting one ``corrupt``: the next store
        rewrites it."""
        self.stats.corrupt += 1
        self._unlink(self._path(key))

    def store(self, key: str, value) -> bool:
        """Atomically persist ``value`` under ``key``; never raises.

        The value's :class:`Deferred` part, if any, is left packed: it keeps
        the bulk bytes written here in place of its live value.
        """
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        try:
            blob = self._serialize(key, value)
            if _faults.ACTIVE is not None:
                blob = _faults.ACTIVE.apply("store.write", blob)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except Exception:
            self.stats.errors += 1
            self._unlink(tmp)
            return False
        self.stats.stores += 1
        # Cheap budget check: one walk on the first store of this instance,
        # then a running estimate; gc() re-measures and corrects the estimate
        # (concurrent writers drift it, which only delays eviction slightly).
        # First use also reclaims namespaces abandoned by other toolchain
        # versions -- otherwise a persisted CI cache would accumulate one
        # namespace per source-changing commit until it hit the byte budget.
        if self._bytes_estimate is None:
            self._reclaim_stale()
            self._reclaim_tmp()
            self._bytes_estimate = self._measure_total()
        else:
            self._bytes_estimate += len(blob)
        if self._bytes_estimate > self.max_bytes:
            self.gc()
        return True

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def total_bytes(self) -> int:
        return sum(stat.st_size for _, stat in self._iter_entries())

    def _measure_total(self) -> int:
        """Actual bytes across the whole root (live plus stale namespaces)."""
        return sum(
            stat.st_size
            for namespace in [self.namespace] + self._stale_namespaces()
            for _, stat in self._iter_entries(namespace)
        )

    # -- maintenance -------------------------------------------------------------
    def gc(self, max_bytes: int | None = None) -> int:
        """Evict entries until the whole root fits the budget.

        Artefacts in abandoned namespaces (older schema versions or code
        fingerprints) are reclaimed first; live entries then go in
        least-recently-used order.
        """
        budget = self.max_bytes if max_bytes is None else positive_int(max_bytes, "max_bytes")
        self._reclaim_tmp()

        def recency(item):
            path, stat = item
            return (max(stat.st_atime, stat.st_mtime), path.name)

        stale = [entry for namespace in self._stale_namespaces()
                 for entry in self._iter_entries(namespace)]
        live = list(self._iter_entries())
        total = sum(stat.st_size for _, stat in stale + live)
        if total <= budget:
            self._bytes_estimate = total
            return 0
        evicted = 0
        # Oldest access first; fall back to mtime where atime is frozen.
        stale.sort(key=recency)
        live.sort(key=recency)
        for path, stat in stale + live:
            if total <= budget:
                break
            if self._unlink(path):
                total -= stat.st_size
                evicted += 1
        for namespace in self._stale_namespaces():
            self._prune_dir(namespace)
        self.stats.evictions += evicted
        self._bytes_estimate = total
        return evicted

    def _reclaim_stale(self) -> int:
        """Delete artefacts left behind by other schema versions / toolchains."""
        removed = 0
        for namespace in self._stale_namespaces():
            for path, _ in list(self._iter_entries(namespace)):
                if self._unlink(path):
                    removed += 1
            self._prune_dir(namespace)
        self.stats.evictions += removed
        return removed

    def _reclaim_tmp(self, max_age_seconds: float = _TMP_GRACE_SECONDS) -> int:
        """Delete orphaned temp files (a writer died between write and rename).

        Temp names start with a dot, so ``_iter_entries`` and the byte
        accounting never see them; this sweep (run on an instance's first
        store and on every gc) is their only reclamation path -- without it
        they would accumulate forever in persisted CI caches.  Fresh temp
        files are left alone: they may belong to a live concurrent writer.
        """
        cutoff = time.time() - max_age_seconds
        removed = 0
        for namespace in [self.namespace] + self._stale_namespaces():
            if not namespace.is_dir():
                continue
            for path in namespace.rglob(".*.tmp"):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    def clear(self) -> int:
        """Delete every entry in this schema namespace (counters are kept)."""
        removed = 0
        for path, _ in list(self._iter_entries()):
            if self._unlink(path):
                removed += 1
        self._reclaim_tmp(max_age_seconds=0)
        self._bytes_estimate = None
        return removed

    def counters(self) -> dict:
        """Counter-only snapshot: no filesystem access.

        This is what :func:`repro.compiler.pipeline.compile_cache_stats`
        publishes, so it stays O(1); :meth:`describe` adds the on-disk usage
        (two directory walks) for end-of-run reports.
        """
        summary = self.stats.snapshot()
        summary["name"] = self.name
        return summary

    def describe(self) -> dict:
        summary = self.stats.snapshot()
        summary["name"] = self.name
        summary["entries"] = len(self)
        summary["bytes"] = self.total_bytes()
        summary["root"] = str(self.root)
        summary["schema"] = SCHEMA_VERSION
        summary["namespace"] = self.namespace.name
        summary["max_bytes"] = self.max_bytes
        return summary

    # -- internals ---------------------------------------------------------------
    @staticmethod
    def _prune_dir(namespace: Path) -> None:
        """Remove a namespace directory tree if (and only if) it is empty."""
        for shard in sorted(namespace.glob("*"), reverse=True):
            try:
                shard.rmdir()
            except OSError:
                pass
        try:
            namespace.rmdir()
        except OSError:
            pass

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Process-wide active store
# ---------------------------------------------------------------------------

_UNSET = object()
#: Explicit configuration (``configure_store``); ``_UNSET`` means "follow the env".
_EXPLICIT = _UNSET
#: Stores resolved from the environment, memoised per absolute path so that
#: counters survive repeated ``active_store()`` calls.
_ENV_STORES: dict = {}


def configure_store(target, max_bytes: int | None = None) -> ArtifactStore | None:
    """Pin the process-wide store (``None`` disables the disk tier entirely).

    Passing a path creates an :class:`ArtifactStore` there; passing an existing
    store adopts it.  Explicit configuration overrides ``FINESSE_CACHE_DIR``
    until :func:`reset_store_state` is called.
    """
    global _EXPLICIT
    if target is None:
        _EXPLICIT = None
        return None
    store = target if isinstance(target, ArtifactStore) else ArtifactStore(target, max_bytes)
    _EXPLICIT = store
    return store


def active_store() -> ArtifactStore | None:
    """The store compilations should use, or ``None`` when the tier is off.

    Resolution order: explicit :func:`configure_store` choice, then the
    ``FINESSE_CACHE_DIR`` environment variable (memoised per path).  Worker
    processes inherit the environment, so one exported variable routes a whole
    :class:`~repro.dse.engine.ParallelExplorer` pool through a shared store.
    """
    if _EXPLICIT is not _UNSET:
        return _EXPLICIT
    raw = env_str(CACHE_DIR_ENV)
    if not raw:
        return None
    path = os.path.abspath(os.path.expanduser(raw))
    store = _ENV_STORES.get(path)
    if store is None:
        store = _ENV_STORES[path] = ArtifactStore(path)
    return store


def reset_store_state() -> None:
    """Forget explicit configuration and memoised env stores (test isolation)."""
    global _EXPLICIT
    _EXPLICIT = _UNSET
    _ENV_STORES.clear()
