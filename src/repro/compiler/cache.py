"""Content-addressed compile cache with hit/miss accounting.

Every stage of the pipeline (and its final :class:`CompileResult`) is memoised
behind a :class:`CompileCache`: a process-local, content-addressed store whose
keys are SHA-256 digests of the *semantic* configuration of a compilation --
curve name, operator-variant configuration (:meth:`VariantConfig.cache_key`),
hardware model (:meth:`HardwareModel.cache_key`) and the pipeline flags.  Two
design points that describe the same computation therefore share one entry even
when they were constructed independently, while any difference in a variant
override or a hardware parameter produces a different digest.

The cache keeps running counters (:class:`repro.obs.Counters`) so that
design-space sweeps can assert reuse: a second sweep over the same design points must be
served entirely from cache (zero recompilations), which is what keeps the
``evaluation/fig*``/``table*`` scripts and the parallel explorer
(:mod:`repro.dse.engine`) fast enough for production-scale spaces.
"""

from __future__ import annotations

import hashlib

from repro.obs import Counters

_MISSING = object()


class CompileCache:
    """Process-local content-addressed store for compilation artefacts.

    Keys are produced by :meth:`make_key` (a SHA-256 digest of the semantic
    configuration); any other hashable key is accepted too, which lets the
    stage-level caches of :mod:`repro.compiler.pipeline` reuse the same
    instrumentation with their native tuple keys.
    """

    def __init__(self, name: str = "compile"):
        self.name = name
        self._entries: dict = {}
        self.stats = Counters("hits", "misses", "stores")

    # -- keying ------------------------------------------------------------------
    @staticmethod
    def make_key(curve_name: str, variant_config, hw, **flags) -> str:
        """Content-address one (curve, variant config, hw model, flags) combination."""
        material = repr((
            curve_name,
            variant_config.cache_key() if variant_config is not None else None,
            hw.cache_key() if hw is not None else None,
            tuple(sorted(flags.items())),
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- store/lookup ------------------------------------------------------------
    def peek(self, key):
        """Return the cached value or ``None`` without touching the counters.

        Used by the two-tier lookup of :func:`repro.compiler.pipeline.compile_pairing`,
        which must decide between memory, disk and a real compile before it knows
        which counter the access belongs to.
        """
        value = self._entries.get(key, _MISSING)
        return None if value is _MISSING else value

    def store(self, key, value) -> None:
        self.stats.stores += 1
        self._entries[key] = value

    def get_or_compute(self, key, factory):
        """Memoised call: ``factory()`` runs only on a miss."""
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        value = factory()
        self.stats.stores += 1
        self._entries[key] = value
        return value

    def discard(self, key) -> None:
        """Drop ``key``'s entry, if any, without touching the counters."""
        self._entries.pop(key, None)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.stats.reset()

    def describe(self) -> dict:
        summary = self.stats.snapshot()
        summary["entries"] = len(self._entries)
        summary["name"] = self.name
        return summary
