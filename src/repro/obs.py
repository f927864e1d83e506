"""Host-side counters: the one type behind every running tally.

The compile-cache tiers, the artifact store, the exploration engine's
recovery accounting, the service's event counters and the verifying-key
cache each hold a :class:`Counters`.  Its names are declared once, each reads
and increments as an attribute (``stats.hits += 1``), :meth:`~Counters.snapshot`
is the JSON-ready view and :meth:`~Counters.delta` / :meth:`~Counters.merge`
move plain, picklable dicts -- which is how a pool worker's counts reach the
parent.
"""

from __future__ import annotations


class Counters:
    """Named running tallies, declared once at construction.

    ``floats`` names the counters that sum seconds rather than count events;
    they start at ``0.0``.  A set that counts ``hits`` and ``misses`` also
    reports the derived ``hit_rate``.
    """

    def __init__(self, *names: str, floats=()):
        self._names = names
        self._floats = frozenset(floats)
        self.reset()

    def reset(self) -> None:
        for name in self._names:
            setattr(self, name, 0.0 if name in self._floats else 0)

    def snapshot(self) -> dict:
        """The counters in declaration order, floats and ``hit_rate`` rounded
        to 4 places."""
        summary = {}
        for name in self._names:
            value = getattr(self, name)
            summary[name] = round(value, 4) if isinstance(value, float) else value
        if "hits" in summary and "misses" in summary:
            lookups = self.hits + self.misses
            summary["hit_rate"] = round(self.hits / lookups if lookups else 0.0, 4)
        return summary

    def delta(self, before: dict | None = None) -> dict:
        """The exact change of every counter since ``before``, an earlier
        ``delta()``; without one, the counts themselves."""
        before = before or {}
        return {name: getattr(self, name) - before.get(name, 0) for name in self._names}

    def merge(self, delta: dict) -> None:
        """Add a :meth:`delta`, taken in this process or any other."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)
