"""Reliability accounting: the record of a design point a sweep gave up on.

Degradation is *observable*: a sweep that healed around a crashed worker
must say so, not silently match the fault-free run.  Its recovery actions
are counted in ``ParallelExplorer.reliability`` (a
:class:`~repro.obs.Counters`) and :class:`FailedPoint` records every
quarantined design point with the error that condemned it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FailedPoint:
    """A design point the sweep gave up on, and why."""

    label: str
    error: str
    kind: str  # "crash" | "timeout" | "error"
    attempts: int

    def describe(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
        }
