"""Circuit breaker: closed -> open -> half-open -> closed (or back open).

CLOSED passes everything and counts consecutive failures; at
``failure_threshold`` it trips OPEN.  OPEN rejects every ``allow()`` until
``cooldown_s`` has elapsed, then promotes itself to HALF_OPEN.  HALF_OPEN
admits exactly one probe: success closes the breaker, failure re-opens it
(and restarts the cooldown clock).

The service wraps its fused RLC batch path in one of these so a stream of
poisoned batches degrades to exact per-request verification -- correct,
just slower -- instead of paying fused-work-plus-fallback on every batch.
"""

from __future__ import annotations

import time

from repro.config import number, positive_int
from repro.errors import ReliabilityError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown and half-open probe."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ):
        positive_int(failure_threshold, "failure_threshold", ReliabilityError)
        number(cooldown_s, "cooldown_s", ReliabilityError)
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self._probe_in_flight = False
        self.trips = 0
        self.probes = 0

    @property
    def state(self) -> str:
        """Current state; lazily promotes OPEN to HALF_OPEN after cooldown."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def allow(self) -> bool:
        """May the protected path be attempted right now?"""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            self.probes += 1
            return True
        return False

    def record_success(self):
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self._opened_at = None

    def record_failure(self):
        if self.state == HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "trips": self.trips,
            "probes": self.probes,
        }

    def _trip(self):
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.trips += 1
