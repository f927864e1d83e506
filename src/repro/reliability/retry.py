"""Retry with exponential backoff and full jitter.

The jitter RNG is seeded from ``(policy seed, call label)`` so a retried
sweep is reproducible run-over-run and across worker processes (the label
hash uses CRC32, not Python's randomised ``hash``).  Full jitter -- a
uniform draw over ``[0, min(cap, base * 2^attempt)]`` -- is the classic
thundering-herd fix: retrying workers decorrelate instead of hammering a
recovering resource in lockstep.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass

from repro.config import non_negative_int, number
from repro.errors import ReliabilityError, WorkerCrashError

#: Exception types never worth retrying: programming errors (the same call
#: will fail the same way) and crashes (handled by the pool supervisor).
NON_RETRYABLE = (ValueError, TypeError, WorkerCrashError)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to back off between attempts."""

    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 0

    def __post_init__(self):
        non_negative_int(self.max_retries, "max_retries", ReliabilityError)
        number(self.base_delay_s, "base_delay_s", ReliabilityError)
        number(self.max_delay_s, "max_delay_s", ReliabilityError)

    def rng(self, label: str = "") -> random.Random:
        """Deterministic jitter source for one labelled call."""
        return random.Random(self.seed ^ zlib.crc32(label.encode("utf-8")))

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter delay before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
        return rng.uniform(0.0, cap)


def call_with_retries(
    fn,
    policy: RetryPolicy,
    *,
    label: str = "",
    on_retry=None,
):
    """Call ``fn`` with up to ``policy.max_retries`` retries.

    An exception in :data:`NON_RETRYABLE` is never retried.
    ``on_retry(attempt, exc, delay_s)`` is invoked before each backoff sleep,
    for counter accounting.  The final failure propagates unmodified --
    callers own the wrapping.
    """
    rng = policy.rng(label)
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:
            if isinstance(exc, NON_RETRYABLE) or attempt >= policy.max_retries:
                raise
            delay = policy.backoff_s(attempt, rng)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                time.sleep(delay)
            attempt += 1
