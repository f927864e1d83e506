"""Per-request and per-batch telemetry of the verification service.

The service records four event streams -- admissions, rejections, batch
flushes and request completions -- and :meth:`ServiceMetrics.snapshot` distils
them into the figures an operator tunes against: queue depth, the batch-size
histogram (how well the coalescing policy is filling batches), request latency
percentiles (p50/p95/p99) and sustained verifications per second.

Everything is plain counters and lists: the service is single-event-loop and
flushes batches from one consumer task, so no locking is needed.  Latency
percentiles use the nearest-rank method (:func:`percentile`), the same
definition the virtual-time model in :mod:`repro.service.simulate` reports, so
measured and modelled numbers are directly comparable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import ceil


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The empirical inverse CDF: the smallest element with at least ``q``% of
    the sample at or below it.  Returns ``0.0`` for an empty sample so metric
    snapshots never divide by (or crash on) "no traffic yet"; an out-of-range
    ``q`` raises ``ValueError`` whatever the sample.
    """
    if not 0 <= q <= 100:                       # also refuses NaN
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ServiceMetrics:
    """Event counters of one :class:`~repro.service.service.VerificationService`.

    ``latencies_s`` keeps one admit-to-result latency per completed request
    and ``batch_sizes`` one entry per flushed batch; both are bounded by
    ``max_samples`` (oldest half dropped on overflow) so a long-lived service
    cannot grow without bound.
    """

    max_samples: int = 100_000
    admitted: int = 0
    completed: int = 0
    rejected: int = 0
    batches: int = 0
    #: Sum of batch wall-clock service times (seconds), for drain-rate estimates.
    busy_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    #: Queue depth sampled at every flush (admitted-but-unserved requests).
    depth_samples: list = field(default_factory=list)
    first_admit_t: float | None = None
    last_done_t: float | None = None
    # -- reliability counters (see docs/reliability.md) ------------------------
    #: Batches attempted on the fused RLC path.
    fused_batches: int = 0
    #: Fused attempts that failed (exception or fused-check mismatch) and fell
    #: back to exact per-request verification.
    fused_failures: int = 0
    #: Pairs handed to fused attempts, and the Miller sources they were
    #: coalesced into (one per distinct G2 point): 24 / 12 for a batch of 8
    #: Groth16 requests over two circuits.
    fused_pairs: int = 0
    fused_sources: int = 0
    #: Batches verified exactly per-request because the breaker was open.
    breaker_exact_batches: int = 0
    #: Closed/half-open -> open breaker transitions.
    breaker_trips: int = 0
    #: Half-open probe batches admitted.
    breaker_probes: int = 0
    #: Requests shed for exceeding the shedding deadline.
    shed: int = 0
    #: Requests settled with an exception (malformed input, injected fault...).
    failed_requests: int = 0

    # -- recording ---------------------------------------------------------------
    def record_admit(self, now: float) -> None:
        self.admitted += 1
        if self.first_admit_t is None:
            self.first_admit_t = now

    def record_rejection(self) -> None:
        self.rejected += 1

    def record_batch(self, size: int, service_s: float, depth_after: int) -> None:
        self.batches += 1
        self.busy_s += service_s
        self.batch_sizes.append(size)
        self.depth_samples.append(depth_after)
        self._trim(self.batch_sizes)
        self._trim(self.depth_samples)

    def record_result(self, latency_s: float, now: float) -> None:
        self.completed += 1
        self.last_done_t = now
        self.latencies_s.append(latency_s)
        self._trim(self.latencies_s)

    def record_fused(self, ok: bool, pairs: int, sources: int) -> None:
        self.fused_batches += 1
        self.fused_pairs += pairs
        self.fused_sources += sources
        if not ok:
            self.fused_failures += 1

    def record_breaker_exact(self) -> None:
        self.breaker_exact_batches += 1

    def record_shed(self, count: int = 1) -> None:
        self.shed += count

    def record_failed_request(self) -> None:
        self.failed_requests += 1

    def sync_breaker(self, breaker) -> None:
        """Mirror the breaker's trip/probe totals into the snapshot source."""
        self.breaker_trips = breaker.trips
        self.breaker_probes = breaker.probes

    def _trim(self, samples: list) -> None:
        if len(samples) > self.max_samples:
            del samples[: len(samples) - self.max_samples // 2]

    # -- derived figures ---------------------------------------------------------
    def latency_percentile_ms(self, q: float) -> float:
        return percentile(self.latencies_s, q) * 1e3

    def mean_batch_size(self) -> float:
        return sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0

    def sustained_vps(self) -> float:
        """Completed verifications per second of wall-clock observation window.

        Measured from the first admission to the last completion -- the
        figure a capacity plan cares about, queueing and idle gaps included.
        """
        if self.first_admit_t is None or self.last_done_t is None:
            return 0.0
        window = self.last_done_t - self.first_admit_t
        return self.completed / window if window > 0 else 0.0

    def batch_size_histogram(self) -> dict:
        return dict(sorted(Counter(self.batch_sizes).items()))

    def snapshot(self) -> dict:
        """One JSON-ready dict with every operator-facing figure."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size(), 2),
            "batch_size_histogram": self.batch_size_histogram(),
            "queue_depth_max": max(self.depth_samples, default=0),
            "latency_ms": {
                "p50": round(self.latency_percentile_ms(50), 3),
                "p95": round(self.latency_percentile_ms(95), 3),
                "p99": round(self.latency_percentile_ms(99), 3),
            },
            "sustained_vps": round(self.sustained_vps(), 2),
            "reliability": {
                "fused_batches": self.fused_batches,
                "fused_failures": self.fused_failures,
                "fused_pairs": self.fused_pairs,
                "fused_sources": self.fused_sources,
                "breaker_exact_batches": self.breaker_exact_batches,
                "breaker_trips": self.breaker_trips,
                "breaker_probes": self.breaker_probes,
                "shed": self.shed,
                "failed_requests": self.failed_requests,
            },
        }
