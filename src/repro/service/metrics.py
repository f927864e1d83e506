"""Per-request and per-batch telemetry of the verification service.

The service records four event streams -- admissions, rejections, batch
flushes and request completions -- and :meth:`ServiceMetrics.snapshot` distils
them into the figures an operator tunes against: queue depth, the batch-size
histogram (how well the coalescing policy is filling batches), request latency
percentiles (p50/p95/p99) and sustained verifications per second.

Everything is counters and plain lists: the service is single-event-loop and
flushes batches from one consumer task, so no locking is needed.  Latency
percentiles use the nearest-rank method (:func:`percentile`), the same
definition the virtual-time model in :mod:`repro.service.simulate` reports, so
measured and modelled numbers are directly comparable.
"""

from __future__ import annotations

from collections import Counter
from math import ceil

from repro.obs import Counters

#: Samples one list keeps before its oldest half is dropped.
MAX_SAMPLES = 100_000


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


class ServiceMetrics(Counters):
    """Event counters of one :class:`~repro.service.service.VerificationService`.

    A :class:`~repro.obs.Counters` whose tallies the batcher and the service
    bump in place: ``admitted``, ``completed``, ``rejected``, ``batches``,
    ``busy_s`` (summed batch service time, for drain-rate estimates) and the
    reliability counters of docs/reliability.md -- ``fused_batches`` tried on
    the fused RLC path, ``fused_failures`` among them that fell back to exact
    checks, the ``fused_pairs`` handed to them and the ``fused_sources`` they
    were coalesced into (one per distinct G2 point: 24 / 12 for 8 Groth16
    requests over two circuits), ``breaker_exact_batches`` checked exactly
    while ``breaker`` was open, ``shed`` and ``failed_requests``.  Trips and
    probes are counted by the breaker alone; :meth:`snapshot` reads them there.

    ``latencies_s`` keeps one admit-to-result latency per completed request,
    ``batch_sizes`` one entry per flushed batch and ``depth_samples`` the
    queue depth at every flush; each is bounded by :data:`MAX_SAMPLES` (oldest
    half dropped on overflow) so a long-lived service cannot grow without
    bound.
    """

    def __init__(self, breaker):
        super().__init__(
            "admitted", "completed", "rejected", "batches", "busy_s",
            "fused_batches", "fused_failures", "fused_pairs", "fused_sources",
            "breaker_exact_batches", "shed", "failed_requests", floats=("busy_s",))
        self.breaker = breaker
        self.latencies_s: list = []
        self.batch_sizes: list = []
        self.depth_samples: list = []
        self.first_admit_t: float | None = None
        self.last_done_t: float | None = None

    # -- recording ---------------------------------------------------------------
    def record_admit(self, now: float) -> None:
        self.admitted += 1
        if self.first_admit_t is None:
            self.first_admit_t = now

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

    def _trim(self, samples: list) -> None:
        if len(samples) > MAX_SAMPLES:
            del samples[: len(samples) - MAX_SAMPLES // 2]

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
                "breaker_trips": self.breaker.trips,
                "breaker_probes": self.breaker.probes,
                "shed": self.shed,
                "failed_requests": self.failed_requests,
            },
        }
