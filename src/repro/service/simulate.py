"""Deterministic virtual-time model of the dynamic-batching service.

A wall-clock load test answers for one host on one run; a what-if about the
batching policy needs a *deterministic* figure.  This module replays the
exact flush policy of :class:`repro.service.batcher.DynamicBatcher`
(greedy fill from backlog, then flush on max-batch OR once no companion is
expected before the oldest request's deadline, single server, unbounded
waiting queue) in virtual time against a seeded arrival trace and a per-batch
service-time model, and reports the same figures the live service's metrics
report: latency percentiles, sustained verifications per second and the
batch-size histogram.

Time is unitless: pass arrival times and a ``service_time`` callable in the
same unit (seconds for wall-clock what-ifs, cycles for frequency-independent
comparisons) and read the results in that unit.  Everything is a pure function
of its arguments, so the numbers are bit-reproducible across processes and
machines -- which is what lets the tests hold the live batcher to it on a
virtual clock.  :func:`arrival_times` also paces the open-loop load generator.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from random import Random

from repro.config import non_negative_int, number, positive_int
from repro.errors import ServiceError
from repro.service.batcher import ema
from repro.service.metrics import percentile

#: Supported arrival processes of :func:`arrival_times`.
ARRIVAL_DISTRIBUTIONS = ("uniform", "poisson", "burst")


def arrival_times(n: int, rate: float, distribution: str = "poisson",
                  seed: int = 0, burst: int = 8) -> list:
    """``n`` monotone arrival instants at mean ``rate`` requests per time unit.

    ``"uniform"`` spaces requests exactly ``1/rate`` apart (closed-form,
    worst case for batching: no natural bursts); ``"poisson"`` draws
    exponential inter-arrival gaps from ``Random(seed)`` (the open-loop
    traffic model); ``"burst"`` releases requests in back-to-back groups of
    ``burst`` at the same mean rate (best case for batching).  The first
    request arrives at t=0.
    """
    non_negative_int(n, "n", ServiceError)
    number(rate, "rate", ServiceError, exclusive=True)
    if distribution == "uniform":
        return [i / rate for i in range(n)]
    if distribution == "poisson":
        rng = Random(seed)
        t, times = 0.0, []
        for _ in range(n):
            times.append(t)
            t += rng.expovariate(rate)
        return times
    if distribution == "burst":
        positive_int(burst, "burst", ServiceError)
        return [(i // burst) * (burst / rate) for i in range(n)]
    raise ServiceError(
        f"distribution must be one of {ARRIVAL_DISTRIBUTIONS}, got {distribution!r}")


@dataclass
class BatchQueueResult:
    """Outcome of one virtual-time run (same time unit as the inputs)."""

    latencies: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    completed: int = 0
    makespan: float = 0.0

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    def sustained_throughput(self) -> float:
        """Completed requests per time unit, first arrival to last completion."""
        return self.completed / self.makespan if self.makespan > 0 else 0.0

    def batch_size_histogram(self) -> dict:
        return dict(sorted(Counter(self.batch_sizes).items()))

    def describe(self) -> dict:
        return {
            "completed": self.completed,
            "batches": len(self.batch_sizes),
            "batch_size_histogram": self.batch_size_histogram(),
            "p50": round(self.latency_percentile(50), 3),
            "p95": round(self.latency_percentile(95), 3),
            "p99": round(self.latency_percentile(99), 3),
            "sustained_throughput": round(self.sustained_throughput(), 6),
        }


def simulate_batch_queue(arrivals, service_time, *, max_batch: int,
                         deadline: float) -> BatchQueueResult:
    """Replay the dynamic-batching policy over an arrival trace.

    ``arrivals`` is a non-decreasing sequence of admission instants;
    ``service_time(batch_size)`` is the server occupancy of one flushed batch.
    A single server forms batches exactly like the live batcher: greedy fill
    from whatever has already arrived, then wait for the rest until the batch
    fills or until the time left to the oldest waiting request's ``deadline``
    is no longer than the EMA of the gaps between admitted arrivals (the
    whole deadline before the second admission), re-read after each
    admission.  Sparse traffic is therefore flushed at once.  The waiting
    queue is unbounded: the live batcher's admission bound is no part of the
    twin.  The knobs are checked like the live batcher's: what it refuses,
    its twin refuses.
    """
    positive_int(max_batch, "max_batch", ServiceError)
    number(deadline, "deadline", ServiceError)
    arrivals = list(arrivals)
    total = len(arrivals)
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ServiceError("arrival times must be non-decreasing")
    result = BatchQueueResult()
    waiting: deque = deque()
    cursor = 0                         # next arrival not yet admitted
    t_free = 0.0                       # server becomes idle at this instant
    ema_gap = None                     # EMA of the gaps between admissions
    last_admit = None

    def admit_until(t: float) -> None:
        nonlocal cursor, ema_gap, last_admit
        while cursor < total and arrivals[cursor] <= t:
            arrival = arrivals[cursor]
            waiting.append(arrival)
            if last_admit is not None:
                ema_gap = ema(ema_gap, arrival - last_admit)
            last_admit = arrival
            cursor += 1

    while cursor < total or waiting:
        if not waiting:
            admit_until(arrivals[cursor])      # jump to the next arrival burst
            continue
        head = waiting[0]
        start = max(t_free, head)
        admit_until(start)                     # greedy fill: backlog at start
        if len(waiting) < max_batch:
            # Admit arrivals one at a time until the batch fills or no
            # companion is expected in time; each admission moves the mean
            # gap, so the flush instant is read again after it.
            while True:
                flush_at = max(start, head + deadline - (ema_gap or 0.0))
                if len(waiting) >= max_batch or cursor == total \
                        or arrivals[cursor] > flush_at:
                    break
                admit_until(arrivals[cursor])
            if len(waiting) >= max_batch:
                start = max(start, waiting[max_batch - 1])
            else:
                start = flush_at
        batch = [waiting.popleft() for _ in range(min(max_batch, len(waiting)))]
        duration = number(service_time(len(batch)), "service_time's result", ServiceError)
        finish = start + duration
        for arrival in batch:
            result.latencies.append(finish - arrival)
        result.batch_sizes.append(len(batch))
        result.completed += len(batch)
        result.makespan = finish - arrivals[0]
        t_free = finish
    return result
