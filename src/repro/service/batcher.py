"""Asyncio dynamic batcher: coalesce a request stream into bounded batches.

The classic inference-serving shape applied to pairing verification.  Requests
are admitted into a bounded queue; a single consumer task forms batches under
the latency-deadline policy and hands them to an async ``flush`` callable (the
service runs the CPU-bound verification in a worker thread so the event loop
keeps admitting traffic while a batch is being verified).

Policy -- a batch is flushed when EITHER
    * it has reached ``max_batch`` requests (flush immediately), OR
    * no companion is expected before its *oldest* request's deadline
      (``deadline_s`` after that request arrived)
(whichever comes first).  A backlogged queue is drained greedily: when the
consumer frees up it first fills the batch with whatever is already waiting,
so under saturation batches are always full and nothing waits.  A short batch
then waits for the rest only while the EMA of the gaps between admissions is
shorter than the time left to that deadline: sparse traffic, whose companions
arrive after the deadline anyway, is flushed at once, and dense traffic waits
until one mean gap before the deadline.  Until a second request has been
admitted there is no gap, and the batch waits out the whole deadline.

Backpressure -- :meth:`DynamicBatcher.admit` rejects with
:class:`~repro.errors.ServiceOverloadedError` (carrying a ``retry_after_s``
estimate from the EMA of recent batch service times) once ``queue_bound``
requests are waiting, so overload surfaces as an explicit, retryable signal
instead of unbounded queueing.

Results are routed back through one :class:`asyncio.Future` per request, so
ordering inside a batch and interleaving across batches cannot mix up
callers.  The same policy, in virtual time, is modelled deterministically by
:func:`repro.service.simulate.simulate_batch_queue` -- keep the two in sync.
"""

from __future__ import annotations

import asyncio

from repro.config import number, positive_int
from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)


#: Weight of the newest sample in the batcher's moving averages: the batch
#: service time and the gap between admissions.
EMA_WEIGHT = 0.2


def ema(average: float | None, sample: float) -> float:
    """``sample`` folded into the moving ``average`` (``None``: no sample yet)."""
    return sample if average is None else (1 - EMA_WEIGHT) * average + EMA_WEIGHT * sample


class _Pending:
    """One admitted request: payload, result future, arrival timestamp."""

    __slots__ = ("item", "future", "arrival")

    def __init__(self, item, future, arrival: float):
        self.item = item
        self.future = future
        self.arrival = arrival


class DynamicBatcher:
    """Deadline/max-batch coalescing in front of an async ``flush`` callable.

    ``flush(items)`` receives the batched payloads (oldest first) and must
    return one result per item, in order; its exceptions are propagated to
    every request of the failed batch.  Construction is cheap and loop-free;
    :meth:`start` spawns the consumer task on the running loop.
    """

    def __init__(self, flush, *, max_batch: int, deadline_s: float,
                 queue_bound: int, retry_after_s: float | None = None,
                 shed_after_s: float | None = None,
                 metrics=None):
        positive_int(max_batch, "max_batch", ServiceError)
        number(deadline_s, "deadline_s", ServiceError)
        positive_int(queue_bound, "queue_bound", ServiceError)
        number(shed_after_s, "shed_after_s", ServiceError, exclusive=True, optional=True)
        self._flush = flush
        self.max_batch = max_batch
        self.deadline_s = deadline_s
        self.queue_bound = queue_bound
        self.retry_after_s = retry_after_s
        #: Requests older than this at batch-collection time are rejected
        #: with :class:`DeadlineExceededError` instead of verified (None = off).
        self.shed_after_s = shed_after_s
        self.metrics = metrics
        self._queue: asyncio.Queue = asyncio.Queue()
        self._consumer: asyncio.Task | None = None
        self._closed = False
        self._outstanding = 0
        self._idle: asyncio.Event = asyncio.Event()
        self._idle.set()
        #: EMA of recent batch wall-clock service times (None until first flush).
        self._ema_batch_s: float | None = None
        #: EMA of the gaps between admissions (None until the second one).
        self._ema_gap_s: float | None = None
        self._last_admit: float | None = None

    # -- admission ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet taken into a batch."""
        return self._queue.qsize()

    def estimate_retry_after_s(self) -> float:
        """How long a rejected caller should wait before resubmitting.

        The configured fixed hint when one was given; otherwise the time to
        drain the current backlog at the recently observed batch service rate
        (falling back to the deadline before the first batch completes).
        """
        if self.retry_after_s is not None:
            return self.retry_after_s
        per_batch = self._ema_batch_s
        if per_batch is None:
            per_batch = max(self.deadline_s, 1e-3)
        backlog_batches = (self._queue.qsize() + self.max_batch) // self.max_batch
        return backlog_batches * per_batch

    def admit(self, item) -> asyncio.Future:
        """Enqueue ``item``; returns the future its batch result will resolve.

        Must be called on the event loop.  Raises
        :class:`ServiceOverloadedError` when ``queue_bound`` requests are
        already waiting, and :class:`ServiceError` after :meth:`stop`.
        """
        if self._closed:
            raise ServiceError("batcher is stopped; no further admissions")
        loop = asyncio.get_running_loop()
        if self._queue.qsize() >= self.queue_bound:
            if self.metrics is not None:
                self.metrics.rejected += 1
            raise ServiceOverloadedError(
                f"queue full ({self.queue_bound} requests waiting)",
                retry_after_s=self.estimate_retry_after_s(),
            )
        now = loop.time()
        if self._last_admit is not None:
            self._ema_gap_s = ema(self._ema_gap_s, now - self._last_admit)
        self._last_admit = now
        pending = _Pending(item, loop.create_future(), now)
        self._queue.put_nowait(pending)
        self._outstanding += 1
        self._idle.clear()
        if self.metrics is not None:
            self.metrics.record_admit(now)
        return pending.future

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the consumer task (idempotent)."""
        if self._closed:
            raise ServiceError("batcher is stopped")
        if self._consumer is None:
            self._consumer = asyncio.get_running_loop().create_task(self._consume())

    async def stop(self, drain: bool = True) -> None:
        """Stop admissions; optionally wait for queued work, then kill the consumer.

        Every admitted-but-unserved request is settled -- drained batches with
        their verdicts, abandoned ones with a :class:`ServiceError` -- so no
        caller is ever left awaiting a future that will never resolve
        (including the ``drain=False`` / ``KeyboardInterrupt`` path).
        """
        self._closed = True
        if drain and self._outstanding:
            await self._idle.wait()
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        self._abandon_queued()

    def _abandon_queued(self) -> None:
        """Resolve every still-queued request with a ServiceError."""
        leftovers = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        if leftovers:
            self._settle(leftovers, error=ServiceError(
                "service stopped before this request was verified"))

    # -- batching ----------------------------------------------------------------
    async def _collect_batch(self) -> list:
        """Block for the first request, then apply the flush policy."""
        batch = [await self._queue.get()]
        try:
            # Greedy phase: a backlog fills the batch without waiting.
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            # Deadline phase: wait for the rest while the mean admission gap
            # is shorter than the time left to the oldest request's deadline.
            if len(batch) < self.max_batch and self.deadline_s > 0:
                loop = asyncio.get_running_loop()
                flush_at = batch[0].arrival + self.deadline_s
                while len(batch) < self.max_batch:
                    remaining = flush_at - (self._ema_gap_s or 0.0) - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                    except asyncio.TimeoutError:
                        break
        except asyncio.CancelledError:
            # Stopped mid-collection: the partial batch's callers must not
            # hang on futures nobody will ever resolve.
            self._settle(batch, error=ServiceError("batcher stopped mid-batch"))
            raise
        return batch

    def _shed_stale(self, batch: list) -> list:
        """Split off and reject requests older than the shedding deadline."""
        if self.shed_after_s is None:
            return batch
        now = asyncio.get_running_loop().time()
        stale = [p for p in batch if now - p.arrival > self.shed_after_s]
        if not stale:
            return batch
        if self.metrics is not None:
            self.metrics.shed += len(stale)
        self._settle(stale, error=DeadlineExceededError(
            f"request shed: waited longer than {self.shed_after_s * 1e3:.0f} ms",
            retry_after_s=self.estimate_retry_after_s(),
        ), count_failures=False)
        return [p for p in batch if now - p.arrival <= self.shed_after_s]

    def _settle(self, batch: list, results=None,
                error: BaseException | None = None,
                count_failures: bool = True) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        for index, pending in enumerate(batch):
            outcome = error if error is not None else results[index]
            failed = isinstance(outcome, BaseException)
            if not pending.future.done():       # caller may have abandoned it
                if failed:
                    pending.future.set_exception(outcome)
                else:
                    pending.future.set_result(outcome)
            if self.metrics is not None:
                if not failed:
                    self.metrics.record_result(now - pending.arrival, now)
                elif count_failures:
                    self.metrics.failed_requests += 1
            self._outstanding -= 1
        if not self._outstanding:
            self._idle.set()

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect_batch()
            batch = self._shed_stale(batch)
            if not batch:
                continue
            started = loop.time()
            try:
                results = await self._flush([pending.item for pending in batch])
                if results is None or len(results) != len(batch):
                    raise ServiceError(
                        f"flush returned {0 if results is None else len(results)} "
                        f"results for a batch of {len(batch)}")
            except asyncio.CancelledError:
                self._settle(batch, error=ServiceError("batcher stopped mid-batch"))
                raise
            except Exception as exc:           # noqa: BLE001 - routed to callers
                self._settle(batch, error=exc)
            else:
                self._settle(batch, results=results)
            elapsed = loop.time() - started
            self._ema_batch_s = ema(self._ema_batch_s, elapsed)
            if self.metrics is not None:
                self.metrics.record_batch(len(batch), elapsed, self._queue.qsize())
