"""The streaming verification service: async batched Groth16/BLS verification.

:class:`VerificationService` turns a stream of independent verification
requests into well-shaped ``multi_pairing`` batches:

* requests are admitted through the bounded :class:`~repro.service.batcher.
  DynamicBatcher` (flush on max-batch OR once no companion is expected
  before the deadline, reject-with-retry-after on overflow);
* the fixed G2 points of every request (Groth16 verifying keys, BLS public
  keys, the G2 generator) come from the content-addressed
  :class:`~repro.service.vkcache.VerifyingKeyCache`, so their Miller-loop
  line coefficients are computed once per key, not once per request;
* a flushed batch is checked with ONE fused pairing product (see below) in a
  single worker thread, so the event loop keeps admitting and coalescing
  traffic while the CPU-bound verification runs;
* per-request and per-batch telemetry lands in
  :class:`~repro.service.metrics.ServiceMetrics`.

The fused batch check
---------------------
Each request *j* is an independent "product is one" check
``Pi_i e(P_ji, Q_ji) == 1``.  Under the default ``fuse="rlc"`` policy the
batch draws fresh secret coefficients ``c_j`` below ``min(r, 2**128)`` (with
``c_0 = 1``) and checks

    Pi_j (Pi_i e(P_ji, Q_ji)) ** c_j  ==  1

as a batch verifier does (:func:`repro.pairing.batch.combine_products`): the
scaling is applied on the cheap G1 side, and pairs that share a G2 point --
every request of one verifying key is handed the same cached precomputation
-- become ONE Miller source, ``e(Sum_j c_j P_j, Q)``, their G1 point computed
by one interleaved multi-scalar ladder.  A batch of 8 Groth16 requests over
two circuits walks 12 sources, not 24 (8 live ``B`` points, and ``beta`` and
``delta`` of each circuit once); 8 BLS signatures of 4 signers walk 5, not
16.  If every request is valid the fused product is 1 and all requests are
accepted.  If the fused check fails, the service falls back to verifying
every request of the batch individually with the exact unbatched product, so
every rejection (and every acceptance on a failing batch) is attributed
exactly -- honest and forged traffic both receive verdicts identical to
per-request ``multi_pairing`` verification.  ``fuse="none"`` disables fusion
(exact per-request products inside the batch) for measurement or for the
paranoid.

What is assumed.  The only deviation from the unbatched semantics is the
standard random-linear-combination one: inputs crafted so their errors cancel
*against the service's secret per-batch randomness* pass with probability at
most ``(batch - 1) / min(r, 2**128)``.  Scaling and coalescing both rest on
bilinearity, i.e. on ``P`` in ``E(F_p)`` and ``Q`` in G2: neither the fused
nor the exact path runs ``curve.is_in_g1`` / ``is_in_g2`` -- callers own
subgroup checks -- and because no order is assumed of a ``P``, sums of
coefficients are never reduced mod ``r``.

Degrading gracefully
--------------------
A circuit breaker guards the fused path: ``breaker_threshold`` consecutive
fused failures (exceptions or fused-check mismatches) trip it, and batches
are verified exactly per-request for ``breaker_cooldown_ms`` before a
half-open probe re-tests fusion.  ``shed_after_ms`` rejects requests that
out-waited their useful lifetime, and shutdown settles every outstanding
future (verdict or :class:`~repro.errors.ServiceError`) so callers never
hang.  See ``docs/reliability.md``.
"""

from __future__ import annotations

import asyncio
import random
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ServiceError
from repro.pairing.batch import combine_products, multi_pairing
from repro.reliability import faults as _faults
from repro.reliability.breaker import CircuitBreaker
from repro.service.batcher import DynamicBatcher
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.vkcache import VerifyingKeyCache
from repro.service.workloads import (
    BLSRequest,
    Groth16Proof,
    Groth16Request,
    Groth16VerifyingKey,
    build_request_pairs,
)

#: Bit length of the random-linear-combination coefficients: the fused check
#: is unsound with probability at most ``(batch - 1) / min(r, 2**RLC_BITS)``,
#: and its G1 ladders are this long instead of ``r``'s 255 bits.
RLC_BITS = 128


class _PreparedRequest:
    """A request reduced to its ``multi_pairing`` pairs at admission time."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs


class VerificationService:
    """Async dynamic-batching front end over the software pairing library.

    Usage::

        service = VerificationService(get_curve("TOY-BN42"))
        async with service:
            ok = await service.verify(request)          # any request shape
            ok = await service.verify_groth16(proof, vk)
            ok = await service.verify_bls(public_key, message, signature)

    ``config`` defaults to :meth:`ServiceConfig.from_env`.  ``rng`` supplies
    the per-batch random-linear-combination coefficients and defaults to a
    system-entropy CSPRNG; inject a seeded ``random.Random`` only in tests.
    """

    def __init__(self, curve, config: ServiceConfig | None = None, *, rng=None):
        self.curve = curve
        self.config = config if config is not None else ServiceConfig.from_env()
        self.vk_cache = VerifyingKeyCache(
            curve, max_entries=self.config.vk_cache_entries)
        self._rng = rng if rng is not None else random.SystemRandom()
        #: Circuit breaker on the fused RLC path: repeated fused-batch
        #: failures trip it and every batch is verified exactly per-request
        #: until the cooldown expires and a half-open probe succeeds.
        #: Verdicts are identical in every state; only cost per batch changes.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.metrics = ServiceMetrics(self.breaker)
        self._batcher = DynamicBatcher(
            self._flush,
            max_batch=self.config.max_batch,
            deadline_s=self.config.deadline_s,
            queue_bound=self.config.queue_bound,
            retry_after_s=None if self.config.retry_after_ms is None
            else self.config.retry_after_ms / 1e3,
            shed_after_s=self.config.shed_after_s,
            metrics=self.metrics,
        )
        self._executor: ThreadPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the batch consumer and the verification worker (idempotent)."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="finesse-verify")
        await self._batcher.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop admissions, optionally drain queued work, release the worker."""
        await self._batcher.stop(drain=drain)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "VerificationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- admission ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet taken into a batch."""
        return self._batcher.queue_depth

    def submit(self, request) -> asyncio.Future:
        """Admit a request; returns the future of its boolean verdict.

        Building the pairs (including any verifying-key cache fill) happens
        here, on the event loop, so by flush time a batch is pure pairing
        work.  Raises :class:`~repro.errors.ServiceOverloadedError` when the
        admission queue is full -- the caller should back off for the
        exception's ``retry_after_s`` and resubmit.
        """
        prepared = _PreparedRequest(
            build_request_pairs(request, self.curve, self.vk_cache))
        return self._batcher.admit(prepared)

    async def verify(self, request) -> bool:
        """Admit a request and await its verdict."""
        return await self.submit(request)

    async def verify_groth16(self, proof: Groth16Proof,
                             vk: Groth16VerifyingKey) -> bool:
        """Verify ``e(A, B) = e(alpha, beta) * e(C, delta)`` for one proof."""
        return await self.verify(Groth16Request(proof=proof, vk=vk))

    async def verify_bls(self, public_key, message: bytes, signature) -> bool:
        """Verify one BLS signature ``e(sigma, g2) == e(H(m), pk)``."""
        return await self.verify(BLSRequest(
            public_key=public_key, message=message, signature=signature))

    # -- verification ------------------------------------------------------------
    async def _flush(self, batch) -> list:
        if self._executor is None:
            raise ServiceError("service is not started")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._verify_batch, batch)

    def _product_is_one(self, pairs) -> bool:
        return multi_pairing(self.curve, pairs).is_one()

    def _verify_each(self, batch) -> list:
        """Exact per-request verdicts; a failing request carries its exception.

        Exceptions are returned *in place* (one slot per request) rather than
        raised, so one malformed request poisons only its own future -- its
        batch-mates still get their verdicts.  The batcher's settle step
        counts the failures (it is the one place that sees every outcome).
        """
        results = []
        for prepared in batch:
            try:
                results.append(self._product_is_one(prepared.pairs))
            except Exception as exc:  # noqa: BLE001 - routed to the one caller
                results.append(exc)
        return results

    def _verify_batch(self, batch) -> list:
        """One batch, verified in the worker thread; one verdict per request."""
        if len(batch) == 1 or self.config.fuse == "none":
            return self._verify_each(batch)
        if not self.breaker.allow():
            # Breaker open: fused attempts are suspended for the cooldown.
            self.metrics.breaker_exact_batches += 1
            return self._verify_each(batch)
        pairs = sources = 0
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.apply("service.verify_batch")
            # Random linear combination: raise each request's product to a
            # fresh secret coefficient (the first is 1 -- scaling every
            # request is unnecessary for soundness) and fuse into one product,
            # one Miller source per distinct G2 point.
            coefficients = [1] + [
                self._rng.randrange(1, min(self.curve.r, 1 << RLC_BITS)) for _ in batch[1:]]
            fused = combine_products(
                self.curve, [prepared.pairs for prepared in batch], coefficients)
            pairs, sources = sum(len(prepared.pairs) for prepared in batch), len(fused)
            fused_ok = self._product_is_one(fused)
        except Exception:  # noqa: BLE001 - fused path is optional, fall back
            fused_ok = False
        # A failed fused product counts as a breaker failure like an exception
        # does: a traffic mix that keeps failing fused checks pays fused work +
        # fallback on every batch, and tripping to exact-only is the cheaper
        # steady state.
        if fused_ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        self.metrics.record_fused(fused_ok, pairs, sources)
        # On failure at least one request is invalid (or the fused path
        # broke): attribute exactly, each request by its unbatched product.
        return [True] * len(batch) if fused_ok else self._verify_each(batch)
