"""Configuration of the streaming verification service.

One frozen dataclass carries every operator-facing knob of
:class:`repro.service.VerificationService` (its virtual-time twin,
:func:`repro.service.simulate.simulate_batch_queue`, takes ``max_batch`` and
``deadline`` itself).  Defaults come from the
``FINESSE_SERVICE_*`` environment variables via :meth:`ServiceConfig.from_env`,
mirroring how ``FINESSE_DSE_WORKERS`` / ``FINESSE_CACHE_DIR`` configure the
exploration engine and the artifact store; explicit constructor arguments
always win over the environment.

See ``docs/serving.md`` for the operator guide: what each knob trades off,
with numbers measured by the ledger's service workloads
(``python benchmarks/ledger/run.py --seconds 1 --out ledger-out``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import (
    BREAKER_COOLDOWN_ENV,
    BREAKER_THRESHOLD_ENV,
    DEADLINE_ENV,
    FUSE_ENV,
    MAX_BATCH_ENV,
    QUEUE_BOUND_ENV,
    SHED_AFTER_ENV,
    env_choice,
    env_float,
    env_int,
    member,
    number,
    positive_int,
)
from repro.errors import ServiceError

#: Accepted cross-request batching modes (see ``docs/serving.md``).
FUSE_MODES = ("rlc", "none")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the dynamic batcher and the batched verification path.

    ``max_batch``
        Maximum number of *requests* fused into one ``multi_pairing`` call.
        A full batch flushes immediately; ``1`` disables cross-request
        batching entirely (the baseline configuration the benchmark compares
        against).
    ``deadline_ms``
        The longest a request waits for company, measured from the arrival
        of a forming batch's *oldest* request.  A batch flushes when it
        reaches ``max_batch``, or once the time left to the deadline is no
        longer than the EMA of the gaps between admissions (the whole
        deadline before a second request is admitted): sparse traffic is
        flushed at once.  ``0`` flushes greedily (whatever is queued when
        the server frees up).
    ``queue_bound``
        Maximum number of admitted-but-unserved requests.  Admission beyond
        the bound raises :class:`repro.errors.ServiceOverloadedError` with a
        ``retry_after_s`` estimate -- explicit backpressure instead of
        unbounded memory growth.
    ``fuse``
        Cross-request batching mode.  ``"rlc"`` (default) checks the whole
        batch with one random-linear-combination fused product -- one Miller
        chain and ONE final exponentiation for the batch -- and falls back to
        exact per-request verification whenever the fused check fails, so
        rejected requests are always attributed exactly.  ``"none"`` verifies
        each request's product individually inside the batch (still one
        executor trip; useful for measuring the fusion win in isolation).
    ``vk_cache_entries``
        LRU capacity of the verifying-key precomputation cache
        (:class:`repro.service.vkcache.VerifyingKeyCache`).
    ``retry_after_ms``
        Fixed ``retry_after_s`` hint for rejected requests; ``None`` (default)
        estimates it from the queue depth and the EMA of recent batch service
        times.
    ``breaker_threshold`` / ``breaker_cooldown_ms``
        Circuit breaker on the fused RLC path: after ``breaker_threshold``
        *consecutive* fused-batch failures (exceptions or fused-check
        mismatches forcing the exact fallback) the service stops attempting
        fusion and verifies every request exactly for ``breaker_cooldown_ms``,
        then lets one probe batch through (half-open); a successful probe
        restores fusion.  Verdicts are identical in every state -- only the
        work per batch changes.  See ``docs/reliability.md``.
    ``shed_after_ms``
        Deadline shedding: a request that has waited longer than this when
        its batch is collected is rejected with
        :class:`repro.errors.DeadlineExceededError` instead of being
        verified -- by then the caller has usually timed out, and verifying
        it anyway steals capacity from live requests.  ``None`` (default)
        disables shedding.
    """

    max_batch: int = 8
    deadline_ms: float = 20.0
    queue_bound: int = 256
    fuse: str = "rlc"
    vk_cache_entries: int = 128
    retry_after_ms: float | None = None
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 1000.0
    shed_after_ms: float | None = None

    def __post_init__(self):
        for name in ("max_batch", "queue_bound", "vk_cache_entries",
                     "breaker_threshold"):
            positive_int(getattr(self, name), name, ServiceError)
        for name in ("deadline_ms", "breaker_cooldown_ms"):
            number(getattr(self, name), name, ServiceError)
        number(self.retry_after_ms, "retry_after_ms", ServiceError, optional=True)
        number(self.shed_after_ms, "shed_after_ms", ServiceError,
               exclusive=True, optional=True)
        member(self.fuse, FUSE_MODES, "fuse", ServiceError)

    @property
    def deadline_s(self) -> float:
        return self.deadline_ms / 1e3

    @property
    def breaker_cooldown_s(self) -> float:
        return self.breaker_cooldown_ms / 1e3

    @property
    def shed_after_s(self) -> float | None:
        return None if self.shed_after_ms is None else self.shed_after_ms / 1e3

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        """Config from ``FINESSE_SERVICE_*`` variables; ``overrides`` win.

        Unset, unparseable or out-of-range variables fall back to the
        dataclass defaults -- a malformed environment must not take the
        service down, it only loses the customisation (the shared policy of
        :mod:`repro.config`).  Explicit ``overrides`` are validated like
        constructor arguments and do raise.
        """
        env = {
            "max_batch": env_int(MAX_BATCH_ENV, cls.max_batch),
            "deadline_ms": env_float(DEADLINE_ENV, cls.deadline_ms),
            "queue_bound": env_int(QUEUE_BOUND_ENV, cls.queue_bound),
            "fuse": env_choice(FUSE_ENV, FUSE_MODES, cls.fuse),
            "breaker_threshold": env_int(BREAKER_THRESHOLD_ENV, cls.breaker_threshold),
            "breaker_cooldown_ms": env_float(BREAKER_COOLDOWN_ENV,
                                             cls.breaker_cooldown_ms),
            "shed_after_ms": env_float(SHED_AFTER_ENV, cls.shed_after_ms,
                                       exclusive=True),
        }
        env.update(overrides)
        return cls(**env)

    def with_overrides(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (validated like the constructor)."""
        return replace(self, **changes)
