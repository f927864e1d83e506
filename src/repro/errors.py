"""Exception hierarchy used across the Finesse reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class FieldError(ReproError):
    """Invalid finite-field construction or operation."""


class CurveError(ReproError):
    """Invalid curve parameters or point operation."""


class PairingError(ReproError):
    """Pairing computation failure (degenerate input, invalid subgroup...)."""


class IRError(ReproError):
    """Malformed IR or illegal IR transformation."""


class ISAError(ReproError):
    """Illegal instruction, encoding overflow or malformed program."""


class HardwareModelError(ReproError):
    """Inconsistent hardware model (violates the framework's model constraints)."""


class CompilerError(ReproError):
    """Compilation pipeline failure."""


class SimulationError(ReproError):
    """Functional or cycle-accurate simulation failure."""


class DSEError(ReproError):
    """Design-space exploration failure."""


class ServiceError(ReproError):
    """Streaming verification service failure (bad config, closed service...)."""


class ServiceOverloadedError(ServiceError):
    """Request rejected by backpressure: the admission queue is full.

    Carries ``retry_after_s``, the service's estimate of how long the caller
    should wait before resubmitting (queue depth divided by the recent batch
    drain rate).  Analogous to HTTP 429 + ``Retry-After``.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServiceOverloadedError):
    """Request shed because it sat in the queue past the shedding deadline.

    A subclass of :class:`ServiceOverloadedError` because shedding is an
    overload symptom: callers that already handle 429-style rejection get
    deadline shedding for free, including the ``retry_after_s`` hint.
    """


class ReliabilityError(ReproError):
    """Invalid fault plan, retry policy or circuit-breaker configuration."""


class InjectedFaultError(ReliabilityError):
    """Error raised by an active fault plan at a generic fault point."""


class WorkerCrashError(ReliabilityError):
    """A worker died (or, in-process, simulated dying) mid-evaluation.

    Raised in lieu of ``os._exit`` when a ``crash`` fault fires outside a
    multiprocessing worker, so in-process runs exercise the same recovery
    path the process pool does.  Never retried by the in-worker retry loop:
    crash handling belongs to the exploration engine's supervisor, which
    counts a crash as a strike toward quarantine on either side.
    """
