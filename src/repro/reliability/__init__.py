"""Fault injection, retries, circuit breaking and reliability accounting.

See ``docs/reliability.md`` for the operator guide: the ``FINESSE_FAULTS``
grammar, the retry/backoff knobs, the circuit-breaker state machine and the
quarantine semantics of the self-healing DSE worker pool.
"""

from repro.reliability.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.reliability.faults import (
    FAULT_POINTS,
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    configure_faults,
    configure_faults_from_env,
)
from repro.reliability.retry import RetryPolicy, call_with_retries
from repro.reliability.stats import FailedPoint

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "FAULT_POINTS",
    "FAULTS_ENV",
    "FailedPoint",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "call_with_retries",
    "configure_faults",
    "configure_faults_from_env",
]
