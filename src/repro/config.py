"""Process configuration: every ``FINESSE_*`` variable and the shared value checks.

This is the only module that touches ``os.environ`` (a tier-1 test scans the
package for strays), and the only place a ``FINESSE_*`` name is spelled out;
``docs/configuration.md`` documents the same list, and a test keeps the two
in step.

**Environment policy** -- one rule, applied by every reader here: a variable
that is unset, unparsable or out of range resolves to the caller's built-in
default.  The environment customises a run; it never takes one down.  The
two *name-valued* variables, ``FINESSE_FAULTS`` and ``FINESSE_FP_BACKEND``,
are the exception: their consumers raise on a name they do not know, because
a typo that silently disabled fault injection (or silently switched the
arithmetic backend) would let a chaos or backend-matrix run pass vacuously.

**Value checks** -- explicit arguments are caller input and fail loudly.
The four checks below take the error class to raise, so each layer keeps its
own exception type while the rule itself (bools and truncating floats are
caller bugs, NaN and infinities are never numbers) lives once.
"""

from __future__ import annotations

import math
import os

# -- compile cache (repro.compiler.store) -------------------------------------
CACHE_DIR_ENV = "FINESSE_CACHE_DIR"
MAX_BYTES_ENV = "FINESSE_CACHE_MAX_BYTES"
# -- field arithmetic (repro.fields.backends) ---------------------------------
BACKEND_ENV = "FINESSE_FP_BACKEND"
# -- exploration engine (repro.dse.engine) ------------------------------------
WORKERS_ENV = "FINESSE_DSE_WORKERS"
MAX_RETRIES_ENV = "FINESSE_DSE_MAX_RETRIES"
EVAL_TIMEOUT_ENV = "FINESSE_DSE_EVAL_TIMEOUT"
# -- Pareto sweep experiment (repro.evaluation.pareto_sweep) -------------------
OBJECTIVES_ENV = "FINESSE_DSE_OBJECTIVES"
BUDGET_ENV = "FINESSE_DSE_BUDGET"
# -- fault injection (repro.reliability.faults) -------------------------------
FAULTS_ENV = "FINESSE_FAULTS"
HANG_SECONDS_ENV = "FINESSE_FAULT_HANG_S"
# -- verification service (repro.service.config) ------------------------------
MAX_BATCH_ENV = "FINESSE_SERVICE_MAX_BATCH"
DEADLINE_ENV = "FINESSE_SERVICE_DEADLINE_MS"
QUEUE_BOUND_ENV = "FINESSE_SERVICE_QUEUE_BOUND"
FUSE_ENV = "FINESSE_SERVICE_FUSE"
BREAKER_THRESHOLD_ENV = "FINESSE_SERVICE_BREAKER_THRESHOLD"
BREAKER_COOLDOWN_ENV = "FINESSE_SERVICE_BREAKER_COOLDOWN_MS"
SHED_AFTER_ENV = "FINESSE_SERVICE_SHED_AFTER_MS"

#: Every variable the package reads.  The readers below refuse any other
#: name, so a new variable cannot be consumed without being registered here
#: (and, through ``tests/test_docs.py``, documented).
ENV_VARS = (
    CACHE_DIR_ENV, MAX_BYTES_ENV, BACKEND_ENV,
    WORKERS_ENV, MAX_RETRIES_ENV, EVAL_TIMEOUT_ENV,
    OBJECTIVES_ENV, BUDGET_ENV,
    FAULTS_ENV, HANG_SECONDS_ENV,
    MAX_BATCH_ENV, DEADLINE_ENV, QUEUE_BOUND_ENV, FUSE_ENV,
    BREAKER_THRESHOLD_ENV, BREAKER_COOLDOWN_ENV, SHED_AFTER_ENV,
)


# ---------------------------------------------------------------------------
# Environment readers
# ---------------------------------------------------------------------------

def _registered(name: str) -> str:
    if name not in ENV_VARS:
        raise KeyError(f"{name} is not a registered FINESSE_* variable")
    return name


def env_str(name: str) -> str:
    """The stripped value of a registered variable, ``""`` when unset."""
    return os.environ.get(_registered(name), "").strip()


def env_int(name: str, default, minimum: int = 1):
    """An integer ``>= minimum``; anything else is ``default``."""
    try:
        value = int(env_str(name))
    except ValueError:
        return default
    return value if value >= minimum else default


def env_float(name: str, default, exclusive: bool = False):
    """A finite number ``>= 0`` (``> 0`` when ``exclusive``); anything else is ``default``."""
    try:
        value = float(env_str(name))
    except ValueError:
        return default
    return value if _in_range(value, exclusive) else default


def env_choice(name: str, choices, default: str) -> str:
    """One of ``choices`` (matched case-insensitively); anything else is ``default``."""
    value = env_str(name).lower()
    return value if value in choices else default


def export(name: str, value) -> None:
    """Set (``None``: unset) a registered variable for this process *and* the
    worker processes it spawns -- how the runner's flags reach DSE pools."""
    if value is None:
        os.environ.pop(_registered(name), None)
    else:
        os.environ[_registered(name)] = str(value)


# ---------------------------------------------------------------------------
# Value checks (explicit arguments: raise ``error``)
# ---------------------------------------------------------------------------

def _in_range(value, exclusive) -> bool:
    return math.isfinite(value) and (value > 0 if exclusive else value >= 0)


def _check_int(value, what, error, minimum):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise error(f"{what} must be a {kind} integer, got {value!r}")
    return value


def positive_int(value, what: str, error=ValueError) -> int:
    """``value`` if it is an ``int`` (not a bool) ``>= 1``; raises ``error`` otherwise."""
    return _check_int(value, what, error, 1)


def non_negative_int(value, what: str, error=ValueError) -> int:
    """``value`` if it is an ``int`` (not a bool) ``>= 0``; raises ``error`` otherwise."""
    return _check_int(value, what, error, 0)


def number(value, what: str, error=ValueError, exclusive: bool = False,
           optional: bool = False):
    """``value`` if it is a finite real ``>= 0`` (``> 0`` when ``exclusive``),
    or ``None`` when ``optional``; raises ``error`` otherwise."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not _in_range(value, exclusive):
        bound = "greater than 0" if exclusive else "at least 0"
        raise error(f"{what} must be a finite number {bound}"
                    f"{' (or None)' if optional else ''}, got {value!r}")
    return value


def member(value, choices, what: str, error=ValueError):
    """``value`` if it is one of ``choices``; raises ``error`` otherwise."""
    if value not in choices:
        raise error(f"{what} must be one of {tuple(choices)}, got {value!r}")
    return value
