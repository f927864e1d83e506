"""Deterministic, seeded fault injection for the whole stack.

A :class:`FaultPlan` names *where* faults fire (fault points), *how* they
fire (modes), and *when* (traversal windows or seeded probabilities).  The
plan is installed either programmatically via :func:`configure_faults` or by
setting ``FINESSE_FAULTS`` before the process (or a DSE worker process)
imports :mod:`repro` -- worker processes inherit the environment, so a plan
set before a sweep is live inside every pool worker.

Grammar (specs separated by ``;``)::

    FINESSE_FAULTS = spec[;spec...]
    spec  = point:mode[@nth][*count][~prob] | seed=N | dir=PATH

``point:mode`` picks a fault point and failure mode (see ``FAULT_POINTS``).
``@nth`` fires starting at the nth traversal of the point in this process
(1-based, default 1); ``*count`` fires on that many consecutive traversals
(default 1, ``*inf`` forever); ``~prob`` instead fires each traversal with
probability ``prob`` drawn from the plan's seeded RNG.  ``seed=N`` seeds
both the probabilistic trigger and the corruption byte generator.
``dir=PATH`` makes fire *counts* global across processes: each fire claims
an ``O_CREAT|O_EXCL`` token file under PATH, so ``worker.evaluate:crash*1``
kills exactly one pool worker no matter how many times the pool respawns.

Injection sites guard with ``if faults.ACTIVE is not None`` -- a single
module-attribute load and ``is`` test -- so an unconfigured process pays no
measurable overhead and takes zero behavioural change.
"""

from __future__ import annotations

import errno
import os
import random
import re
import time
from dataclasses import dataclass

from repro.config import FAULTS_ENV, HANG_SECONDS_ENV, env_float, env_str
from repro.errors import (
    CompilerError,
    InjectedFaultError,
    ReliabilityError,
    ServiceError,
    WorkerCrashError,
)

#: How long a ``hang`` fault sleeps, seconds (``FINESSE_FAULT_HANG_S``
#: overrides it so timeout tests can keep the hang shorter than the test
#: suite's patience).
DEFAULT_HANG_SECONDS = 30.0

#: Exit code a ``crash`` fault uses inside a pool worker.  Distinctive on
#: purpose: a chaos run that kills workers should be recognisable in logs.
CRASH_EXIT_CODE = 113

#: Sentinel count for ``*inf`` (fires on every in-window traversal).
INFINITE = 10**9

#: Every fault point and the modes it supports.  Corruption modes
#: (truncate/torn/garbage/flip) transform the bytes passing through the
#: point; the others raise (or, for ``crash``/``hang``, kill or stall).
#: ``worker.evaluate`` is traversed where a design point is evaluated for real
#: (a miss, in process or in a pool worker, at any worker count), never by
#: the exploration engine's parent-side answer from a cache tier;
#: ``store.read`` fires in those parent-side lookups too, where a fault the
#: entry's head shows is a miss: the point is evaluated and its kernel
#: recompiled.  A ``flip`` inside a kernel's bulk is a hit instead (the point
#: is priced from the head); the bulk fails its digest on first read, where
#: the kernel is recompiled.
FAULT_POINTS = {
    "store.read": ("truncate", "torn", "garbage", "flip", "error"),
    "store.write": ("truncate", "torn", "garbage", "flip", "enospc", "error"),
    "compile": ("error",),
    "worker.evaluate": ("error", "crash", "hang"),
    "service.verify_batch": ("error",),
}

#: Exception type the ``error`` mode raises per point, chosen to exercise
#: each layer's *existing* failure contract (a store fault must look like
#: the OSError the store already treats as a miss, and so on).
_ERROR_TYPES = {
    "store.read": OSError,
    "store.write": OSError,
    "compile": CompilerError,
    "worker.evaluate": InjectedFaultError,
    "service.verify_batch": ServiceError,
}

_SPEC_RE = re.compile(
    r"(?P<point>[a-z_.]+):(?P<mode>[a-z]+)"
    r"(?:@(?P<nth>\d+))?"
    r"(?:\*(?P<count>\d+|inf))?"
    r"(?:~(?P<prob>[0-9.]+))?"
)

_GRAMMAR_HINT = (
    "expected 'point:mode[@nth][*count][~prob]', 'seed=N' or 'dir=PATH' "
    "separated by ';' (e.g. 'store.read:truncate@2;worker.evaluate:crash*1;"
    "seed=7')"
)


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: where, how, and on which traversals it fires."""

    point: str
    mode: str
    nth: int = 1
    count: int = 1
    prob: float | None = None

    def __post_init__(self):
        modes = FAULT_POINTS.get(self.point)
        if modes is None:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ReliabilityError(
                f"unknown fault point {self.point!r} (known points: {known})"
            )
        if self.mode not in modes:
            raise ReliabilityError(
                f"fault point {self.point!r} does not support mode "
                f"{self.mode!r} (supported: {', '.join(modes)})"
            )
        if self.nth < 1:
            raise ReliabilityError(f"@nth must be >= 1, got {self.nth}")
        if self.count < 1:
            raise ReliabilityError(f"*count must be >= 1, got {self.count}")
        if self.prob is not None and not 0.0 < self.prob <= 1.0:
            raise ReliabilityError(
                f"~prob must be in (0, 1], got {self.prob}"
            )

    def describe(self) -> str:
        text = f"{self.point}:{self.mode}"
        if self.nth != 1:
            text += f"@{self.nth}"
        if self.count != 1:
            text += "*inf" if self.count >= INFINITE else f"*{self.count}"
        if self.prob is not None:
            text += f"~{self.prob:g}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule: specs plus the seed and optional token dir."""

    specs: tuple = ()
    seed: int = 0
    state_dir: str | None = None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``FINESSE_FAULTS`` grammar into a plan."""
        specs = []
        seed = 0
        state_dir = None
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                raw = token[len("seed="):]
                try:
                    seed = int(raw)
                except ValueError as exc:
                    raise ReliabilityError(
                        f"bad fault-plan seed {raw!r}: {_GRAMMAR_HINT}"
                    ) from exc
                continue
            if token.startswith("dir="):
                state_dir = token[len("dir="):]
                if not state_dir:
                    raise ReliabilityError(
                        f"empty fault-plan dir=: {_GRAMMAR_HINT}"
                    )
                continue
            match = _SPEC_RE.fullmatch(token)
            if match is None:
                raise ReliabilityError(
                    f"bad fault spec {token!r}: {_GRAMMAR_HINT}"
                )
            raw_count = match.group("count")
            count = (
                1 if raw_count is None
                else INFINITE if raw_count == "inf"
                else int(raw_count)
            )
            raw_prob = match.group("prob")
            try:
                prob = None if raw_prob is None else float(raw_prob)
            except ValueError as exc:
                raise ReliabilityError(
                    f"bad fault spec {token!r}: {_GRAMMAR_HINT}"
                ) from exc
            specs.append(FaultSpec(
                point=match.group("point"),
                mode=match.group("mode"),
                nth=int(match.group("nth") or 1),
                count=count,
                prob=prob,
            ))
        return cls(specs=tuple(specs), seed=seed, state_dir=state_dir)

    def describe(self) -> str:
        parts = [spec.describe() for spec in self.specs]
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.state_dir:
            parts.append(f"dir={self.state_dir}")
        return ";".join(parts)


class FaultInjector:
    """Fires a :class:`FaultPlan` at named fault points, deterministically.

    Per-point traversal counters are process-local; with ``dir=`` set, fire
    *budgets* are additionally shared across processes through atomic token
    files, so a bounded schedule stays bounded across pool respawns.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._specs_by_point = {}
        for spec in plan.specs:
            self._specs_by_point.setdefault(spec.point, []).append(spec)
        self._hits = {}
        self._fired = {}
        self._rng = random.Random(plan.seed)

    def apply(self, point: str, data: bytes | None = None):
        """Traverse ``point``; may raise, corrupt ``data``, or pass it back."""
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ReliabilityError(
                f"unknown fault point {point!r} (known points: {known})"
            )
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        for spec in self._specs_by_point.get(point, ()):
            if not self._should_fire(spec, hit):
                continue
            if not self._claim_token(spec):
                continue
            key = (point, spec.mode)
            self._fired[key] = self._fired.get(key, 0) + 1
            data = self._fire(point, spec, data)
        return data

    def snapshot(self) -> dict:
        """Traversal and fire counters, for chaos-run reporting."""
        return {
            "hits": dict(sorted(self._hits.items())),
            "fired": {
                f"{point}:{mode}": count
                for (point, mode), count in sorted(self._fired.items())
            },
        }

    def _should_fire(self, spec: FaultSpec, hit: int) -> bool:
        if spec.prob is not None:
            return self._rng.random() < spec.prob
        return spec.nth <= hit < spec.nth + spec.count

    def _claim_token(self, spec: FaultSpec) -> bool:
        """Claim one of the spec's global fire tokens (``dir=`` plans only)."""
        if self.plan.state_dir is None or spec.prob is not None:
            return True
        if spec.count >= INFINITE:
            return True
        for slot in range(spec.count):
            token = os.path.join(
                self.plan.state_dir, f"{spec.point}.{spec.mode}.{slot}.token"
            )
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
            except OSError:
                # Unwritable/absent dir: degrade to per-process gating rather
                # than silently disabling the fault.
                return True
        return False

    def _fire(self, point: str, spec: FaultSpec, data):
        mode = spec.mode
        if mode in ("truncate", "torn", "garbage", "flip"):
            if data is None:
                raise ReliabilityError(
                    f"corruption mode {mode!r} needs byte data at {point!r}"
                )
            return self._corrupt(mode, data)
        if mode == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected fault: disk full at {point}"
            )
        if mode == "crash":
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(f"injected fault: worker crash at {point}")
        if mode == "hang":
            time.sleep(env_float(HANG_SECONDS_ENV, DEFAULT_HANG_SECONDS, exclusive=True))
            return data
        raise _ERROR_TYPES[point](f"injected fault at {point}")

    def _corrupt(self, mode: str, data: bytes) -> bytes:
        if mode == "truncate":
            return data[: len(data) // 3]
        if mode == "torn":
            return data[: max(1, len(data) // 2)]
        if mode == "garbage":
            size = max(16, len(data) // 4)
            return bytes(self._rng.randrange(256) for _ in range(size))
        # flip: one seeded bit somewhere in the payload
        if not data:
            return b"\x01"
        blob = bytearray(data)
        position = self._rng.randrange(len(blob) * 8)
        blob[position // 8] ^= 1 << (position % 8)
        return bytes(blob)


#: The installed injector, or None.  Injection sites check this with a bare
#: ``is not None`` so the inactive path costs one attribute load.
ACTIVE: FaultInjector | None = None


def configure_faults(plan=None):
    """Install (or clear) the process-wide fault plan.

    ``plan`` may be a :class:`FaultPlan`, a ``FINESSE_FAULTS``-grammar
    string (whose ``seed=`` / ``dir=`` clauses set the seed and state
    directory), or None to disable injection.  Returns the active injector
    (or None).
    """
    global ACTIVE
    if plan is None:
        ACTIVE = None
        return None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if not isinstance(plan, FaultPlan):
        raise ReliabilityError(
            f"configure_faults needs a FaultPlan, plan string or None, "
            f"got {type(plan).__name__}"
        )
    ACTIVE = FaultInjector(plan)
    return ACTIVE


def configure_faults_from_env():
    """(Re)install the plan from ``FINESSE_FAULTS``.  Malformed plans raise:
    a typo that silently disabled injection would let a chaos run pass
    vacuously."""
    return configure_faults(env_str(FAULTS_ENV) or None)


# Environment activation: pool workers inherit FINESSE_FAULTS and run this
# at their first ``import repro``, so a plan set before a sweep is live in
# every worker without explicit plumbing.
configure_faults_from_env()
