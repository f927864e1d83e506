"""Parallel, cache-aware design-space exploration engine.

The co-design loop of Section 3.6 -- compile, schedule, simulate and price every
design point -- is embarrassingly parallel: no point depends on any other.  The
:class:`ParallelExplorer` exploits that by sharding a design space across a
``ProcessPoolExecutor`` while keeping the result stream fully deterministic.

One path
--------
Every sweep, at any worker count, runs the same steps: deduplicate the points
by compile identity, let the parent answer every point whose kernels a cache
tier holds, hand the misses to one supervisor, fill duplicates from their
representatives and build the report.  The only fork is who runs a miss: a
process pool when there is more than one worker, more than one point, a
catalog curve and a pool that can be created; this process otherwise, through
the same supervisor on an inline executor.  Rankings, frontiers and
``evaluated`` lists are therefore identical for any worker count and any cache
state.

Knobs
-----
``workers``
    Number of worker processes.  ``workers=1`` (the default) runs the misses
    in process; ``workers=N`` shards them into chunks, evaluates them in
    parallel and merges results back into submission order before ranking.
    The default can be set globally with the ``FINESSE_DSE_WORKERS``
    environment variable (used by the evaluation runner's ``--workers`` flag).
``FINESSE_DSE_MAX_RETRIES`` / ``FINESSE_DSE_EVAL_TIMEOUT``
    Failure handling, read from the environment at construction (the
    evaluation runner's ``--max-retries`` / ``--eval-timeout`` flags set
    them): the per-point retry budget for transient evaluation failures
    (default 2; crash recovery is separate) and the per-point evaluation
    timeout in seconds (default off).  The timeout is enforced on the pool
    only -- a chunk of k points gets ``k * eval_timeout``; in-process
    evaluation cannot be preempted.

A pool sweep dispatches its misses in chunks of
``ceil(len(misses) / (4 * workers))`` points, so stragglers (large kernels)
do not serialise it.  Every point is scored the same way
(:func:`repro.dse.explorer.evaluate_design_point`), so sharded sweeps score
identically to in-process ones.

Caching
-------
Every evaluation funnels through :func:`repro.compiler.pipeline.compile_kernel`
and therefore through the content-addressed compile cache: identical (curve,
variant config, hw model) combinations compile exactly once per process, and a
repeated sweep over the same design points performs zero recompilations.
After every sweep the engine stores that sweep's per-stage cache counters
(this process's delta plus every pool chunk's delta) in
``last_report.cache_stats``.

Three mechanisms extend that guarantee across process boundaries:

* **Dedup** -- points are grouped by their semantic compile identity
  (variant-config and hardware cache keys), only the first occurrence of each
  identity is evaluated, and duplicate slots are filled from the
  representative's metrics (relabelled per point).  A cold ``workers=N`` sweep
  therefore compiles each *distinct* point exactly once across the whole pool,
  no matter how chunks land on workers.
* **Disk tier** -- when ``FINESSE_CACHE_DIR`` is exported (see
  :mod:`repro.compiler.store`), every worker inherits it and shares one
  disk-backed artifact store, so sweeps in *fresh* processes (new CLI runs,
  later CI jobs) are served from disk instead of recompiling; the shared
  ``disk`` counters surface in ``last_report.cache_stats``.
* **Cached points are answered by the parent** -- a distinct point whose
  kernel is in the memory or disk tier is priced from the recorded facts
  (``last_report.cached_points``); only the rest is evaluated, so a fully
  warm ``workers=N`` sweep builds no pool at all (``chunks == 0``).

Worker processes reconstruct the curve from its catalog name (curve objects
hold deeply nested field towers that are expensive to ship), so the pool is
only used for catalog curves; anything else, or an environment in which
process pools cannot be created, runs its misses in process.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.compiler.pipeline import cache_counters, cached_kernel
from repro.config import (
    EVAL_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    WORKERS_ENV,
    env_float,
    env_int,
    non_negative_int,
    number,
    positive_int,
)
from repro.curves.catalog import CURVE_SPECS
from repro.dse.explorer import _evaluate, evaluate_design_point
from repro.dse.objectives import objective_name, resolve_objective, resolve_objectives
from repro.dse.pareto import ParetoResult, pareto_result
from repro.dse.search import proxy_ranking, validate_budget
from repro.errors import DSEError, WorkerCrashError
from repro.obs import Counters
from repro.reliability import faults as _faults
from repro.reliability.retry import RetryPolicy, call_with_retries
from repro.reliability.stats import FailedPoint

#: Default retry budget: two retries heal every single- or double-transient
#: fault without materially delaying a genuinely broken sweep.
DEFAULT_MAX_RETRIES = 2

#: A design point whose evaluation crashes its worker (or, in process, raises
#: :class:`WorkerCrashError`) this many times is quarantined (recorded in
#: ``ParallelExplorer.failures``) instead of being retried forever.
QUARANTINE_AFTER = 2

#: How long the pool-creation probe waits for the first worker to answer
#: before the pool is declared unavailable (misses then run in process).
_POOL_PROBE_TIMEOUT_S = 60.0

#: Error raised by ``best()`` when the sweep produced no rankable metrics --
#: an empty point list, or every point filtered away.
EMPTY_SPACE_MESSAGE = (
    "empty design space: no design point produced metrics to rank "
    "(did the sweep receive any points?)"
)


def validate_max_retries(value) -> int:
    """Reject anything but a non-negative integer retry budget."""
    return non_negative_int(value, "max retries", DSEError)


def validate_eval_timeout(value) -> float | None:
    """Reject anything but ``None`` or a positive, finite number of seconds."""
    value = number(value, "evaluation timeout (seconds)", DSEError,
                   exclusive=True, optional=True)
    return None if value is None else float(value)


@dataclass
class ExplorationReport:
    """Bookkeeping of one :meth:`ParallelExplorer.explore` sweep."""

    points: int
    workers: int
    #: Chunks dispatched to the pool (0 on a sweep run in process or answered
    #: by the cache tiers).
    chunks: int
    objective: str
    #: Semantically distinct design points (duplicates are filled from theirs).
    distinct_points: int = 0
    #: Distinct points the parent answered from a cache tier.
    cached_points: int = 0
    #: Merged compile-cache statistics (this process plus every pool chunk).
    cache_stats: dict = field(default_factory=dict)
    #: Points quarantined by this sweep (crashed workers, timeouts).
    failed: int = 0
    #: Recovery counters of this sweep (``explorer.reliability.snapshot()``).
    reliability: dict = field(default_factory=dict)

    @property
    def parallel(self) -> bool:
        """A pool evaluated at least one point."""
        return self.chunks > 0

    def describe(self) -> dict:
        result_stats = self.cache_stats.get("result", {})
        disk_stats = self.cache_stats.get("disk", {})
        summary = {
            "points": self.points,
            "distinct_points": self.distinct_points,
            "workers": self.workers,
            "chunks": self.chunks,
            "objective": self.objective,
            "parallel": self.parallel,
            "compile_hits": result_stats.get("hits", 0),
            "compile_misses": result_stats.get("misses", 0),
        }
        if self.cached_points:
            summary["cached_points"] = self.cached_points
        if disk_stats:
            summary["disk_hits"] = disk_stats.get("hits", 0)
            summary["disk_misses"] = disk_stats.get("misses", 0)
        if self.failed or any(self.reliability.values()):
            summary["failed_points"] = self.failed
            summary["reliability"] = dict(self.reliability)
        return summary


#: Process-lifetime totals of the compile work done *inside worker pools*
#: (the parent's ``compile_cache_stats`` cannot see it), one
#: :class:`~repro.obs.Counters` per cache tier.
_WORKER_TOTALS: dict = {}


def worker_cache_stats() -> dict:
    """Accumulated per-tier cache counters of every worker sweep so far."""
    return {name: counters.delta() for name, counters in _WORKER_TOTALS.items()}


def _reliability_counters() -> Counters:
    """Every recovery action a sweep takes, counted."""
    return Counters("retries", "backoff_s", "worker_crashes", "eval_timeouts",
                    "chunks_resubmitted", "points_isolated", "points_quarantined",
                    floats=("backoff_s",))


def _tier_delta(before: dict | None = None) -> dict:
    """Per-tier cache counter change since ``before``, an earlier
    ``_tier_delta()``; without one, the counts themselves."""
    before = before or {}
    return {name: counters.delta(before.get(name))
            for name, counters in cache_counters().items()}


def _merge_tiers(totals: dict, delta: dict) -> None:
    """Add a per-tier delta into ``totals`` (tier name -> ``Counters``)."""
    for name, counts in delta.items():
        totals.setdefault(name, Counters(*counts)).merge(counts)


def _evaluate_point_resilient(curve, point, policy, reliability):
    """Evaluate one point with retry/backoff; wrap persistent failures.

    Transient errors (injected faults, flaky I/O...) are retried up to the
    policy's budget with full-jitter exponential backoff; whatever survives
    the budget is re-raised as a :class:`DSEError` naming the design point,
    with the original exception chained (``__cause__``) *and* its formatted
    traceback embedded in the message -- the chain does not survive pickling
    across the process-pool boundary, the message does.  Programming errors
    (ValueError/TypeError) and simulated crashes propagate immediately.
    """
    label = point.display_label
    attempts = {"n": 1}

    def attempt():
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.apply("worker.evaluate")
        return evaluate_design_point(curve, point)

    def on_retry(attempt_no, exc, delay):
        attempts["n"] += 1
        reliability.retries += 1
        reliability.backoff_s += delay

    try:
        return call_with_retries(attempt, policy, label=label, on_retry=on_retry)
    except (WorkerCrashError, ValueError, TypeError):
        raise
    except Exception as exc:
        trace = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).rstrip()
        raise DSEError(
            f"design point {label!r} failed after {attempts['n']} attempt(s): "
            f"{type(exc).__name__}: {exc}\n"
            f"--- original traceback ---\n{trace}"
        ) from exc


def _evaluate_chunk(curve, chunk, max_retries):
    """Evaluate one chunk of (index, point) pairs: the unit of work a miss is.

    ``curve`` is the curve itself in process and its catalog name in a pool
    worker, which rebuilds it (or finds it pre-built when the pool forks).
    Returns ``(metrics, delta)``: one counter delta of every cache tier plus
    the chunk's recovery counters under ``"reliability"`` -- a delta, because
    one pool worker may serve several chunks and its cumulative counters
    would double-count.
    """
    if isinstance(curve, str):
        from repro.curves.catalog import get_curve

        curve = get_curve(curve)
    policy = RetryPolicy(max_retries=max_retries)
    reliability = _reliability_counters()
    before = _tier_delta()
    evaluated = [
        (index, _evaluate_point_resilient(curve, point, policy, reliability))
        for index, point in chunk
    ]
    delta = _tier_delta(before)
    delta["reliability"] = reliability.delta()
    return evaluated, delta


class _InlineExecutor:
    """The pool's ``submit`` in this process: the call runs on the spot and
    comes back as a completed future, so one supervisor serves both sides."""

    @staticmethod
    def submit(fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


_INLINE = _InlineExecutor()


@dataclass
class _Tally:
    """What one sweep's batches add up to, for its :class:`ExplorationReport`."""

    #: This process's cache counters when the sweep began.
    before: dict
    #: Cache-counter deltas of the pool's chunks (in-process work is already
    #: in this process's own delta).
    worker_stats: list = field(default_factory=list)
    chunks: int = 0
    distinct: int = 0
    cached: int = 0


class ParallelExplorer:
    """Shard design-point evaluation across processes; merge deterministically."""

    def __init__(self, curve, workers: int | None = None):
        self.curve = curve
        self.workers = (env_int(WORKERS_ENV, 1) if workers is None
                        else positive_int(workers, "workers", DSEError))
        self.max_retries = env_int(MAX_RETRIES_ENV, DEFAULT_MAX_RETRIES, minimum=0)
        self.eval_timeout = env_float(EVAL_TIMEOUT_ENV, None, exclusive=True)
        #: Metrics of the last sweep, in submission order (mirrors the points
        #: list; quarantined points leave a ``None`` slot).
        self.evaluated: list = []
        #: :class:`FailedPoint` records of the last sweep's quarantined points.
        self.failures: list = []
        #: Recovery counters of the last sweep.
        self.reliability = _reliability_counters()
        self.last_report: ExplorationReport | None = None
        # The pool is created lazily and reused across sweeps so worker-side
        # compile caches stay warm; ``close()`` (or the context manager) frees it.
        self._pool = None
        self._pool_unavailable = False

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExplorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------
    def _chunk_indexed(self, indexed) -> list:
        """Split indexed points into contiguous chunks (deterministic)."""
        size = max(1, -(-len(indexed) // (4 * self.workers)))
        return [indexed[i:i + size] for i in range(0, len(indexed), size)]

    @staticmethod
    def _dedup_points(points):
        """Group points by semantic compile identity (first occurrence wins).

        Returns ``(indexed, duplicates)``: the ``(index, point)`` pairs to
        evaluate, and ``(index, representative_index)`` pairs whose metrics
        can be derived from an already-evaluated twin.  Identity is the same
        material the compile cache keys on -- the variant-config and hardware
        cache keys -- so two points with different display names but identical
        content still share one compilation.
        """
        indexed: list = []
        duplicates: list = []
        seen: dict = {}
        for index, point in enumerate(points):
            identity = (point.variant_config.cache_key(), point.hw.cache_key())
            first = seen.get(identity)
            if first is None:
                seen[identity] = index
                indexed.append((index, point))
            else:
                duplicates.append((index, first))
        return indexed, duplicates

    def _quarantine(self, index, point, kind, attempts, exc, failed_by_index):
        failure = FailedPoint(
            label=point.display_label,
            error=f"{type(exc).__name__}: {exc}",
            kind=kind,
            attempts=attempts,
        )
        self.failures.append(failure)
        failed_by_index[index] = failure
        self.reliability.points_quarantined += 1

    def _submit_chunk(self, executor, chunk):
        curve = self.curve if executor is _INLINE else self.curve.name
        return executor.submit(_evaluate_chunk, curve, chunk, self.max_retries)

    def _ensure_pool(self):
        if self._pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            # Probe: a worker must actually start and answer.  Restricted
            # sandboxes fail *here* -- which must mean "run in process",
            # never "enter crash recovery" -- so from this point on a broken
            # pool is evidence of a genuine worker death.
            pool.submit(os.getpid).result(timeout=_POOL_PROBE_TIMEOUT_S)
            self._pool = pool
        return self._pool

    def _kill_pool(self):
        """Tear a broken/stalled pool down without waiting on its futures."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass

    def _chunk_timeout(self, chunk) -> float | None:
        if self.eval_timeout is None:
            return None
        return self.eval_timeout * max(1, len(chunk))

    def _harvest(self, payload, slots, worker_stats):
        """Slot a chunk's metrics and count its work once: its recovery
        counters join the sweep's; a pool chunk's cache delta joins
        ``worker_stats`` and the process-lifetime worker totals, while an
        in-process chunk's (``worker_stats`` is ``None``) is already in this
        process's own delta."""
        evaluated, delta = payload
        for index, metrics in evaluated:
            slots[index] = metrics
        self.reliability.merge(delta.pop("reliability"))
        if worker_stats is not None:
            worker_stats.append(delta)
            _merge_tiers(_WORKER_TOTALS, delta)

    def _dispatch_round(self, chunks, slots, worker_stats):
        """Submit every chunk to the pool; harvest results; survive worker deaths.

        Returns the ``(index, point)`` pairs of chunks that did not complete
        because a worker crashed or timed out -- the caller re-runs those in
        isolation to attribute the fault to a single point.  A ``DSEError``
        raised *inside* a worker (persistent evaluation failure) propagates:
        that is a diagnosable point failure, not a dead worker.
        """
        if not chunks:
            return []
        pool = self._ensure_pool()
        submitted = [(self._submit_chunk(pool, chunk), chunk) for chunk in chunks]
        survivors: list = []
        broken = False
        try:
            for future, chunk in submitted:
                if broken:
                    # The pool is gone; keep whatever finished before it broke
                    # and queue the rest for isolation.
                    if future.done() and future.exception() is None:
                        self._harvest(future.result(), slots, worker_stats)
                    else:
                        survivors.append(chunk)
                    continue
                try:
                    payload = future.result(timeout=self._chunk_timeout(chunk))
                except (BrokenProcessPool, WorkerCrashError):
                    broken = True
                    self.reliability.worker_crashes += 1
                    survivors.append(chunk)
                except FuturesTimeout:
                    broken = True
                    self.reliability.eval_timeouts += 1
                    survivors.append(chunk)
                else:
                    self._harvest(payload, slots, worker_stats)
        except BaseException:
            # A worker-raised DSEError (or a local error): do not leave the
            # remaining futures running a sweep we are abandoning.
            for future, _ in submitted:
                future.cancel()
            raise
        if broken:
            self._kill_pool()
            self.reliability.chunks_resubmitted += len(survivors)
        return [pair for chunk in survivors for pair in chunk]

    def _isolate_points(self, pairs, slots, worker_stats, failed_by_index,
                        inline: bool):
        """Run points one at a time; quarantine repeat crashers: the supervisor.

        In process every miss runs here directly; in the pool a chunk only
        lands here after its worker died, so each of its points is
        individually re-submitted: innocent bystanders complete, and the point
        that actually kills workers is identified.  Either way a crash (or, in
        the pool, a timeout) is a strike, and ``QUARANTINE_AFTER`` strikes
        record the point as failed rather than retrying it forever.
        """
        for index, point in pairs:
            strikes = 0
            while True:
                executor = _INLINE if inline else self._ensure_pool()
                future = self._submit_chunk(executor, [(index, point)])
                try:
                    payload = future.result(timeout=self._chunk_timeout([point]))
                except (BrokenProcessPool, WorkerCrashError, FuturesTimeout) as exc:
                    if not inline:
                        self._kill_pool()
                    strikes += 1
                    if isinstance(exc, FuturesTimeout):
                        kind = "timeout"
                        self.reliability.eval_timeouts += 1
                    else:
                        kind = "crash"
                        self.reliability.worker_crashes += 1
                    if strikes >= QUARANTINE_AFTER:
                        self._quarantine(index, point, kind, strikes, exc,
                                         failed_by_index)
                        break
                else:
                    self._harvest(payload, slots, None if inline else worker_stats)
                    break

    def _run_misses(self, misses, slots, failed_by_index, use_pool, tally):
        """Evaluate the points no cache tier answered, in the pool or in process.

        Pool deaths and timeouts are healed along the way: dead workers'
        chunks are resubmitted point by point and repeat offenders are
        quarantined (their slots stay ``None``).  A pool that cannot be
        created (restricted sandbox, no ``/dev/shm``) is remembered, and what
        it left undone runs in process, now and on every later sweep.
        """
        if use_pool and not self._pool_unavailable:
            chunks = self._chunk_indexed(misses)
            try:
                pending = self._dispatch_round(chunks, slots, tally.worker_stats)
                tally.chunks += len(chunks)
                self.reliability.points_isolated += len(pending)
                self._isolate_points(pending, slots, tally.worker_stats,
                                     failed_by_index, inline=False)
                return
            except (OSError, ImportError, FuturesTimeout, BrokenProcessPool):
                self._pool_unavailable = True
                self._kill_pool()
                misses = [(index, point) for index, point in misses
                          if slots[index] is None and index not in failed_by_index]
        self._isolate_points(misses, slots, None, failed_by_index, inline=True)

    def _begin_sweep(self) -> _Tally:
        self.failures = []
        self.reliability.reset()
        return _Tally(before=_tier_delta())

    def _report(self, tally, points, distinct, objective) -> ExplorationReport:
        """The sweep's bookkeeping: this process's cache delta plus the pool's."""
        merged: dict = {}
        for delta in (_tier_delta(tally.before), *tally.worker_stats):
            _merge_tiers(merged, delta)
        return ExplorationReport(
            points=points,
            distinct_points=distinct,
            cached_points=tally.cached,
            workers=self.workers,
            chunks=tally.chunks,
            objective=objective,
            cache_stats={name: counters.delta() for name, counters in merged.items()},
            failed=len(self.failures),
            reliability=self.reliability.snapshot(),
        )

    def _evaluate_batch(self, points, tally) -> list:
        """The one evaluation path under :meth:`explore` and :meth:`explore_pareto`.

        Dedup by compile identity, answer cached points here, hand the misses
        to the supervisor, fill duplicates from their representatives.
        Returns the metrics in submission order; chunk, distinct- and
        cached-point counts and pool cache deltas accumulate on ``tally``.
        """
        use_pool = (self.workers > 1 and len(points) > 1
                    and self.curve.name in CURVE_SPECS)
        indexed, duplicates = self._dedup_points(points)
        slots: list = [None] * len(points)
        # A point whose kernel the memory or disk tier holds costs a lookup,
        # so the parent answers it (no evaluation is traversed:
        # ``worker.evaluate`` does not fire); a failed or corrupt read is a
        # miss.  Only misses are evaluated -- none means no pool.
        misses = []
        for index, point in indexed:
            slots[index] = _evaluate(self.curve, point, cached_kernel)
            if slots[index] is None:
                misses.append((index, point))
        tally.distinct += len(indexed)
        tally.cached += len(indexed) - len(misses)
        failed_by_index: dict = {}
        self._run_misses(misses, slots, failed_by_index, use_pool, tally)
        for index, representative in duplicates:
            rep_metrics = slots[representative]
            if rep_metrics is not None:
                slots[index] = replace(rep_metrics,
                                       label=points[index].display_label)
            elif representative in failed_by_index:
                # The representative was quarantined: its duplicates fail the
                # same way, each recorded under its own label.
                rep_failure = failed_by_index[representative]
                self.failures.append(
                    replace(rep_failure, label=points[index].display_label)
                )
        return slots

    @staticmethod
    def _canonical_distinct(points) -> list:
        """Deduplicated points in a canonical, enumeration-order-free order.

        The Pareto contract promises a bit-identical frontier for any input
        permutation, so unlike :meth:`_dedup_points` (first occurrence wins)
        the representative of duplicate identities is the one with the
        smallest display label, and the result is sorted by (label, identity).
        """
        by_identity: dict = {}
        for point in points:
            identity = (point.variant_config.cache_key(), point.hw.cache_key())
            current = by_identity.get(identity)
            if current is None or point.display_label < current.display_label:
                by_identity[identity] = point
        return sorted(
            by_identity.values(),
            key=lambda p: (p.display_label,
                           repr((p.variant_config.cache_key(), p.hw.cache_key()))),
        )

    # -- public API --------------------------------------------------------------
    def explore(self, points, objective="throughput") -> list:
        """Evaluate every point; returns metrics sorted best-first by the objective.

        Equal-score points order stably by their label, so the ranked output
        is deterministic even across tied designs.  ``self.evaluated`` retains
        the metrics in submission order (one entry per design point; a
        quarantined point leaves ``None`` and a ``self.failures`` record) and
        ``self.last_report`` the sweep's bookkeeping.
        """
        score = resolve_objective(objective)
        points = list(points)
        tally = self._begin_sweep()
        self.evaluated = self._evaluate_batch(points, tally)
        self.last_report = self._report(tally, len(points), tally.distinct,
                                        objective_name(objective))
        ranked = [m for m in self.evaluated if m is not None]
        return sorted(ranked, key=lambda m: (-score(m), m.label))

    def explore_pareto(self, points, objectives=("throughput", "area"),
                       budget=None) -> ParetoResult:
        """Multi-objective sweep: extract the Pareto frontier of the space.

        ``objectives`` names the axes (see :func:`repro.list_objectives`).
        ``budget=None`` evaluates the whole deduplicated space; an integer
        ``k`` evaluates the ``min(k, n)`` best points by proxy rank
        (:func:`repro.dse.search.proxy_ranking`) in one batch.

        The returned :class:`~repro.dse.pareto.ParetoResult` is bit-identical
        for any worker count, any cache state and any input point order: the
        space is deduplicated and canonically ordered before it is ranked,
        and the ranking orders only by canonical keys and proxy scores.
        ``self.evaluated`` retains the actually-evaluated metrics and
        ``self.last_report`` the sweep's bookkeeping (``distinct_points`` is
        the deduplicated space, ``points`` the raw input count).
        """
        scorers = resolve_objectives(objectives)
        budget = validate_budget(budget)
        points = list(points)
        tally = self._begin_sweep()
        distinct = self._canonical_distinct(points)
        chosen = distinct
        if budget is not None and budget < len(distinct):
            ranking = proxy_ranking(self.curve, distinct, scorers)
            chosen = [distinct[i] for i in sorted(ranking[:budget])]
        # Quarantined points surface as None slots: the frontier is built
        # from the survivors.
        self.evaluated = [m for m in self._evaluate_batch(chosen, tally) if m is not None]
        result = pareto_result(self.evaluated, scorers, evaluated=len(self.evaluated),
                               total_points=len(distinct))
        self.last_report = self._report(tally, len(points), len(distinct),
                                        "+".join(result.objectives))
        return result

    def best(self, points, objective="throughput"):
        ranked = self.explore(points, objective)
        if not ranked:
            raise DSEError(EMPTY_SPACE_MESSAGE)
        return ranked[0]
