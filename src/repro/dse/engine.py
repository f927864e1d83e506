"""Parallel, cache-aware design-space exploration engine.

The co-design loop of Section 3.6 -- compile, schedule, simulate and price every
design point -- is embarrassingly parallel: no point depends on any other.  The
:class:`ParallelExplorer` exploits that by sharding a design space across a
``ProcessPoolExecutor`` while keeping the result stream fully deterministic.

Knobs
-----
``workers``
    Number of worker processes.  ``workers=1`` (the default) runs the classic
    in-process loop and is *bit-identical* to the historical sequential
    explorer; ``workers=N`` shards the space into chunks, evaluates them in
    parallel and merges results back into submission order before ranking, so
    the ranked output is independent of worker count and scheduling.  The
    default can be set globally with the ``FINESSE_DSE_WORKERS`` environment
    variable (used by the evaluation runner's ``--workers`` flag).
``chunk_size``
    Points per dispatched work unit.  Defaults to a balanced
    ``ceil(len(points) / (4 * workers))`` so stragglers (large kernels) do not
    serialise the sweep.
``max_retries`` / ``eval_timeout``
    Failure handling: the per-point retry budget for transient evaluation
    failures (``FINESSE_DSE_MAX_RETRIES``, default 2; crash recovery is
    separate) and the per-point evaluation timeout in seconds
    (``FINESSE_DSE_EVAL_TIMEOUT``, default off).  The timeout is enforced on
    the parallel path only -- a chunk of k points gets ``k * eval_timeout``;
    sequential evaluation cannot be preempted.
evaluation knobs
    Every other keyword (``n_cores``, ``technology``, ``do_assemble``,
    ``batch_size``, ``split_accumulators``, ``final_exp_mode``,
    ``service_profile``, the cross-batch depth...) is a field of
    :class:`repro.dse.spec.EvalSpec`, documented on
    :func:`repro.dse.explorer.evaluate_design_point`; the explorer folds them
    into one validated spec at construction -- a bad batch size or policy
    raises there, not halfway through a sharded sweep inside a worker -- and
    ships that spec verbatim to every worker, so sharded sweeps score
    identically to sequential ones.

Caching
-------
Every evaluation funnels through :func:`repro.compiler.pipeline.compile_pairing`
and therefore through the content-addressed compile cache
(:mod:`repro.compiler.cache`): identical (curve, variant config, hw model)
combinations compile exactly once per process, and a repeated sweep over the
same design points performs zero recompilations.  After every sweep the engine
stores that sweep's per-stage cache counters (local delta plus all worker
deltas) in ``last_report.cache_stats``.

Three mechanisms extend that guarantee across process boundaries:

* **Dedup at dispatch** -- before sharding, points are grouped by their
  semantic compile identity (variant-config and hardware cache keys), only the
  first occurrence of each identity is dispatched, and duplicate slots are
  filled from the representative's metrics (relabelled per point).  A cold
  ``workers=N`` sweep therefore compiles each *distinct* point exactly once
  across the whole pool, no matter how chunks land on workers.
* **Disk tier** -- when ``FINESSE_CACHE_DIR`` is exported (see
  :mod:`repro.compiler.store`), every worker inherits it and shares one
  disk-backed artifact store, so sweeps in *fresh* processes (new CLI runs,
  later CI jobs) are served from disk instead of recompiling; the shared
  ``disk`` counters surface in ``last_report.cache_stats``.
* **Cached points are answered before dispatch** -- a distinct point whose
  kernels are all in the memory or disk tier is priced by the parent from the
  recorded facts (``last_report.cached_points``); only the rest is chunked, so
  a fully warm ``workers=N`` sweep builds no pool at all (``chunks == 0``).

Worker processes reconstruct the curve from its catalog name (curve objects
hold deeply nested field towers that are expensive to ship), so multi-process
exploration is only attempted for catalog curves; anything else, or an
environment in which process pools cannot be created, falls back to the
sequential path transparently.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.compiler.pipeline import cached_kernel, compile_cache_stats, is_pairing_compiled
from repro.config import (
    BUDGET_ENV,
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
from repro.dse.explorer import KernelNotCached, _evaluate_spec
from repro.dse.objectives import objective_name, resolve_objective, resolve_objectives
from repro.dse.pareto import ParetoResult, pareto_result
from repro.dse.spec import EvalSpec
from repro.errors import DSEError, WorkerCrashError
from repro.reliability import faults as _faults
from repro.reliability.retry import RetryPolicy, call_with_retries
from repro.reliability.stats import FailedPoint, ReliabilityStats

#: Default retry budget: two retries heal every single- or double-transient
#: fault without materially delaying a genuinely broken sweep.
DEFAULT_MAX_RETRIES = 2

#: A design point whose evaluation crashes its worker this many times is
#: quarantined (recorded in ``ParallelExplorer.failures``) instead of being
#: retried forever.
QUARANTINE_AFTER = 2

#: How long the pool-creation probe waits for the first worker to answer
#: before the pool is declared unavailable (sequential fallback).
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
    #: Chunks dispatched to the pool (0 on a sweep the cache tiers answered).
    chunks: int
    objective: str
    #: Semantically distinct design points (duplicates are filled from theirs).
    distinct_points: int = 0
    #: Distinct points the parent answered from a cache tier without dispatch.
    cached_points: int = 0
    #: Merged compile-cache statistics (this process plus every worker).
    cache_stats: dict = field(default_factory=dict)
    #: Points quarantined by this sweep (crashed workers, timeouts).
    failed: int = 0
    #: Recovery counters of this sweep (``ReliabilityStats.snapshot()``).
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


_COUNTERS = ("hits", "misses", "stores")

#: Process-lifetime totals of the compile work done *inside worker pools*
#: (the parent's ``compile_cache_stats`` cannot see it).
_WORKER_TOTALS: dict = {}


def worker_cache_stats() -> dict:
    """Accumulated per-stage cache counters of every worker sweep so far."""
    return {name: dict(stats) for name, stats in _WORKER_TOTALS.items()}


def _stats_delta(after: dict, before: dict) -> dict:
    """Per-stage counter difference between two ``compile_cache_stats`` snapshots."""
    return {
        name: {
            counter: stats.get(counter, 0) - before.get(name, {}).get(counter, 0)
            for counter in _COUNTERS
        }
        for name, stats in after.items()
    }


def _evaluate_point_resilient(curve, point, spec, policy, counters):
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
        return _evaluate_spec(curve, point, spec)

    def on_retry(attempt_no, exc, delay):
        attempts["n"] += 1
        counters["retries"] = counters.get("retries", 0) + 1
        counters["backoff_s"] = counters.get("backoff_s", 0.0) + delay

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


def _evaluate_chunk(curve_name, chunk, spec, max_retries):
    """Worker entry point: evaluate one chunk of (index, point) pairs.

    Runs in a separate process; the curve is rebuilt (or found pre-built when
    the pool forks) from the catalog.  The compile-cache counter *delta* of the
    chunk is returned alongside the metrics -- a delta, because one pool worker
    may serve several chunks and its cumulative counters would double-count --
    plus this chunk's retry counters for the parent's ``ReliabilityStats``.
    """
    from repro.curves.catalog import get_curve

    curve = get_curve(curve_name)
    policy = RetryPolicy(max_retries=max_retries)
    counters: dict = {}
    before = compile_cache_stats()
    evaluated = [
        (index, _evaluate_point_resilient(curve, point, spec, policy, counters))
        for index, point in chunk
    ]
    return evaluated, _stats_delta(compile_cache_stats(), before), counters


class ParallelExplorer:
    """Shard design-point evaluation across processes; merge deterministically."""

    def __init__(self, curve, workers: int | None = None,
                 chunk_size: int | None = None, max_retries: int | None = None,
                 eval_timeout: float | None = None, **knobs):
        self.curve = curve
        self.workers = (env_int(WORKERS_ENV, 1) if workers is None
                        else positive_int(workers, "workers", DSEError))
        self.chunk_size = (None if chunk_size is None
                           else positive_int(chunk_size, "chunk_size", DSEError))
        #: The sweep's evaluation knobs, validated once.
        self.spec = EvalSpec(**knobs)
        self.max_retries = (
            env_int(MAX_RETRIES_ENV, DEFAULT_MAX_RETRIES, minimum=0)
            if max_retries is None else validate_max_retries(max_retries)
        )
        self.eval_timeout = (
            env_float(EVAL_TIMEOUT_ENV, None, exclusive=True)
            if eval_timeout is None else validate_eval_timeout(eval_timeout)
        )
        self.retry_policy = RetryPolicy(max_retries=self.max_retries)
        #: Metrics of the last sweep, in submission order (mirrors the points
        #: list; quarantined points leave a ``None`` slot).
        self.evaluated: list = []
        #: :class:`FailedPoint` records of the last sweep's quarantined points.
        self.failures: list = []
        #: Recovery counters of the last sweep.
        self.reliability = ReliabilityStats()
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
        size = self.chunk_size or max(1, -(-len(indexed) // (4 * self.workers)))
        return [indexed[i:i + size] for i in range(0, len(indexed), size)]

    @staticmethod
    def _dedup_points(points):
        """Group points by semantic compile identity (first occurrence wins).

        Returns ``(indexed, duplicates)``: the ``(index, point)`` pairs to
        dispatch, and ``(index, representative_index)`` pairs whose metrics can
        be derived from an already-dispatched twin.  Identity is the same
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

    def _evaluate_point_local(self, index, point, failed_by_index) -> object:
        """In-process evaluation with the same healing contract as the pool.

        Simulated crashes (:class:`WorkerCrashError`) are retried once and
        quarantined on the second strike, mirroring the pool supervisor, so
        ``workers=1`` chaos runs exercise identical semantics.
        """
        counters: dict = {}
        crashes = 0
        while True:
            try:
                metrics = _evaluate_point_resilient(
                    self.curve, point, self.spec, self.retry_policy, counters,
                )
            except WorkerCrashError as exc:
                crashes += 1
                self.reliability.worker_crashes += 1
                if crashes >= QUARANTINE_AFTER:
                    self._quarantine(index, point, "crash", crashes, exc,
                                     failed_by_index)
                    metrics = None
                else:
                    continue
            self.reliability.merge_counters(counters)
            return metrics

    def _evaluate_sequential(self, points) -> list:
        failed_by_index: dict = {}
        return [
            self._evaluate_point_local(index, point, failed_by_index)
            for index, point in enumerate(points)
        ]

    def _submit_chunk(self, pool, chunk):
        return pool.submit(_evaluate_chunk, self.curve.name, chunk, self.spec,
                           self.max_retries)

    def _ensure_pool(self):
        if self._pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            # Probe: a worker must actually start and answer.  Restricted
            # sandboxes fail *here* -- which must mean "fall back to
            # sequential", never "enter crash recovery" -- so from this point
            # on a broken pool is evidence of a genuine worker death.
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
        evaluated, stats, counters = payload
        for index, metrics in evaluated:
            slots[index] = metrics
        worker_stats.append(stats)
        self.reliability.merge_counters(counters)

    def _dispatch_round(self, chunks, slots, worker_stats):
        """Submit every chunk; harvest results; survive worker deaths.

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
                except BrokenProcessPool:
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

    def _isolate_points(self, pairs, slots, worker_stats, failed_by_index):
        """Re-run crash-suspect points one at a time; quarantine repeaters.

        A chunk only lands here after its worker died, so each of its points
        is individually re-submitted: innocent bystanders complete, and the
        point that actually kills workers is identified and -- after
        ``QUARANTINE_AFTER`` strikes -- recorded as failed rather than
        retried forever.
        """
        self.reliability.points_isolated += len(pairs)
        for index, point in pairs:
            strikes = 0
            while True:
                pool = self._ensure_pool()
                future = self._submit_chunk(pool, [(index, point)])
                try:
                    payload = future.result(timeout=self._chunk_timeout([point]))
                except (BrokenProcessPool, FuturesTimeout) as exc:
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
                    self._harvest(payload, slots, worker_stats)
                    break

    def _evaluate_parallel(self, points):
        """Answer cached points here, fan the rest out to a process pool in
        chunks; reassemble in submission order.

        Returns ``(metrics, chunks, worker_stats, distinct_count,
        cached_count)`` or ``None`` when the pool cannot be used (non-catalog
        curve, restricted environment), in which case the caller falls back to
        the sequential path.  Worker deaths and timeouts are healed along the
        way: dead workers' chunks are resubmitted point-by-point and repeat
        offenders are quarantined (their slots stay ``None``).
        """
        if self.curve.name not in CURVE_SPECS or self._pool_unavailable:
            return None
        indexed, duplicates = self._dedup_points(points)
        slots: list = [None] * len(points)
        # A point whose kernels the memory or disk tier holds costs a lookup,
        # so the parent answers it before anything is chunked (no evaluation
        # is traversed: ``worker.evaluate`` does not fire); a failed or corrupt
        # read is a miss.  The pool sees real work only -- none means no pool.
        misses = []
        for index, point in indexed:
            try:
                slots[index] = _evaluate_spec(self.curve, point, self.spec, cached_kernel)
            except KernelNotCached:
                misses.append((index, point))
        chunks = self._chunk_indexed(misses)
        worker_stats: list = []
        failed_by_index: dict = {}
        try:
            pending = self._dispatch_round(chunks, slots, worker_stats)
            if pending:
                self._isolate_points(pending, slots, worker_stats, failed_by_index)
        except (OSError, PermissionError, ImportError, FuturesTimeout,
                BrokenProcessPool):
            # Process pools need /dev/shm semaphores and fork/spawn rights;
            # sandboxed CI runners sometimes deny both (the creation probe
            # fails).  Remember the failure and serve every subsequent sweep
            # sequentially.
            self._pool_unavailable = True
            self._kill_pool()
            return None
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
        return slots, chunks, worker_stats, len(indexed), len(indexed) - len(misses)

    @staticmethod
    def _merge_cache_stats(local_delta, worker_stats) -> dict:
        """This sweep's counters: local delta plus every worker chunk delta."""
        merged = {name: dict(stats) for name, stats in local_delta.items()}
        for stats in worker_stats:
            for name, counters in stats.items():
                entry = merged.setdefault(name, dict.fromkeys(_COUNTERS, 0))
                for counter in _COUNTERS:
                    entry[counter] = entry.get(counter, 0) + counters.get(counter, 0)
        return merged

    def _evaluate_batch(self, points, worker_stats_acc):
        """Evaluate one batch of points (parallel when possible).

        The shared path under :meth:`explore` and :meth:`explore_pareto`:
        returns ``(metrics, n_chunks, distinct, cached)`` with metrics in
        submission order, appending worker cache deltas to
        ``worker_stats_acc`` and the process-lifetime totals.
        """
        parallel_result = None
        if self.workers > 1 and len(points) > 1:
            parallel_result = self._evaluate_parallel(points)
        if parallel_result is None:
            return (self._evaluate_sequential(points), 0,
                    len(self._dedup_points(points)[0]), 0)
        slots, chunks, worker_stats, distinct, cached = parallel_result
        worker_stats_acc.extend(worker_stats)
        for stats in worker_stats:
            for name, counters in stats.items():
                entry = _WORKER_TOTALS.setdefault(name, dict.fromkeys(_COUNTERS, 0))
                for counter in _COUNTERS:
                    entry[counter] += counters.get(counter, 0)
        return slots, len(chunks), distinct, cached

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
        self.failures = []
        self.reliability.reset()
        stats_before = compile_cache_stats()
        worker_stats: list = []
        self.evaluated, n_chunks, distinct, cached = self._evaluate_batch(
            points, worker_stats)
        local_delta = _stats_delta(compile_cache_stats(), stats_before)
        self.last_report = ExplorationReport(
            points=len(points),
            distinct_points=distinct,
            cached_points=cached,
            workers=self.workers,
            chunks=n_chunks,
            objective=objective_name(objective),
            cache_stats=self._merge_cache_stats(local_delta, worker_stats),
            failed=len(self.failures),
            reliability=self.reliability.snapshot(),
        )
        ranked = [m for m in self.evaluated if m is not None]
        return sorted(ranked, key=lambda m: (-score(m), m.label))

    def explore_pareto(self, points, objectives=("throughput", "area"),
                       strategy="exhaustive", budget=None) -> ParetoResult:
        """Multi-objective sweep: extract the Pareto frontier of the space.

        ``objectives`` names the axes (see :func:`repro.list_objectives`),
        ``strategy`` picks how much of the space is pushed through the real
        tool-chain (:mod:`repro.dse.search`: ``"exhaustive"``,
        ``"successive_halving"``, ``"local"``) and ``budget`` caps the full
        evaluations of the guided strategies (``None`` = half the space).

        The returned :class:`~repro.dse.pareto.ParetoResult` is bit-identical
        for any worker count and any input point order: the space is
        deduplicated and canonically ordered before the strategy sees it, and
        strategies themselves only order candidates by canonical keys.
        ``self.evaluated`` retains the actually-evaluated metrics and
        ``self.last_report`` the sweep's bookkeeping (``distinct_points`` is
        the deduplicated space, ``points`` the raw input count).
        """
        from repro.dse.search import SearchContext, resolve_strategy, validate_budget

        scorers = resolve_objectives(objectives)
        run = resolve_strategy(strategy)
        budget = validate_budget(
            budget if budget is not None else env_int(BUDGET_ENV, None))
        points = list(points)
        self.failures = []
        self.reliability.reset()
        distinct = self._canonical_distinct(points)
        strategy_name = strategy if isinstance(strategy, str) else getattr(
            strategy, "__name__", "custom")
        if not distinct:
            result = pareto_result([], scorers, evaluated=0, total_points=0,
                                   strategy=strategy_name)
            self.evaluated = []
            self.last_report = ExplorationReport(
                points=0, workers=self.workers, chunks=0,
                objective="+".join(result.objectives))
            return result
        stats_before = compile_cache_stats()
        worker_stats: list = []
        evaluated_metrics: list = []
        chunk_total = cached_total = 0

        def evaluate(indices):
            nonlocal chunk_total, cached_total
            batch = [distinct[i] for i in indices]
            metrics, n_chunks, _, cached = self._evaluate_batch(batch, worker_stats)
            chunk_total += n_chunks
            cached_total += cached
            # Quarantined points surface as None slots: the frontier is built
            # from the survivors, and strategies skip the holes.
            evaluated_metrics.extend(m for m in metrics if m is not None)
            return metrics

        def is_cached(index):
            point = distinct[index]
            if self.spec.batch_size is not None:
                return False
            return any(
                is_pairing_compiled(self.curve, hw=point.hw,
                                    variant_config=point.variant_config,
                                    do_assemble=self.spec.do_assemble,
                                    final_exp_mode=mode)
                for mode in self.spec.final_exp_modes
            )

        ctx = SearchContext(
            curve=self.curve, points=distinct, scorers=scorers, budget=budget,
            evaluate=evaluate, is_cached=is_cached, spec=self.spec,
        )
        run(ctx)
        local_delta = _stats_delta(compile_cache_stats(), stats_before)
        result = pareto_result(
            evaluated_metrics, scorers, evaluated=len(evaluated_metrics),
            total_points=len(distinct), strategy=strategy_name,
        )
        self.evaluated = evaluated_metrics
        self.last_report = ExplorationReport(
            points=len(points),
            distinct_points=len(distinct),
            cached_points=cached_total,
            workers=self.workers,
            chunks=chunk_total,
            objective="+".join(result.objectives),
            cache_stats=self._merge_cache_stats(local_delta, worker_stats),
            failed=len(self.failures),
            reliability=self.reliability.snapshot(),
        )
        return result

    def best(self, points, objective="throughput"):
        ranked = self.explore(points, objective)
        if not ranked:
            raise DSEError(EMPTY_SPACE_MESSAGE)
        return ranked[0]
