#!/usr/bin/env python
"""Chaos harness: seeded fault storms against the full stack, results compared
bit-for-bit with a fault-free baseline.

Three storms, all driven through the public ``FINESSE_FAULTS`` grammar:

* **store corruption** -- torn writes and garbage reads against a dedicated
  on-disk artifact store while a sweep compiles through it, then a pass that
  flips one bit in every read of the full store: a flip in an entry's head
  is a miss, one in its bulk surfaces when a served kernel's schedule and
  program are first read, which must rebuild them to the clean compile;
* **worker crash** -- a pool worker killed mid-chunk (``os._exit``) at
  ``--workers`` parallelism, plus the same supervisor run in process
  (``workers=1``);
* **fused-batch failure** -- the verification service's fused RLC path made
  to blow up until the circuit breaker trips to exact per-request checks.

The harness *fails* (exit 1) unless every storm converges to the exact
ranked results / Pareto frontier / verdicts of the fault-free run -- the
self-healing acceptance bar -- and prints the recovery counters so a CI job
summary shows what actually fired.

Usage::

    python tools/chaos.py [--seed N] [--workers N] [--summary FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.compiler.pipeline import (  # noqa: E402
    cached_kernel,
    clear_caches,
    compile_kernel,
)
from repro.compiler.store import (  # noqa: E402
    CACHE_DIR_ENV,
    active_store,
    configure_store,
    reset_store_state,
)
from repro.curves.catalog import get_curve  # noqa: E402
from repro.dse.engine import ParallelExplorer  # noqa: E402
from repro.dse.explorer import design_kernel  # noqa: E402
from repro.dse.space import design_points, named_variant_configs  # noqa: E402
from repro.hw.presets import figure10_models  # noqa: E402
from repro.obs import Counters  # noqa: E402
from repro.reliability.faults import FAULTS_ENV, configure_faults, configure_faults_from_env  # noqa: E402
from repro.service import ServiceConfig, VerificationService  # noqa: E402
from repro.service.workloads import make_bls_requests, make_groth16_requests  # noqa: E402

CURVE = "TOY-BN42"


def _set_faults(spec: str | None) -> None:
    """Arm (or disarm) injection in this process AND for pool workers.

    Forked workers inherit the parent's injector; spawned ones re-read the
    environment at ``import repro`` -- setting both covers either start
    method.
    """
    if spec is None:
        os.environ.pop(FAULTS_ENV, None)
        configure_faults(None)
    else:
        os.environ[FAULTS_ENV] = spec
        configure_faults_from_env()


def _toy_points(curve):
    variants = list(named_variant_configs().values())
    models = figure10_models(curve.params.p.bit_length())[:2]
    return design_points(variants, models)


def _ranked_key(ranked):
    return [(m.label, m.throughput_ops, m.area_mm2, m.cycles) for m in ranked]


def _sweep(curve, points, workers):
    with ParallelExplorer(curve, workers=workers) as explorer:
        ranked = explorer.explore(points, objective="throughput")
        # Each explore* call resets the explorer's reliability counters and
        # failure list; fold both sweeps' numbers together for the report.
        explore_report = explorer.last_report
        explore_failures = [f.describe() for f in explorer.failures]
        pareto = explorer.explore_pareto(points, ("throughput", "area"))
        reports = (explore_report, explorer.last_report)
        failures = explore_failures + [f.describe() for f in explorer.failures]
    counters = Counters(*explore_report.reliability)
    disk = Counters(*explore_report.cache_stats["disk"])
    for report in reports:
        counters.merge(report.reliability)
        disk.merge(report.cache_stats["disk"])
    return {
        "ranked": _ranked_key(ranked),
        "frontier": list(pareto.labels()),
        "frontier_scores": list(pareto.frontier_scores),
        "counters": counters.snapshot(),
        "disk": disk.snapshot(),
        "failures": failures,
    }


def _service_verdicts(curve, seed, config=None):
    traffic = (make_groth16_requests(curve, 3, seed=seed, forge_fraction=0.34)
               + make_bls_requests(curve, 3, seed=seed + 1, forge_fraction=0.34))
    config = config if config is not None else ServiceConfig(
        max_batch=3, deadline_ms=30.0, breaker_threshold=2,
        breaker_cooldown_ms=60_000.0)

    async def scenario():
        async with VerificationService(curve, config,
                                       rng=random.Random(seed)) as service:
            futures = [service.submit(request) for request, _ in traffic]
            verdicts = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=120.0)
            return verdicts, service.metrics.snapshot()["reliability"]

    verdicts, reliability = asyncio.run(scenario())
    expected = [expected for _, expected in traffic]
    return verdicts, expected, reliability


class Chaos:
    def __init__(self, seed, workers):
        self.seed = seed
        self.workers = workers
        self.curve = get_curve(CURVE)
        self.points = _toy_points(self.curve)
        self.rows = []          # (storm, fired-counters, verdict)
        self.failed = False

    def check(self, storm, counters, ok, detail=""):
        verdict = "match" if ok else f"MISMATCH {detail}"
        fired = {k: v for k, v in counters.items() if v} if counters else {}
        self.rows.append((storm, fired, verdict))
        status = "ok " if ok else "FAIL"
        print(f"[{status}] {storm}: {verdict}; recovery counters: {fired or '(none)'}")
        if not ok:
            self.failed = True

    # -- storms ------------------------------------------------------------------
    def baseline(self):
        _set_faults(None)
        self.clean = _sweep(self.curve, self.points, workers=1)
        verdicts, expected, _ = _service_verdicts(self.curve, self.seed)
        self.clean_verdicts = verdicts
        self.check("baseline (fault-free)", {}, verdicts == expected)

    def storm_store_corruption(self):
        # A dedicated disk store under injected torn writes + garbage reads:
        # corruption must read as a miss (recompile), never as a wrong kernel.
        with tempfile.TemporaryDirectory(prefix="chaos-store-") as tmp:
            os.environ[CACHE_DIR_ENV] = os.path.join(tmp, "store")
            configure_store(os.path.join(tmp, "store"))
            for workers in (1, self.workers):
                clear_caches()      # force real compiles through the store
                store = configure_store(os.path.join(tmp, "store"))
                store.clear()
                _set_faults(
                    f"store.write:torn@1*2;store.read:garbage@1*2;"
                    f"seed={self.seed}")
                # Warm pass populates the store (first two writes torn);
                # the cold pass re-reads it (first two reads garbage, torn
                # entries fail their digest) -- every corruption must read
                # as a miss-plus-recompile, never as a wrong kernel.
                warm = _sweep(self.curve, self.points, workers=workers)
                clear_caches()
                result = _sweep(self.curve, self.points, workers=workers)
                _set_faults(None)
                disk = result["disk"]
                counters = dict(result["counters"])
                counters["store_corrupt"] = disk["corrupt"]
                counters["store_write_errors"] = disk["errors"]
                fired = (disk["corrupt"] + disk["errors"]) >= 1
                ok = (warm["ranked"] == self.clean["ranked"]
                      and result["ranked"] == self.clean["ranked"]
                      and result["frontier"] == self.clean["frontier"]
                      and not result["failures"] and not warm["failures"]
                      and fired)
                self.check(
                    f"store corruption (workers={workers})",
                    counters, ok,
                    detail=(f"failures={result['failures']}" if result["failures"]
                            else "" if fired else "(corruption never fired)"))
                self._store_flip_pass(workers)
            os.environ.pop(CACHE_DIR_ENV, None)
            reset_store_state()

    def _store_flip_pass(self, workers):
        # The store is full: every read now flips one seeded bit.  A flip in
        # an entry's head is a miss (the point is recompiled); one in its bulk
        # is a hit that prices the point from the head, and the kernel's bulk
        # fails its digest when first read, where it must be rebuilt.
        clear_caches()      # memory tier only
        _set_faults(f"store.read:flip@1*inf;seed={self.seed}")
        result = _sweep(self.curve, self.points, workers=workers)
        _set_faults(None)
        store = active_store()
        corrupt_before = store.stats.corrupt
        read = matched = 0
        for point in self.points:
            spec = design_kernel(point)
            served = cached_kernel(self.curve, spec)
            if served.bulk.materialised:
                continue
            clean = compile_kernel(self.curve, spec, use_cache=False)
            read += 1
            matched += (served.program == clean.program and all(
                getattr(served.schedule, name) == getattr(clean.schedule, name)
                for name in ("banks", "order", "bundle_sizes", "planned_cycles")))
        counters = dict(result["counters"], store_corrupt=result["disk"]["corrupt"],
                        kernels_read=read,
                        bulks_rebuilt=store.stats.corrupt - corrupt_before)
        fired = counters["bulks_rebuilt"] >= 1
        ok = (result["ranked"] == self.clean["ranked"]
              and result["frontier"] == self.clean["frontier"]
              and not result["failures"] and matched == read and fired)
        self.check(
            f"store bit flips (workers={workers})", counters, ok,
            detail=(f"failures={result['failures']}" if result["failures"]
                    else f"{read - matched} of {read} kernels differ" if matched != read
                    else "(no bulk flip read)"))

    def storm_worker_crash(self):
        # One crash budget shared across all pool workers via the token dir:
        # exactly one worker dies mid-chunk, the chunk is resubmitted, and
        # the sweep must still match the baseline bit-for-bit.
        for workers in (1, self.workers):
            with tempfile.TemporaryDirectory(prefix="chaos-crash-") as tokens:
                clear_caches()
                _set_faults(f"worker.evaluate:crash@1*1;dir={tokens};"
                            f"seed={self.seed}")
                result = _sweep(self.curve, self.points, workers=workers)
                _set_faults(None)
            crashed = result["counters"].get("worker_crashes", 0) >= 1
            ok = (result["ranked"] == self.clean["ranked"]
                  and result["frontier"] == self.clean["frontier"]
                  and not result["failures"]
                  and crashed)
            self.check(
                f"worker crash (workers={workers})", result["counters"], ok,
                detail="" if crashed else "(crash never fired)")

    def storm_fused_batch_failure(self):
        # The fused RLC path raises twice -> breaker trips -> exact-only
        # verification; verdicts must equal the fault-free run throughout.
        _set_faults(f"service.verify_batch:error@1*2;seed={self.seed}")
        verdicts, expected, reliability = _service_verdicts(self.curve, self.seed)
        _set_faults(None)
        ok = (verdicts == expected == self.clean_verdicts
              and reliability["breaker_trips"] >= 1
              and reliability["fused_failures"] >= 2)
        self.check("fused-batch failure (breaker)", reliability, ok)

    # -- reporting ---------------------------------------------------------------
    def summary_markdown(self) -> str:
        lines = [
            "## Chaos run",
            "",
            f"seed `{self.seed}`, workers `{self.workers}`, curve `{CURVE}`, "
            f"{len(self.points)} design points",
            "",
            "| storm | recovery counters | result |",
            "|---|---|---|",
        ]
        for storm, fired, verdict in self.rows:
            fired_text = ", ".join(f"{k}={v}" for k, v in fired.items()) or "—"
            lines.append(f"| {storm} | {fired_text} | {verdict} |")
        lines.append("")
        lines.append("All storms must read `match`: injected faults may cost "
                     "retries and resubmissions, never answers.")
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--summary", default=None,
                        help="append a markdown summary to this file "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    chaos = Chaos(args.seed, args.workers)
    chaos.baseline()
    chaos.storm_store_corruption()
    chaos.storm_worker_crash()
    chaos.storm_fused_batch_failure()

    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(chaos.summary_markdown() + "\n")
    print()
    print(chaos.summary_markdown())
    return 1 if chaos.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
