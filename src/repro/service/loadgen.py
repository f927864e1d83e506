"""Open-loop load generator for the streaming verification service.

Drives a :class:`~repro.service.service.VerificationService` with synthetic
Groth16/BLS traffic at a configurable request rate and arrival distribution
(uniform / poisson / burst, the processes of
:func:`repro.service.simulate.arrival_times`), checks every verdict against
the request's known expected outcome, and reports the operator-facing
figures: achieved verifications/sec, latency percentiles, rejections and the
service's own metrics snapshot.

The generator is *open loop*: requests are fired at their scheduled arrival
instants regardless of completions, so offered load beyond the service's
capacity shows up as queue growth, rising latency and -- past the queue bound
-- explicit :class:`~repro.errors.ServiceOverloadedError` rejections, exactly
like production traffic.  Rejected requests can optionally be retried after
the service's ``retry_after_s`` hint (``max_retries``).

Run it from the command line against a toy curve::

    python -m repro.service.loadgen --rate 60 --requests 48 --max-batch 8

The service's throughput and latency are measured by the ledger's two
service workloads (``python benchmarks/ledger/run.py --seconds 1 --out
ledger-out``), which drive it with their own closed and paced loops.
"""

from __future__ import annotations

import argparse
import asyncio
import json

from repro.curves.catalog import get_curve
from repro.errors import ServiceError, ServiceOverloadedError
from repro.service.config import FUSE_MODES, ServiceConfig
from repro.service.metrics import percentile
from repro.service.service import VerificationService
from repro.service.simulate import ARRIVAL_DISTRIBUTIONS, arrival_times
from repro.service.workloads import make_bls_requests, make_groth16_requests

#: Workload generators selectable by name.
WORKLOADS = {
    "groth16": make_groth16_requests,
    "bls": make_bls_requests,
    "mixed": None,                     # alternating groth16 / bls
}


def generate_requests(curve, n: int, workload: str = "groth16", seed: int = 0,
                      forge_fraction: float = 0.0) -> list:
    """``[(request, expected_verdict), ...]`` for the named workload."""
    if workload not in WORKLOADS:
        raise ServiceError(
            f"workload must be one of {sorted(WORKLOADS)}, got {workload!r}")
    if workload == "mixed":
        half = (n + 1) // 2
        groth = make_groth16_requests(curve, half, seed=seed,
                                      forge_fraction=forge_fraction)
        bls = make_bls_requests(curve, n - half, seed=seed + 1,
                                forge_fraction=forge_fraction)
        mixed = []
        for index in range(n):
            source = groth if index % 2 == 0 else bls
            mixed.append(source[index // 2])
        return mixed
    return WORKLOADS[workload](curve, n, seed=seed, forge_fraction=forge_fraction)


async def run_load(service: VerificationService, *, rate_rps: float,
                   n_requests: int, arrival: str = "poisson", seed: int = 0,
                   workload: str = "groth16", forge_fraction: float = 0.0,
                   max_retries: int = 0) -> dict:
    """Fire ``n_requests`` at ``rate_rps`` and collect the result report.

    The service must be started (or used as an async context manager by the
    caller).  Returns a JSON-ready dict: offered/achieved rates, latency
    percentiles over completed requests, rejection/retry counts, verdict
    mismatches against the known expected outcomes (always 0 unless the
    service is broken) and the service's metrics snapshot.
    """
    if arrival not in ARRIVAL_DISTRIBUTIONS:
        raise ServiceError(
            f"arrival must be one of {ARRIVAL_DISTRIBUTIONS}, got {arrival!r}")
    requests = generate_requests(service.curve, n_requests, workload=workload,
                                 seed=seed, forge_fraction=forge_fraction)
    schedule = arrival_times(n_requests, rate_rps, distribution=arrival, seed=seed)
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def fire(request, expected, at):
        delay = t0 + at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        retries = 0
        while True:
            submitted = loop.time()
            try:
                verdict = await service.verify(request)
            except ServiceOverloadedError as exc:
                if retries >= max_retries:
                    return {"outcome": "rejected", "retries": retries,
                            "retry_after_s": exc.retry_after_s}
                retries += 1
                await asyncio.sleep(exc.retry_after_s)
                continue
            return {"outcome": "ok", "verdict": verdict, "expected": expected,
                    "retries": retries, "latency_s": loop.time() - submitted}

    outcomes = await asyncio.gather(
        *(fire(request, expected, at)
          for (request, expected), at in zip(requests, schedule)))
    wall_s = loop.time() - t0

    completed = [o for o in outcomes if o["outcome"] == "ok"]
    latencies = [o["latency_s"] for o in completed]
    mismatches = sum(1 for o in completed if o["verdict"] != o["expected"])
    return {
        "workload": workload,
        "arrival": arrival,
        "offered_rate_rps": rate_rps,
        "requests": n_requests,
        "forge_fraction": forge_fraction,
        "completed": len(completed),
        "rejected": sum(1 for o in outcomes if o["outcome"] == "rejected"),
        "retries": sum(o["retries"] for o in outcomes),
        "mismatches": mismatches,
        "wall_s": round(wall_s, 4),
        "verified_per_sec": round(len(completed) / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1e3, 3),
            "p95": round(percentile(latencies, 95) * 1e3, 3),
            "p99": round(percentile(latencies, 99) * 1e3, 3),
        },
        "service": service.metrics.snapshot(),
        "vk_cache": service.vk_cache.stats(),
    }


#: The command line's ``ServiceConfig`` flags.  One left out keeps the value
#: :meth:`ServiceConfig.from_env` resolves: its ``FINESSE_SERVICE_*``
#: variable, or else the dataclass default.
CONFIG_FLAGS = ("max_batch", "deadline_ms", "queue_bound", "fuse")


async def _main_async(args) -> dict:
    curve = get_curve(args.curve)
    config = ServiceConfig.from_env(**{
        name: getattr(args, name) for name in CONFIG_FLAGS
        if getattr(args, name) is not None})
    async with VerificationService(curve, config) as service:
        return await run_load(
            service, rate_rps=args.rate, n_requests=args.requests,
            arrival=args.arrival, seed=args.seed, workload=args.workload,
            forge_fraction=args.forge_fraction, max_retries=args.max_retries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive the streaming verification service with synthetic traffic")
    parser.add_argument("--curve", default="TOY-BN42")
    parser.add_argument("--workload", default="groth16", choices=sorted(WORKLOADS))
    parser.add_argument("--rate", type=float, default=60.0,
                        help="offered load, requests per second")
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--arrival", default="poisson",
                        choices=ARRIVAL_DISTRIBUTIONS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--forge-fraction", type=float, default=0.0,
                        help="fraction of requests forged (expected to fail)")
    parser.add_argument("--max-batch", type=int)
    parser.add_argument("--deadline-ms", type=float)
    parser.add_argument("--queue-bound", type=int)
    parser.add_argument("--fuse", choices=FUSE_MODES)
    parser.add_argument("--max-retries", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON report instead of the summary")
    args = parser.parse_args(argv)

    report = asyncio.run(_main_async(args))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{report['workload']} @ {report['offered_rate_rps']:g} rps "
              f"({report['arrival']}): {report['completed']}/{report['requests']} ok, "
              f"{report['rejected']} rejected, {report['mismatches']} mismatches")
        latency = report["latency_ms"]
        print(f"  {report['verified_per_sec']:g} verified/s, latency p50/p95/p99 = "
              f"{latency['p50']:g}/{latency['p95']:g}/{latency['p99']:g} ms, "
              f"mean batch {report['service']['mean_batch_size']:g}")
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
