#!/usr/bin/env python3
"""The ledger benchmark's one command.

``python3 benchmarks/ledger/run.py`` runs every workload with tracing off,
checks every output against an independent reference, prints every
end-to-end metric by name with its unit and writes one record to ``out/``.
``--trace 1`` is the separate traced run that produces the per-layer numbers
and a Chrome trace per workload.  With ``--workload NAME`` it runs that one
workload and prints, as its last line, the one-line JSON result the
benchmark driver reads (see ``BENCHMARK.json`` and the README).

Every workload runs in a fresh child interpreter whose environment is
scrubbed of ``FINESSE_*`` variables, pinned to the python field backend and
``PYTHONHASHSEED=0``, and pointed at a throw-away compile store.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import harness

_STARTED = time.perf_counter()      # set-up counts from here: repro's imports included

CHILD_TIMEOUT_S = 170

#: Set-up is timed in up to this many fresh interpreters per run (the first
#: goes on to run the workload) and the median is reported.  No further one is
#: started once the set-ups timed so far add up to ``SETUP_BUDGET_S``: that
#: keeps the workloads whose set-up takes seconds inside the driver's time limit.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="derives every point, request and arrival trace")
    parser.add_argument("--seconds", type=float,
                        help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--out", default=harness.OUT_DIR,
                        help="directory for records and traces")
    parser.add_argument("--allow-dirty", action="store_true",
                        help="run with uncommitted changes under src/ (recorded)")
    parser.add_argument("--child", choices=("run", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--probes", type=int, default=1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one workload, in this interpreter
# ---------------------------------------------------------------------------

def set_up(name, seed, started=None, curve_name=None) -> tuple:
    """Construct the workload: ``(workload, set-up seconds at reference host speed)``.

    Set-up is everything between interpreter start and a workload ready to be
    timed: imports, curve construction, input generation, warm-up.
    """
    import workloads

    started = time.perf_counter() if started is None else started
    sized = () if curve_name is None else (curve_name,)
    workload = workloads.WORKLOADS[name](seed, *sized)
    setup_s = time.perf_counter() - started
    return workload, setup_s / harness.host_speed(0.2)


def run_workload(name, seed, seconds, trace, spec, probes=True, trace_path=None,
                 started=None, max_ops=None, curve_name=None) -> dict:
    """Set up, time and check one workload; returns the child's full result.

    ``max_ops`` and ``curve_name`` shrink the run for the self-test; the
    benchmark proper never passes them.
    """
    workload, setup_s = set_up(name, seed, started, curve_name)

    if not trace:
        measured = workload.measure(seconds, max_ops=max_ops)
        attempted, failed = workload.check()
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(measured.samples_s) / measured.wall_s,
            "op_ms_p50": statistics.median(measured.samples_s) * 1e3,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        units = harness.units(spec, "end_to_end")
    else:
        import probes as layer_probes

        # End-to-end numbers never come from here: half of the window runs
        # plain, half traced, and only their ratio is reported.
        rec = harness.SpanRecorder()
        plain = workload.measure(seconds / 2, max_ops=max_ops)
        measured = workload.measure(seconds / 2, rec, max_ops=max_ops)
        attempted, failed = workload.check()
        metrics = {"trace.overhead_share":
                   statistics.median(measured.samples_s)
                   / statistics.median(plain.samples_s) - 1.0}
        if probes:
            sized = () if curve_name is None else (curve_name, curve_name)
            metrics.update(layer_probes.run_probes(
                seed, rec, os.environ["FINESSE_CACHE_DIR"], *sized))
        # Without the probes only the tracing overhead is this workload's own.
        units = {name: unit for name, unit in harness.units(spec, "per_layer").items()
                 if probes or name in metrics}
        if trace_path is not None:
            with open(trace_path, "w") as handle:
                json.dump(rec.chrome_trace(), handle)

    if set(metrics) != set(units):
        raise SystemExit(f"ledger: {name} measured {sorted(set(metrics) ^ set(units))} "
                         "differently from BENCHMARK.json")
    # What the host clock read, next to the metrics at reference host speed.
    as_measured = harness.summarize([s * 1e3 for s in measured.raw_s])
    as_measured["host_speed"] = statistics.median(
        raw / scaled for raw, scaled in zip(measured.raw_s, measured.samples_s))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
        "counts": workload.counts(),
        "op_unit": workload.op_unit,
        "op_ms": as_measured,
    }


def child_main(args, spec) -> int:
    if args.child == "setup":
        print(json.dumps({"setup_s": set_up(args.workload, args.seed, _STARTED)[1]}))
        return 0

    from repro.fields.backends import active_fp_backend

    trace_path = None
    if args.trace:
        trace_path = os.path.join(args.out, f"ledger.{args.workload}.trace.json")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec,
                          probes=bool(args.probes), trace_path=trace_path,
                          started=_STARTED)
    result["fp_backend"] = active_fp_backend()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Parent: hygiene, fresh children per workload, the record
# ---------------------------------------------------------------------------

def spawn_child(args, name, env, mode="run", probes=True) -> dict:
    """Run one workload in a fresh interpreter; kills its whole group on any exit."""
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", args.out, "--probes", str(int(probes))]
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True,
                             cwd=harness.REPO_ROOT, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)    # stray pool workers, if any
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"ledger: workload {name} printed no result "
                         f"(exit code {child.returncode})")
    result = json.loads(lines[-1])
    if child.returncode != 0:
        result["correct"] = False
    return result


def run_one(args, name, env, probes) -> dict:
    """One workload's result; untraced, ``setup_s`` is the median over fresh interpreters."""
    result = spawn_child(args, name, env, probes=probes)
    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        while len(setups) < SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S:
            setups.append(spawn_child(args, name, env, mode="setup")["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def print_table(record) -> None:
    host = record["host"]
    print(f"ledger {record['commit']}{' (dirty)' if record['dirty'] else ''}  "
          f"seed={record['seed']}  seconds={record['seconds']:g}  "
          f"trace={record['trace']}  fp_backend={host['fp_backend']}  "
          f"nproc={host['nproc']}  calib_ms={host['calib_ms']:.1f}")
    for name, result in record["workloads"].items():
        samples = result["op_ms"]
        clock = ", ".join(f"{key}={value:.1f}ms" for key, value in samples.items()
                          if key.startswith("p"))
        print(f"\n{name}  [op = {result['op_unit']}; n={samples['n']}; as measured: "
              f"{clock} at host speed {samples['host_speed']:.2f}]")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.4f} {entry['unit']}")
        for count, value in result["counts"].items():
            print(f"  {count:<36} {value:>14.4f} (must repeat exactly)")
        share = result["failed"] / result["attempted"]
        print(f"  {'failed_share':<36} {share:>14.4f} failed/attempted "
              f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = harness.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out = os.path.abspath(args.out)
    if args.child:
        return child_main(args, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"ledger: unknown workload {args.workload!r}; known: {names}")
    if not os.path.isdir(os.path.join(harness.REPO_ROOT, "src", "repro")):
        raise SystemExit("ledger: src/repro not found next to BENCHMARK.json")
    commit, dirty = harness.commit_and_dirty()
    if dirty and not args.allow_dirty:
        raise SystemExit("ledger: uncommitted changes under src/; commit them or "
                         "pass --allow-dirty (the record will say so)")

    os.makedirs(args.out, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=args.out)
    # A terminated run must still remove its store: turn SIGTERM into an exit.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        env, inherited = harness.scrubbed_env(os.environ, store_dir)
        selected = names if args.workload is None else [args.workload]
        # The layer probes do not depend on the workload; when every workload
        # is traced in one go they run once, with the last.
        results = {name: run_one(args, name, env, probes=name == selected[-1])
                   for name in selected}
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(store_dir, ignore_errors=True)

    correct = all(result["correct"] for result in results.values())
    if args.workload is not None:
        result = results[args.workload]
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if correct else 1

    host = harness.host_facts()
    host["fp_backend"] = results[selected[0]].get("fp_backend")
    for result in results.values():
        result.pop("fp_backend", None)
    record = {
        "schema": 1, "commit": commit, "dirty": dirty, "inherited_env": inherited,
        "host": host, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": results,
    }
    print_table(record)
    suffix = ".traced" if args.trace else ""
    path = os.path.join(args.out, f"ledger-{commit}-seed{args.seed}{suffix}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nrecord: {os.path.relpath(path)}"
          + ("" if correct else "\nFAILED: a correctness check did not pass"))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
