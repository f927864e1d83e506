#!/usr/bin/env python3
"""Compare two sets of ledger records: ``compare.py BASE... -- NEW...``.

Each side is three or more record files written by ``run.py`` (a file may
hold one record or a list of them; five or more a side make the quartiles
more than the extremes).  One row per (workload, end-to-end
metric) shows both medians with their quartiles, the ratio with its base,
the bound from ``BENCHMARK.json`` and a verdict:

``improved``    the new median is better by more than the base's own
                inter-quartile distance and new wins nine tenths of all
                (base run, new run) pairs, ties counting for neither
``ok``          no worse than the bound allows
``REGRESSION``  the new median is worse by more than the bound, or a
                quantity that must repeat exactly differs
``unresolved``  either side's run-to-run spread is wider than the bound and
                the two sides overlap, so the bound cannot be checked

Per-layer numbers of traced records follow as context.  Exit code 1 on any
``REGRESSION``.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness

MIN_RUNS = 3


def load_records(paths) -> list:
    records = []
    for path in paths:
        with open(path) as handle:
            loaded = json.load(handle)
        records.extend(loaded if isinstance(loaded, list) else [loaded])
    return records


def collect(records, trace: int) -> dict:
    """``{(workload, metric): [value per run]}`` of the traced or untraced records.

    The layer probes do not depend on the workload they ran after, so their
    values are pooled under the workload ``"-"``; only the tracing overhead
    is a per-workload figure.
    """
    values: dict = {}
    for record in records:
        if record["trace"] != trace:
            continue
        for workload, result in record["workloads"].items():
            for metric, entry in result["metrics"].items():
                pooled = trace and metric != "trace.overhead_share"
                key = ("-" if pooled else workload, metric)
                values.setdefault(key, []).append(entry["value"])
    return values


def verdict(base, new, better: str, bound: float) -> str:
    """The verdict for one bounded metric on one workload (see the module docstring)."""
    sign = 1.0 if better == harness.LOWER else -1.0
    b_q1, b_med, b_q3 = harness.quartiles(base)
    n_q1, n_med, n_q3 = harness.quartiles(new)
    worse_by = sign * (n_med - b_med) / abs(b_med)
    wide = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med)) > bound
    wins = sum(1 for b in base for n in new if sign * (n - b) < 0)
    losses = sum(1 for b in base for n in new if sign * (n - b) > 0)
    if wide and wins and losses:
        return "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    if -worse_by * abs(b_med) > b_q3 - b_q1 and wins >= 0.9 * (wins + losses):
        return "improved"
    return "ok"


def _cell(values, unit) -> str:
    q1, median, q3 = harness.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {unit}"


def compare(base_records, new_records, spec, out=sys.stdout) -> int:
    """Print the comparison; returns the number of ``REGRESSION`` rows."""
    regressions = 0
    base, new = collect(base_records, 0), collect(new_records, 0)
    print(f"{'workload':<26} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'new/base':>9} {'bound':>6}  verdict", file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            for side, runs in (("base", base[key]), ("new", new[key])):
                if len(runs) < MIN_RUNS:
                    raise SystemExit(f"compare: {side} side has {len(runs)} run(s) of "
                                     f"{workload}; {MIN_RUNS} or more are needed")
            outcome = verdict(base[key], new[key], metric["better"], metric["bound"])
            regressions += outcome == "REGRESSION"
            ratio = statistics.median(new[key]) / statistics.median(base[key])
            print(f"{workload:<26} {metric['name']:<12} "
                  f"{_cell(base[key], metric['unit']):<34} "
                  f"{_cell(new[key], metric['unit']):<34} {ratio:>9.3f} "
                  f"{metric['bound']:>6.0%}  {outcome}", file=out)
        counts = [tuple(sorted(record["workloads"][workload].get("counts", {}).items()))
                  for record in base_records + new_records
                  if not record["trace"] and workload in record["workloads"]]
        if len(set(counts)) > 1:
            regressions += 1
            print(f"{workload:<26} counts differ between runs: "
                  f"{sorted(set(counts))}  REGRESSION (must repeat exactly)", file=out)

    base, new = collect(base_records, 1), collect(new_records, 1)
    shared = [key for key in base if key in new]
    if shared:
        print("\nper-layer context (traced runs; no bound; counts and simulated "
              "quantities must be identical)", file=out)
    units = harness.units(spec, "per_layer")
    for key in shared:
        workload, metric = key
        note = ""
        if units.get(metric) in harness.EXACT_UNITS and len(set(base[key] + new[key])) > 1:
            note = "  REGRESSION (must repeat exactly)"
            regressions += 1
        b_med, n_med = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n_med / b_med:.3f}" if b_med else "n/a"
        label = metric if workload == "-" else f"{metric} [{workload}]"
        print(f"  {label:<52} base {b_med:>14.6g}  new {n_med:>14.6g} "
              f"{units.get(metric, ''):<12} new/base {ratio}{note}", file=out)
    print(f"\n{regressions} regression(s)", file=out)
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        raise SystemExit(__doc__.split("\n\n")[0])
    split = argv.index("--")
    base, new = load_records(argv[:split]), load_records(argv[split + 1:])
    return 1 if compare(base, new, harness.load_spec()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
