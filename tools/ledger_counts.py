"""Check that ledger records count what the committed baseline counts.

Usage::

    python tools/ledger_counts.py OUT_DIR

Reads every ``ledger-*.json`` record ``benchmarks/ledger/run.py --out OUT_DIR``
wrote and compares each workload's ``counts`` (modelled cycles and imem bits,
compile misses and disk hits, the rejected share) with the baseline record's,
value for value.  Timings are not compared.  Prints one line per workload and
exits non-zero on any difference, on a workload missing from either side, or
when the directory holds no record.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "ledger" / "baseline" / "ledger-f214927.json"


def load_records(path) -> list:
    """The records in one JSON file: a baseline holds a list, a run one record."""
    with open(path) as handle:
        data = json.load(handle)
    return data if isinstance(data, list) else [data]


def differences(record: dict, baseline: dict) -> list:
    """One line per workload whose ``counts`` differ from the baseline's."""
    lines = []
    for name in sorted(set(record["workloads"]) | set(baseline["workloads"])):
        if name not in record["workloads"] or name not in baseline["workloads"]:
            lines.append(f"{name}: only in the {'baseline' if name in baseline['workloads'] else 'record'}")
            continue
        got, want = record["workloads"][name]["counts"], baseline["workloads"][name]["counts"]
        if got != want:
            lines.append(f"{name}: counts {got}, baseline {want}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    baseline = load_records(BASELINE)[0]
    paths = sorted(glob.glob(os.path.join(args.out_dir, "ledger-*.json")))
    if not paths:
        print(f"ledger_counts: no ledger-*.json record in {args.out_dir}")
        return 1
    failed = False
    for path in paths:
        for record in load_records(path):
            lines = differences(record, baseline)
            failed |= bool(lines)
            for name in sorted(record["workloads"]):
                if not any(line.startswith(f"{name}:") for line in lines):
                    print(f"{os.path.basename(path)} {name}: {record['workloads'][name]['counts']} ok")
            for line in lines:
                print(f"{os.path.basename(path)} {line} DIFFERS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
