"""Shared pieces of the ledger benchmark: statistics, spans, host facts.

Nothing here imports :mod:`repro`; the self-test exercises this module
without building a curve.  ``BENCHMARK.json`` is the one registry of metric
names, units and bounds: the runner takes units from it and refuses to print a
result whose metric names differ from it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
OUT_DIR = os.path.join(LEDGER_DIR, "out")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

LOWER = "lower"      # the ``better`` of a metric that should shrink

#: Units of quantities that must repeat exactly on one commit: counts and
#: simulated results.  ``compare.py`` treats any difference as a regression.
EXACT_UNITS = frozenset({"count", "cycles", "kbit", "mm2", "MHz", "mW", "instr/cycle"})


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def units(spec: dict, group: str) -> dict:
    """``{metric name: unit}`` of ``spec["end_to_end"]`` or ``spec["per_layer"]``."""
    return {metric["name"]: metric["unit"] for metric in spec[group]}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the smallest sample with ``q``% at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def supported_tail(n: int):
    """Highest percentile that leaves at least ten samples beyond it, or None."""
    for q in (99, 95, 90):
        if n * (100 - q) >= 1000:
            return q
    return None


def summarize(samples) -> dict:
    """Median, the highest supported tail percentile, and the sample count."""
    summary = {"n": len(samples), "p50": statistics.median(samples)}
    tail = supported_tail(len(samples))
    if tail is not None:
        summary[f"p{tail}"] = percentile(samples, tail)
    return summary


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans recorded by the harness around calls into a layer.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
    that caused it (``None`` at the top), ``op`` is the identifier shared by
    every span of one operation.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, op=None) -> int:
        """Record a span timed by the caller (concurrent requests do not nest)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def extend(self, other: "SpanRecorder") -> None:
        """Append another recorder's spans, keeping their parent links."""
        base = len(self.spans)
        self.spans.extend(
            [name, start, end, None if parent is None else parent + base, op]
            for name, start, end, parent, op in other.spans)

    def durations(self, name: str) -> list:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_times(self) -> list:
        """Per span: its duration minus the part its child spans cover."""
        children: dict = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def chrome_trace(self) -> dict:
        """The spans in Chrome trace format (one row per nesting depth)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[1] for span in self.spans)
        depth: list = []
        events = []
        for name, start, end, parent, op in self.spans:
            depth.append(0 if parent is None else depth[parent] + 1)
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": depth[-1], "args": {"op": op, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: One calibration slice: a fixed pure-Python big-int loop that runs no code of
#: this repository.  ``CALIB_REFERENCE_S`` is its duration on the builder's
#: machine in a quiet phase; host speed is expressed as a multiple of it
#: (1.3 = the host is running 30 % slower right now).
CALIB_ITERATIONS = 20_000
CALIB_REFERENCE_S = 0.0120


def calibration_slice() -> float:
    p = (1 << 381) - 1234567
    x = 3
    start = time.perf_counter()
    for i in range(CALIB_ITERATIONS):
        x = (x * x + i) % p
    return time.perf_counter() - start


def host_speed(min_seconds: float = 0.0) -> float:
    """How slow the host is right now, as a multiple of the reference speed.

    The mean of as many calibration slices as fit in ``min_seconds`` (one at
    least).  Time metrics are divided by it: this sandbox runs the same code
    up to 50 % slower for seconds or minutes at a time, the slice slows with
    it, and the ratio of the two stays within a few percent (see the README).
    The mean, not the median: the host flips between a fast and a slow state
    several times a second, and an operation that spans both is slowed by
    their time-weighted mix.
    """
    slices = [calibration_slice()]
    while sum(slices) < min_seconds:
        slices.append(calibration_slice())
    return statistics.mean(slices) / CALIB_REFERENCE_S


# ---------------------------------------------------------------------------
# Host and environment
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        done = subprocess.run(("git", "-C", REPO_ROOT) + args, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit_and_dirty() -> tuple:
    """``(short commit, uncommitted changes under src/)``; no git -> ("nogit", False)."""
    commit = _git("rev-parse", "--short", "HEAD")
    if commit is None:
        return "nogit", False
    return commit, bool(_git("status", "--porcelain", "--", "src"))


def host_facts() -> dict:
    """The host block of a record; ``calib_ms`` is context, no metric is derived from it."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calib_ms": host_speed(0.5) * CALIB_REFERENCE_S * 1e3,
    }


def scrubbed_env(environ, store_dir: str) -> tuple:
    """The child environment and the ``FINESSE_*`` variables it was cleared of."""
    inherited = {key: value for key, value in environ.items()
                 if key.startswith("FINESSE_")}
    if "FINESSE_FAULTS" in inherited:
        raise SystemExit(
            "ledger: FINESSE_FAULTS is set; refusing to benchmark with fault "
            "injection armed (unset it)")
    env = {key: value for key, value in environ.items() if key not in inherited}
    env["FINESSE_FP_BACKEND"] = "python"
    env["FINESSE_CACHE_DIR"] = store_dir
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, environ.get("PYTHONPATH", "")) if part)
    return env, inherited


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024        # Linux reports KiB
    return (own + children) * scale / 1e6
