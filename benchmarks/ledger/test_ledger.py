"""Self-test of the ledger benchmark (collected by the tier-1 run).

Checks the harness, not the program: that ``BENCHMARK.json`` is well formed
and the runner holds its results to it, the statistics and span arithmetic,
the comparer's four verdicts, and every workload driven at toy size.
"""

from __future__ import annotations

import io
import json
import os
import re

import pytest

import compare
import harness
import run
import workloads

TOY = workloads.TOY_CURVE
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A throw-away disk tier, as the runner gives every child."""
    monkeypatch.setenv("FINESSE_CACHE_DIR", str(tmp_path / "store"))
    # A 2-point design space: two variant configurations on one hardware model.
    monkeypatch.setattr(workloads._SweepWorkload, "N_MODELS", 1)
    variants = dict(list(workloads.named_variant_configs().items())[:2])
    monkeypatch.setattr(workloads, "named_variant_configs", lambda: variants)
    yield str(tmp_path / "store")
    workloads.clear_caches()             # leave no warm kernels for the tests that follow


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_spec_is_well_formed_and_names_the_workloads():
    spec = harness.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])

    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])

    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for group in ("end_to_end", "per_layer") for m in spec[group])


# ---------------------------------------------------------------------------
# Statistics and spans
# ---------------------------------------------------------------------------

def test_percentile_rule_needs_ten_samples_beyond():
    assert harness.supported_tail(99) is None
    assert harness.supported_tail(100) == 90
    assert harness.supported_tail(199) == 90
    assert harness.supported_tail(200) == 95
    assert harness.supported_tail(1000) == 99
    values = list(range(1, 201))
    assert harness.percentile(values, 95) == 190
    assert harness.percentile(values, 50) == 100
    assert harness.summarize(values) == {"n": 200, "p50": 100.5, "p95": 190}
    assert harness.summarize(values[:20]) == {"n": 20, "p50": 10.5}
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_span_self_time_subtracts_child_coverage():
    rec = harness.SpanRecorder()
    top = rec.add("op", 0.0, 10.0, op=7)
    rec.add("a", 1.0, 4.0, parent=top, op=7)
    rec.add("b", 3.0, 6.0, parent=top, op=7)        # overlaps a: union is [1, 6]
    rec.add("c", 8.0, 12.0, parent=top, op=7)       # clipped to the parent's end
    assert rec.self_times() == [3.0, 3.0, 3.0, 4.0]
    assert rec.durations("a") == [3.0]

    with rec.span("outer", op=8):
        with rec.span("inner") as inner:
            pass
    assert inner[3] == 4 and inner[4] == 8           # parent link, op inherited

    merged = harness.SpanRecorder()
    merged.add("first", 0.0, 1.0)
    merged.extend(rec)
    assert merged.spans[2][3] == 1                   # "a" still points at "op"
    events = merged.chrome_trace()["traceEvents"]
    assert len(events) == 7 and events[2]["tid"] == 1 and events[2]["ph"] == "X"


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------

def _records(values, trace=0, metric="op_ms_p50", workload="pairing_bls12_381"):
    return [{"trace": trace, "workloads": {workload: {"metrics": {
        metric: {"value": value, "unit": "ms"}}}}} for value in values]


def _compare(base, new):
    out = io.StringIO()
    regressions = compare.compare(base, new, harness.load_spec(), out=out)
    return regressions, out.getvalue()


def test_compare_gives_all_four_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [100.2, 99.5, 101.2], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [80.0, 81.0, 79.5], "lower", 0.10) == "improved"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "REGRESSION"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher", 0.10) == "improved"
    noisy = [80.0, 100.0, 125.0, 140.0]
    assert compare.verdict(noisy, [90.0, 118.0, 135.0], "lower", 0.10) == "unresolved"
    # Wide but every new run is worse than every base run: still a regression.
    assert compare.verdict(noisy, [190.0, 200.0, 260.0], "lower", 0.10) == "REGRESSION"

    regressions, text = _compare(_records(steady), _records([140.0, 141.0, 139.0]))
    assert regressions == 1 and "REGRESSION" in text and "1.397" in text
    regressions, text = _compare(_records(steady), _records([100.2, 99.5, 101.2]))
    assert regressions == 0 and " ok" in text
    with pytest.raises(SystemExit):
        _compare(_records(steady), _records([100.0, 101.0]))     # fewer than 3 runs


def test_compare_requires_counts_to_repeat_exactly():
    runs = _records([100.0, 101.0, 99.0])
    for record in runs:
        record["workloads"]["pairing_bls12_381"]["counts"] = {"model_cycles": 122139}
    assert _compare(runs, runs)[0] == 0
    moved = _records([100.0, 101.0, 99.0])
    moved[0]["workloads"]["pairing_bls12_381"]["counts"] = {"model_cycles": 122140}
    regressions, text = _compare(runs, moved)
    assert regressions == 1 and "counts differ" in text

    same = _records([122139] * 3, trace=1, metric="compiler.model_cycles")
    moved = _records([122139, 122139, 122140], trace=1, metric="compiler.model_cycles")
    assert _compare(same, same)[0] == 0
    regressions, text = _compare(same, moved)
    assert regressions == 1 and "must repeat exactly" in text
    # A host time in the same place is context only.
    times = _records([1.0, 2.0, 3.0], trace=1, metric="compiler.iropt_s")
    assert _compare(times, _records([4.0, 5.0, 6.0], trace=1, metric="compiler.iropt_s"))[0] == 0


# ---------------------------------------------------------------------------
# The workloads at toy size
# ---------------------------------------------------------------------------

def test_pairing_workload_repeats_and_catches_a_wrong_reference(monkeypatch):
    first, second = (workloads.PairingWorkload(5, TOY) for _ in range(2))
    for workload in (first, second):
        workload.measure(0, max_ops=3)
        assert workload.check() == (3, 0)
    assert first.outputs == second.outputs

    # The runner refuses a result whose metrics are not exactly BENCHMARK.json's.
    spec = harness.load_spec()
    result = run.run_workload("pairing_bls12_381", 5, 0, 0, spec, max_ops=2, curve_name=TOY)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        harness.units(spec, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    with pytest.raises(SystemExit, match="ops_per_s"):
        run.run_workload("pairing_bls12_381", 5, 0, 0, {"end_to_end": spec["end_to_end"][:1]},
                         max_ops=2, curve_name=TOY)

    # Feed the check a wrong expected value: the run must come out incorrect.
    monkeypatch.setattr(workloads.PairingWorkload, "reference",
                        lambda self: self.curve.gt_one())
    result = run.run_workload("pairing_bls12_381", 5, 0, 0, spec, max_ops=2, curve_name=TOY)
    assert not result["correct"] and result["failed"] >= 1


def test_incorrect_result_gives_a_nonzero_exit(monkeypatch, tmp_path, capsys):
    wrong = {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_one", lambda *args, **kwargs: dict(wrong))
    code = run.main(["--workload", "pairing_bls12_381", "--allow-dirty",
                     "--out", str(tmp_path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == wrong
    assert os.listdir(tmp_path) == []                # the temp store is gone


def test_compile_workload_repeats_exactly(store):
    workload = workloads.CompileWorkload(5, TOY)
    workload.measure(0, max_ops=2)
    assert workload.check() == (2, 0)
    assert workload.facts[0] == workload.facts[1]
    assert workload.counts()["model_cycles"] == workload.facts[0][0][0] > 0

    rec = harness.SpanRecorder()
    workload.measure(0, rec, max_ops=1)              # the staged replay
    assert workload.check() == (3, 0)
    assert workload.facts[2] == workload.facts[0]
    stages = [span[0] for span in rec.spans]
    assert stages[0] == "compile" and len(stages) == 9
    covered = 1.0 - rec.self_times()[0] / rec.durations("compile")[0]
    assert covered > 0.95


def test_sweep_workloads_repeat_exactly(store):
    cold = workloads.DseColdWorkload(5, TOY)
    cold.measure(0, max_ops=2)
    assert cold.check() == (2, 0)
    warm = workloads.DseWarmWorkload(6, TOY)
    warm.measure(0, max_ops=1)
    assert warm.check() == (1, 0)
    assert cold.rankings[0] == cold.rankings[1] == warm.rankings[0]
    assert len(cold.rankings[0]) == 2
    assert [r.cache_stats["disk"]["hits"] for r in cold.reports + warm.reports] == [0, 0, 2]
    assert cold.counts() == {"compile_misses": 2, "disk_hits": 0}
    assert warm.counts() == {"compile_misses": 0, "disk_hits": 2}


@pytest.mark.parametrize("kind", [workloads.ServiceSaturateWorkload,
                                  workloads.ServicePacedWorkload])
def test_service_workloads_verdicts_match(kind, monkeypatch):
    monkeypatch.setattr(workloads._ServiceWorkload, "RATE_RPS", 20.0)   # toy requests take ms
    workload = kind(5, TOY)
    rec = harness.SpanRecorder()
    measured = workload.measure(0, rec, max_ops=4)
    assert len(measured.samples_s) == 4 and measured.wall_s > 0
    assert workload.check() == (8, 0)                # 4 timed + a batch with one forged
    assert workload.snapshots[-1]["fused_failures"] == 1
    assert workload.counts() == {"rejected_share": 0.0}
    assert len(rec.durations("service.request")) == 4


def test_runner_refuses_fault_injection_and_scrubs_the_environment():
    environ = {"FINESSE_FP_BACKEND": "montgomery", "FINESSE_DSE_WORKERS": "7",
               "HOME": "/h", "PYTHONPATH": "/elsewhere"}
    env, inherited = harness.scrubbed_env(environ, "/tmp/store")
    assert inherited == {"FINESSE_FP_BACKEND": "montgomery", "FINESSE_DSE_WORKERS": "7"}
    assert sorted(key for key in env if key.startswith("FINESSE_")) == \
        ["FINESSE_CACHE_DIR", "FINESSE_FP_BACKEND"]
    assert env["FINESSE_FP_BACKEND"] == "python" and env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].endswith(os.pathsep + "/elsewhere") and env["HOME"] == "/h"
    with pytest.raises(SystemExit, match="FINESSE_FAULTS"):
        harness.scrubbed_env({"FINESSE_FAULTS": "compile:error"}, "/tmp/store")
