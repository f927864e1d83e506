"""Self-healing exploration: retries, crash recovery, quarantine, timeouts.

The acceptance bar for the reliability work: ``explore()`` /
``explore_pareto()`` rankings are *bit-identical* to the fault-free run
whenever every point eventually succeeds, at ``workers=1`` and in parallel.
Parallel crash-recovery scenarios live in ``tools/chaos.py`` (they respawn
process pools, too slow for tier-1); this file covers the sequential engine
plus the parallel timeout path end to end.
"""

import os

import pytest

from repro.compiler.pipeline import clear_caches
from repro.config import EVAL_TIMEOUT_ENV, MAX_RETRIES_ENV
from repro.dse.engine import (
    DEFAULT_MAX_RETRIES,
    QUARANTINE_AFTER,
    ParallelExplorer,
    validate_eval_timeout,
    validate_max_retries,
)
from repro.dse.space import design_points, named_variant_configs
from repro.errors import DSEError, InjectedFaultError, ReliabilityError
from repro.evaluation import runner
from repro.hw.presets import figure10_models
from repro.reliability import configure_faults
from repro.reliability.faults import FAULTS_ENV, FaultPlan


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    os.environ.pop(FAULTS_ENV, None)
    configure_faults(None)


@pytest.fixture(scope="module")
def toy_points(toy_bn):
    variants = list(named_variant_configs().values())
    models = figure10_models(toy_bn.params.p.bit_length())[:2]
    return design_points(variants, models)


@pytest.fixture(scope="module")
def baseline(toy_bn, toy_points):
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        return explorer.explore(toy_points, objective="throughput")


def _ranked_key(ranked):
    return [(m.label, m.throughput_ops, m.area_mm2) for m in ranked]


# ---------------------------------------------------------------------------
# Transient faults heal to bit-identical results
# ---------------------------------------------------------------------------

def test_transient_eval_faults_heal_bit_identical(toy_bn, toy_points, baseline):
    # The ``baseline`` fixture left every kernel in the memory tier, and the
    # parent answers cached points without traversing ``worker.evaluate``:
    # each fault test here empties the tier first, so the faults still fire.
    clear_caches()
    configure_faults(FaultPlan.parse("worker.evaluate:error@1*2"))
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        ranked = explorer.explore(toy_points, objective="throughput")
        assert explorer.reliability.retries == 2
        assert not explorer.failures
    assert _ranked_key(ranked) == _ranked_key(baseline)


def test_transient_store_corruption_heals_bit_identical(
        toy_bn, toy_points, baseline, tmp_path, monkeypatch):
    from repro.compiler.store import configure_store, reset_store_state

    configure_store(tmp_path / "store")
    try:
        configure_faults(FaultPlan.parse("store.write:torn@1*2;seed=3"))
        with ParallelExplorer(toy_bn, workers=1) as explorer:
            ranked = explorer.explore(toy_points, objective="throughput")
            assert not explorer.failures
    finally:
        reset_store_state()
    assert _ranked_key(ranked) == _ranked_key(baseline)


def test_sequential_crash_heals_on_retry(toy_bn, toy_points, baseline):
    clear_caches()
    configure_faults(FaultPlan.parse("worker.evaluate:crash@1*1"))
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        ranked = explorer.explore(toy_points, objective="throughput")
        assert explorer.reliability.worker_crashes == 1
        assert not explorer.failures
    assert _ranked_key(ranked) == _ranked_key(baseline)


# ---------------------------------------------------------------------------
# Persistent faults quarantine the poisoned point, keep the rest
# ---------------------------------------------------------------------------

def test_repeat_crasher_is_quarantined(toy_bn, toy_points, baseline):
    clear_caches()
    configure_faults(
        FaultPlan.parse(f"worker.evaluate:crash@1*{QUARANTINE_AFTER}"))
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        ranked = explorer.explore(toy_points, objective="throughput")
        assert explorer.reliability.points_quarantined == 1
        assert len(explorer.failures) == 1
        failure = explorer.failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == QUARANTINE_AFTER
        assert "WorkerCrashError" in failure.error
    # Everything except the quarantined point is ranked, in baseline order.
    survivors = [entry for entry in _ranked_key(baseline)
                 if entry[0] != failure.label]
    assert _ranked_key(ranked) == survivors


def test_persistent_error_raises_labelled_dse_error(toy_bn, toy_points, monkeypatch):
    # A point that keeps *erroring* (as opposed to killing workers) is a
    # diagnosable failure: after the retry budget it propagates as a DSEError
    # naming the design point, with the original exception chained and its
    # worker-side traceback embedded in the message (satellite 1).
    clear_caches()
    configure_faults(FaultPlan.parse("worker.evaluate:error@1*inf"))
    monkeypatch.setenv(MAX_RETRIES_ENV, "1")
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        with pytest.raises(DSEError) as exc_info:
            explorer.explore(toy_points, objective="throughput")
    message = str(exc_info.value)
    assert f"design point {toy_points[0].display_label!r}" in message
    assert "failed after 2 attempt(s)" in message     # 1 try + 1 retry
    assert "InjectedFaultError" in message
    assert "original traceback" in message
    assert isinstance(exc_info.value.__cause__, InjectedFaultError)


def test_wrapped_dse_error_chains_cause(toy_bn, toy_points):
    from repro.dse.engine import _evaluate_point_resilient
    from repro.reliability.retry import RetryPolicy

    configure_faults(FaultPlan.parse("worker.evaluate:error@1*inf"))
    counters = {"retries": 0, "backoff_s": 0.0}
    with pytest.raises(DSEError) as exc_info:
        _evaluate_point_resilient(
            toy_bn, toy_points[0], RetryPolicy(max_retries=0, base_delay_s=0.0),
            counters)
    assert toy_points[0].label in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, InjectedFaultError)


# ---------------------------------------------------------------------------
# Pareto exploration under faults
# ---------------------------------------------------------------------------

def test_pareto_frontier_identical_under_healed_faults(toy_bn, toy_points):
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        clean = explorer.explore_pareto(toy_points, ("throughput", "area"))
    clear_caches()
    configure_faults(FaultPlan.parse("worker.evaluate:error@2*2"))
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        faulted = explorer.explore_pareto(toy_points, ("throughput", "area"))
        assert explorer.reliability.retries == 2
        assert not explorer.failures
    assert [m.label for m in faulted.frontier] == [m.label for m in clean.frontier]
    assert faulted.frontier_scores == clean.frontier_scores


def test_pareto_survives_quarantined_point(toy_bn, toy_points):
    clear_caches()
    configure_faults(
        FaultPlan.parse(f"worker.evaluate:crash@1*{QUARANTINE_AFTER}"))
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        result = explorer.explore_pareto(toy_points, ("throughput", "area"))
        assert explorer.reliability.points_quarantined == 1
        assert len(explorer.failures) == 1
        quarantined = explorer.failures[0].label
    assert result.frontier                    # frontier built from survivors
    assert all(m.label != quarantined for m in result.frontier)


# ---------------------------------------------------------------------------
# Parallel path: timeouts kill the stalled worker, rest of sweep unharmed
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_eval_timeout_recovers_hung_worker(
        toy_bn, toy_points, baseline, tmp_path, monkeypatch):
    # One globally-budgeted hang (the dir= token bounds it across pool
    # workers): the stalled worker is killed at the chunk timeout, its chunk
    # resubmitted, and the sweep still matches the fault-free ranking.
    from repro.reliability.faults import configure_faults_from_env

    monkeypatch.setenv("FINESSE_FAULT_HANG_S", "120")
    monkeypatch.setenv(
        FAULTS_ENV, f"worker.evaluate:hang@1*1;dir={tmp_path}")
    # Activate in this process too: forked pool workers inherit the parent's
    # injector (they do not re-import repro), spawned ones re-read the env.
    configure_faults_from_env()
    # The ``baseline`` fixture left every kernel in the parent's memory tier,
    # and the parent answers cached points itself: empty it, so that the pool
    # (and the hang inside it) is still what this test exercises.
    clear_caches()
    monkeypatch.setenv(EVAL_TIMEOUT_ENV, "10")
    with ParallelExplorer(toy_bn, workers=2) as explorer:
        ranked = explorer.explore(toy_points, objective="throughput")
        assert explorer.reliability.eval_timeouts >= 1
        assert explorer.reliability.chunks_resubmitted >= 1
        assert not explorer.failures
    assert _ranked_key(ranked) == _ranked_key(baseline)


# ---------------------------------------------------------------------------
# Knobs: validators, env defaults, runner flags
# ---------------------------------------------------------------------------

def test_validate_max_retries():
    assert validate_max_retries(0) == 0
    assert validate_max_retries(7) == 7
    for bad in (-1, 1.5, True, "2"):
        with pytest.raises(DSEError):
            validate_max_retries(bad)


def test_validate_eval_timeout():
    assert validate_eval_timeout(1.5) == 1.5
    assert validate_eval_timeout(10) == 10.0
    assert validate_eval_timeout(None) is None
    for bad in (0, -2.0, True):
        with pytest.raises(DSEError):
            validate_eval_timeout(bad)


def test_env_defaults(toy_bn, monkeypatch):
    def defaults():
        explorer = ParallelExplorer(toy_bn, workers=1)
        return explorer.max_retries, explorer.eval_timeout

    monkeypatch.delenv(MAX_RETRIES_ENV, raising=False)
    monkeypatch.delenv(EVAL_TIMEOUT_ENV, raising=False)
    assert defaults() == (DEFAULT_MAX_RETRIES, None)
    monkeypatch.setenv(MAX_RETRIES_ENV, "5")
    monkeypatch.setenv(EVAL_TIMEOUT_ENV, "2.5")
    assert defaults() == (5, 2.5)
    # Garbage in the environment falls back silently (flags validate loudly).
    monkeypatch.setenv(MAX_RETRIES_ENV, "many")
    monkeypatch.setenv(EVAL_TIMEOUT_ENV, "soon")
    assert defaults() == (DEFAULT_MAX_RETRIES, None)


def test_explorer_ctor_validates_knobs(toy_bn):
    """``workers`` is the one constructor knob; the failure-handling knobs
    come from the environment only (``test_env_defaults``)."""
    for bad in (0, -1, 1.5, True):
        with pytest.raises(DSEError, match="workers"):
            ParallelExplorer(toy_bn, workers=bad)
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, workers=1, max_retries=1)
    with pytest.raises(TypeError):
        ParallelExplorer(toy_bn, workers=1, eval_timeout=10.0)


def test_runner_flags_export_env(monkeypatch):
    monkeypatch.delenv(MAX_RETRIES_ENV, raising=False)
    monkeypatch.delenv(EVAL_TIMEOUT_ENV, raising=False)
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: {})
    assert runner.main(["--max-retries", "4", "--eval-timeout", "30"]) == 0
    assert os.environ[MAX_RETRIES_ENV] == "4"
    assert os.environ[EVAL_TIMEOUT_ENV] == "30.0"


@pytest.mark.parametrize("flags", [
    ["--max-retries", "lots"],
    ["--max-retries", "-1"],
    ["--eval-timeout", "soon"],
    ["--eval-timeout", "0"],
])
def test_runner_flags_reject_bad_values(flags, monkeypatch):
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: {})
    with pytest.raises(DSEError):
        runner.main(flags)


def test_malformed_faults_env_fails_explorer_loudly(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "worker.evaluate:oops")
    from repro.reliability.faults import configure_faults_from_env

    with pytest.raises(ReliabilityError):
        configure_faults_from_env()


@pytest.mark.slow
def test_parallel_crash_plus_store_corruption_bit_identical(
        toy_bn, toy_points, baseline, tmp_path, monkeypatch):
    """Acceptance bar: one worker crash + one torn store write at workers=4,
    rankings and frontiers still bit-identical to the fault-free run."""
    from repro.compiler.store import configure_store, reset_store_state
    from repro.reliability.faults import configure_faults_from_env

    tokens = tmp_path / "tokens"
    tokens.mkdir()
    configure_store(tmp_path / "store")
    clear_caches()          # force real compiles so the store faults can fire
    monkeypatch.setenv(
        FAULTS_ENV,
        f"worker.evaluate:crash@1*1;store.write:torn@1*1;dir={tokens};seed=5")
    configure_faults_from_env()
    try:
        with ParallelExplorer(toy_bn, workers=4) as explorer:
            ranked = explorer.explore(toy_points, objective="throughput")
            crashes = explorer.reliability.worker_crashes
            assert not explorer.failures
            pareto = explorer.explore_pareto(toy_points, ("throughput", "area"))
            assert not explorer.failures
    finally:
        reset_store_state()
    assert crashes >= 1
    assert _ranked_key(ranked) == _ranked_key(baseline)
    os.environ.pop(FAULTS_ENV, None)
    configure_faults(None)
    with ParallelExplorer(toy_bn, workers=1) as explorer:
        clean = explorer.explore_pareto(toy_points, ("throughput", "area"))
    assert pareto.labels() == clean.labels()
    assert pareto.frontier_scores == clean.frontier_scores
