"""Reliability primitives: fault plans, retry/backoff, circuit breaker."""

import os
import pickle

import pytest

from repro.errors import (
    CompilerError,
    InjectedFaultError,
    ReliabilityError,
    ServiceError,
    WorkerCrashError,
)
from repro.obs import Counters
from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    call_with_retries,
    configure_faults,
    configure_faults_from_env,
)
from repro.reliability import faults as faults_module
from repro.reliability.faults import FAULTS_ENV


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    os.environ.pop(FAULTS_ENV, None)
    configure_faults(None)


# ---------------------------------------------------------------------------
# FaultPlan grammar
# ---------------------------------------------------------------------------

def test_plan_parse_full_grammar(tmp_path):
    plan = FaultPlan.parse(
        f"store.read:truncate@2;worker.evaluate:crash*3;compile:error~0.25;"
        f"service.verify_batch:error@4*inf;seed=99;dir={tmp_path}"
    )
    assert plan.seed == 99
    assert plan.state_dir == str(tmp_path)
    by_point = {spec.point: spec for spec in plan.specs}
    assert by_point["store.read"].mode == "truncate"
    assert by_point["store.read"].nth == 2
    assert by_point["worker.evaluate"].count == 3
    assert by_point["compile"].prob == 0.25
    assert by_point["service.verify_batch"].count >= 10**9
    # describe() round-trips through parse()
    assert FaultPlan.parse(plan.describe()) == plan


def test_plan_parse_empty_and_whitespace():
    assert FaultPlan.parse("").specs == ()
    assert FaultPlan.parse(" ; ; ").specs == ()


@pytest.mark.parametrize("bad", [
    "nonsense",
    "store.read",                      # missing mode
    "bogus.point:error",               # unknown point
    "store.read:crash",                # unsupported mode for the point
    "compile:error@0",                 # nth < 1
    "compile:error*0",                 # count < 1
    "compile:error~1.5",               # prob out of range
    "compile:error~x",                 # unparseable prob
    "seed=pi",
    "dir=",
])
def test_plan_parse_rejects_malformed(bad):
    with pytest.raises(ReliabilityError):
        FaultPlan.parse(bad)


def test_configure_faults_rejects_wrong_type():
    with pytest.raises(ReliabilityError):
        configure_faults(42)


def test_env_activation_and_reset(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "compile:error@1")
    injector = configure_faults_from_env()
    assert faults_module.ACTIVE is injector
    assert injector.plan.specs[0].point == "compile"
    monkeypatch.delenv(FAULTS_ENV)
    assert configure_faults_from_env() is None
    assert faults_module.ACTIVE is None


def test_env_activation_fails_loudly_on_typos(monkeypatch):
    # A malformed plan must raise, not silently disable injection: a chaos
    # run with no faults would pass its match-the-baseline assertions
    # vacuously.
    monkeypatch.setenv(FAULTS_ENV, "store.read:truncat")
    with pytest.raises(ReliabilityError):
        configure_faults_from_env()


# ---------------------------------------------------------------------------
# FaultInjector firing and corruption
# ---------------------------------------------------------------------------

def test_injector_window_and_counters():
    injector = FaultInjector(FaultPlan.parse("compile:error@2*2"))
    injector.apply("compile")                      # hit 1: before window
    for _ in range(2):                             # hits 2 and 3: in window
        with pytest.raises(CompilerError):
            injector.apply("compile")
    injector.apply("compile")                      # hit 4: after window
    snap = injector.snapshot()
    assert snap["hits"]["compile"] == 4
    assert snap["fired"]["compile:error"] == 2


def test_injector_error_types_per_point():
    for point, expected in [
        ("store.read", OSError),
        ("store.write", OSError),
        ("compile", CompilerError),
        ("worker.evaluate", InjectedFaultError),
        ("service.verify_batch", ServiceError),
    ]:
        injector = FaultInjector(FaultPlan.parse(f"{point}:error@1"))
        with pytest.raises(expected):
            injector.apply(point, b"payload" if point.startswith("store") else None)


def test_injector_enospc_carries_errno():
    import errno

    injector = FaultInjector(FaultPlan.parse("store.write:enospc@1"))
    with pytest.raises(OSError) as exc_info:
        injector.apply("store.write", b"payload")
    assert exc_info.value.errno == errno.ENOSPC


def test_injector_crash_raises_in_process():
    injector = FaultInjector(FaultPlan.parse("worker.evaluate:crash@1"))
    with pytest.raises(WorkerCrashError):
        injector.apply("worker.evaluate")


@pytest.mark.parametrize("mode", ["truncate", "torn", "garbage", "flip"])
def test_corruption_modes_change_bytes_deterministically(mode):
    data = bytes(range(200))
    first = FaultInjector(FaultPlan.parse(f"store.read:{mode}@1;seed=5"))
    second = FaultInjector(FaultPlan.parse(f"store.read:{mode}@1;seed=5"))
    corrupted = first.apply("store.read", data)
    assert corrupted != data
    # Same plan, same seed -> identical corruption (determinism contract).
    assert second.apply("store.read", data) == corrupted


def test_injector_probabilistic_is_seeded():
    def fires(seed):
        injector = FaultInjector(FaultPlan.parse(f"compile:error~0.5;seed={seed}"))
        out = []
        for _ in range(32):
            try:
                injector.apply("compile")
                out.append(False)
            except CompilerError:
                out.append(True)
        return out

    assert fires(3) == fires(3)
    assert any(fires(3)) and not all(fires(3))


def test_injector_unknown_point_raises():
    injector = FaultInjector(FaultPlan.parse("compile:error@1"))
    with pytest.raises(ReliabilityError):
        injector.apply("no.such.point")


def test_token_dir_bounds_fires_across_injectors(tmp_path):
    # Two injectors share a state dir: a *1 budget fires exactly once in
    # total, modelling one crash budget across respawned pool workers.
    plan = FaultPlan.parse(f"compile:error@1*1;dir={tmp_path}")
    first, second = FaultInjector(plan), FaultInjector(plan)
    with pytest.raises(CompilerError):
        first.apply("compile")
    second.apply("compile")          # budget exhausted by the first injector
    assert second.snapshot()["fired"] == {}


def test_inactive_by_default():
    configure_faults(None)
    assert faults_module.ACTIVE is None


# ---------------------------------------------------------------------------
# RetryPolicy / call_with_retries
# ---------------------------------------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ReliabilityError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ReliabilityError):
        RetryPolicy(max_retries=True)
    for delays in ({"base_delay_s": -0.1}, {"base_delay_s": True},
                   {"base_delay_s": float("inf")}, {"max_delay_s": float("nan")},
                   {"max_delay_s": True}, {"max_delay_s": float("inf")}):
        with pytest.raises(ReliabilityError):
            RetryPolicy(**delays)


def test_backoff_is_full_jitter_within_cap():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.1, max_delay_s=0.4, seed=7)
    rng = policy.rng("point-a")
    for attempt in range(6):
        cap = min(0.4, 0.1 * 2 ** attempt)
        delay = policy.backoff_s(attempt, rng)
        assert 0.0 <= delay <= cap
    # Deterministic per (seed, label), distinct across labels.
    again = [RetryPolicy(seed=7).rng("x").uniform(0, 1) for _ in range(2)]
    assert again == [RetryPolicy(seed=7).rng("x").uniform(0, 1) for _ in range(2)]


def test_call_with_retries_heals_transients():
    attempts = {"n": 0}
    events = []

    def flaky():
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise OSError("transient")
        return "ok"

    result = call_with_retries(
        flaky, RetryPolicy(max_retries=2, base_delay_s=0.0),
        label="p", on_retry=lambda a, e, d: events.append((a, type(e).__name__)),
    )
    assert result == "ok"
    assert events == [(0, "OSError"), (1, "OSError")]


def test_call_with_retries_exhausts_budget():
    def always_fails():
        raise OSError("persistent")

    with pytest.raises(OSError):
        call_with_retries(always_fails, RetryPolicy(max_retries=1, base_delay_s=0.0))


def test_call_with_retries_skips_non_retryable():
    calls = {"n": 0}

    def programming_error():
        calls["n"] += 1
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        call_with_retries(programming_error,
                          RetryPolicy(max_retries=5, base_delay_s=0.0))
    assert calls["n"] == 1

    def crash():
        calls["n"] += 1
        raise WorkerCrashError("boom")

    with pytest.raises(WorkerCrashError):
        call_with_retries(crash, RetryPolicy(max_retries=5, base_delay_s=0.0))
    assert calls["n"] == 2


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_trips_cools_probes_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0, clock=clock)
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == CLOSED        # below threshold
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.trips == 1
    assert not breaker.allow()
    clock.now = 9.9
    assert not breaker.allow()            # still cooling
    clock.now = 10.0
    assert breaker.state == HALF_OPEN
    assert breaker.allow()                # the single probe
    assert not breaker.allow()            # second caller must wait on it
    assert breaker.probes == 1
    breaker.record_success()
    assert breaker.state == CLOSED and breaker.allow()


def test_breaker_failed_probe_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.now = 5.0
    assert breaker.allow()
    breaker.record_failure()              # probe failed
    assert breaker.state == OPEN and breaker.trips == 2
    clock.now = 9.0
    assert not breaker.allow()            # cooldown restarted at t=5
    clock.now = 10.0
    assert breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED        # streak broken, no trip
    assert breaker.snapshot()["consecutive_failures"] == 1


def test_breaker_validation():
    with pytest.raises(ReliabilityError):
        CircuitBreaker(failure_threshold=0)
    for cooldown in (-1.0, True, float("inf"), float("nan"), "1"):
        with pytest.raises(ReliabilityError):
            CircuitBreaker(cooldown_s=cooldown)


# ---------------------------------------------------------------------------
# Recovery counters (repro.obs.Counters)
# ---------------------------------------------------------------------------

def test_reliability_stats_merge_snapshot_reset():
    stats = Counters("retries", "backoff_s", "worker_crashes", floats=("backoff_s",))
    assert not any(stats.snapshot().values())
    assert stats.snapshot()["backoff_s"] == 0.0
    stats.merge({"retries": 2, "backoff_s": 0.5})
    stats.worker_crashes += 1
    snap = stats.snapshot()
    assert snap["retries"] == 2
    assert snap["backoff_s"] == 0.5
    assert snap["worker_crashes"] == 1
    assert any(stats.snapshot().values())
    # A delta is exact and plain (it crosses the process pool); merging one
    # from a peer adds it, and an undeclared counter is refused.
    peer = Counters("retries", "backoff_s", "worker_crashes", floats=("backoff_s",))
    before = peer.delta()
    peer.retries += 1
    peer.backoff_s += 1 / 3
    delta = pickle.loads(pickle.dumps(peer.delta(before)))
    assert delta == {"retries": 1, "backoff_s": 1 / 3, "worker_crashes": 0}
    stats.merge(delta)
    assert stats.snapshot() == {"retries": 3, "backoff_s": 0.8333, "worker_crashes": 1}
    with pytest.raises(AttributeError):
        stats.merge({"typo": 1})
    stats.reset()
    assert not any(stats.snapshot().values())
    # ``hit_rate`` is derived wherever hits and misses are counted.
    cache = Counters("hits", "misses")
    assert cache.snapshot() == {"hits": 0, "misses": 0, "hit_rate": 0.0}
    cache.hits, cache.misses = 2, 1
    assert cache.snapshot()["hit_rate"] == 0.6667


def test_fault_spec_validation_direct():
    with pytest.raises(ReliabilityError):
        FaultSpec(point="compile", mode="error", nth=0)
    with pytest.raises(ReliabilityError):
        FaultSpec(point="compile", mode="error", prob=0.0)
