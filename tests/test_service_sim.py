"""Virtual-time model of the batching service: arrivals, policy replay, metrics."""

from __future__ import annotations

import asyncio
import selectors

import pytest

from repro.errors import ServiceError
from repro.service import arrival_times, percentile, simulate_batch_queue
from repro.service.batcher import DynamicBatcher


# ---------------------------------------------------------------------------
# Percentiles (shared by live metrics and the simulator)
# ---------------------------------------------------------------------------

def test_percentile_nearest_rank():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 50) == 30
    assert percentile(values, 95) == 50
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 50
    assert percentile([], 50) == 0.0


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("q", [150, -1, float("nan")])
def test_percentile_checks_q_before_the_empty_sample_shortcut(q):
    """An empty sample used to answer ``0.0`` before ``q`` was looked at."""
    with pytest.raises(ValueError):
        percentile([], q)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

def test_uniform_arrivals_exact_spacing():
    times = arrival_times(5, 10.0, distribution="uniform")
    assert times == [0.0, 0.1, 0.2, 0.3, 0.4]


def test_poisson_arrivals_deterministic_and_monotone():
    a = arrival_times(64, 100.0, distribution="poisson", seed=42)
    b = arrival_times(64, 100.0, distribution="poisson", seed=42)
    assert a == b
    assert a[0] == 0.0
    assert all(x <= y for x, y in zip(a, a[1:]))
    assert arrival_times(64, 100.0, distribution="poisson", seed=43) != a


def test_burst_arrivals_group_back_to_back():
    times = arrival_times(8, 4.0, distribution="burst", burst=4)
    assert times == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("kwargs", [
    {"n": -1, "rate": 1.0},
    {"n": 4, "rate": 0.0},
    {"n": 4, "rate": 1.0, "distribution": "bimodal"},
    {"n": 4, "rate": 1.0, "distribution": "burst", "burst": 0},
    {"n": 3, "rate": float("nan")},           # was [0.0, nan, nan]
    {"n": 3, "rate": float("inf")},           # was [0.0, 0.0, 0.0]
])
def test_arrival_times_validation(kwargs):
    with pytest.raises(ServiceError):
        arrival_times(**kwargs)


# ---------------------------------------------------------------------------
# The batch-queue replay
# ---------------------------------------------------------------------------

def test_simulator_deadline_flush():
    """A lone request waits out its deadline, then is served alone."""
    result = simulate_batch_queue([0.0], lambda k: 1.0, max_batch=8, deadline=5.0)
    assert result.batch_sizes == [1]
    assert result.latencies == [6.0]      # flush at deadline 5, serve for 1
    assert result.completed == 1


def test_simulator_max_batch_flush_before_deadline():
    """The batch flushes the instant it fills, not at the deadline."""
    result = simulate_batch_queue([0.0, 1.0, 2.0, 3.0], lambda k: 2.0,
                                  max_batch=4, deadline=100.0)
    assert result.batch_sizes == [4]
    # starts when the 4th request arrives (t=3), finishes at t=5
    assert result.latencies == [5.0, 4.0, 3.0, 2.0]


def test_simulator_greedy_fill_under_backlog():
    """A saturated queue produces full batches with no deadline stalls."""
    result = simulate_batch_queue([0.0] * 8, lambda k: 1.0, max_batch=4, deadline=10.0)
    assert result.batch_sizes == [4, 4]
    assert result.batch_size_histogram() == {4: 2}
    # second batch waits for the server: finishes at t=2
    assert max(result.latencies) == 2.0
    assert result.sustained_throughput() == pytest.approx(8 / 2.0)


def test_simulator_batching_beats_serial_latency():
    """Same trace, same per-item cost: batching wins once serial service saturates.

    Serial capacity is 1/0.4 = 2.5 req/s; the offered 5 req/s drowns it, while
    a batch of 8 amortises the fixed tail (8 / 1.1 ≈ 7.3 req/s) and keeps up.
    """
    arrivals = arrival_times(64, 5.0, distribution="poisson", seed=7)

    def service_time(k):
        return 0.3 + 0.1 * k              # fixed final-exp tail + per-pair slope

    batched = simulate_batch_queue(arrivals, service_time, max_batch=8, deadline=0.5)
    serial = simulate_batch_queue(arrivals, service_time, max_batch=1, deadline=0.0)
    assert batched.latency_percentile(95) < serial.latency_percentile(95)
    assert batched.sustained_throughput() > serial.sustained_throughput()


def test_simulator_is_deterministic():
    arrivals = arrival_times(32, 5.0, distribution="poisson", seed=3)
    runs = [simulate_batch_queue(arrivals, lambda k: 0.1 + 0.02 * k,
                                 max_batch=4, deadline=0.4)
            for _ in range(2)]
    assert runs[0].latencies == runs[1].latencies
    assert runs[0].describe() == runs[1].describe()


# ---------------------------------------------------------------------------
# The live batcher and its twin on one trace
# ---------------------------------------------------------------------------

class _JumpingSelector(selectors.DefaultSelector):
    """A selector that, asked to wait, moves the loop's clock instead."""

    def __init__(self, loop):
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            raise RuntimeError("virtual clock: the loop would wait forever")
        self._loop.now += timeout
        return super().select(0)


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock starts at 0 and jumps to its next timer:
    every wait of the live batcher happens at its exact instant, in no
    wall-clock time."""

    def __init__(self):
        self.now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self):
        return self.now


def live_batches(arrivals, service_time, *, max_batch, deadline):
    """``(batch sizes, latencies)`` of the live batcher fed ``arrivals``, its
    flush occupying the server for ``service_time(batch size)``."""
    sizes = []

    async def flush(items):
        sizes.append(len(items))
        await asyncio.sleep(service_time(len(items)))
        return items

    async def scenario():
        loop = asyncio.get_running_loop()
        batcher = DynamicBatcher(flush, max_batch=max_batch, deadline_s=deadline,
                                 queue_bound=len(arrivals))
        await batcher.start()

        async def request(index, at):
            await asyncio.sleep(at)
            await batcher.admit(index)
            return loop.time() - at

        # A minute of virtual time: a batcher that never settles fails here.
        latencies = await asyncio.wait_for(
            asyncio.gather(*(request(i, at) for i, at in enumerate(arrivals))), timeout=60.0)
        await batcher.stop()
        return latencies

    loop = VirtualClockLoop()
    try:
        latencies = loop.run_until_complete(scenario())
    finally:
        loop.close()
    return sizes, latencies


#: Sparse arrivals, a burst of twelve 3 ms apart, then sparse arrivals again.
TWIN_TRACE = ([0.2 * i for i in range(4)] + [0.8 + 0.003 * i for i in range(12)]
              + [0.833 + 0.2 * i for i in range(1, 5)])


def test_the_live_batcher_and_its_twin_form_the_same_batches():
    """Sparse traffic is flushed request by request (the first after the
    whole deadline: no gap is known yet), the burst coalesces once the mean
    gap has fallen below the deadline, and the first sparse arrival after it
    is flushed at once again."""
    def service_time(k):
        return 0.004 + 0.001 * k

    knobs = dict(max_batch=4, deadline=0.05)
    sizes, latencies = live_batches(TWIN_TRACE, service_time, **knobs)
    twin = simulate_batch_queue(TWIN_TRACE, service_time, **knobs)
    assert sizes == twin.batch_sizes == [1, 1, 1, 1] + [1, 1, 2, 2, 2, 4] + [1, 1, 1, 1]
    assert latencies == pytest.approx(twin.latencies, abs=1e-9)
    assert twin.latencies[:2] == pytest.approx([0.05 + 0.005, 0.005])


def test_simulator_validation():
    with pytest.raises(ServiceError):
        simulate_batch_queue([1.0, 0.5], lambda k: 1.0, max_batch=2, deadline=0.0)
    with pytest.raises(ServiceError):
        simulate_batch_queue([0.0], lambda k: -1.0, max_batch=1, deadline=0.0)
    with pytest.raises(ServiceError):
        simulate_batch_queue([0.0], lambda k: 1.0, max_batch=0, deadline=0.0)


@pytest.mark.parametrize("knobs", [
    {"max_batch": 1.5},                           # died with a bare TypeError
    {"max_batch": True}, {"deadline": float("nan")}, {"deadline": float("inf")},
])
def test_the_twin_refuses_the_knobs_the_live_batcher_refuses(knobs):
    knobs = {"max_batch": 2, "deadline": 0.0, **knobs}
    with pytest.raises(ServiceError):
        simulate_batch_queue([0.0, 0.0], lambda k: 1.0, **knobs)
    with pytest.raises(ServiceError):
        DynamicBatcher(lambda items: items, max_batch=knobs["max_batch"],
                       deadline_s=knobs["deadline"], queue_bound=4)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), None])
def test_simulator_rejects_a_non_finite_service_time(duration):
    with pytest.raises(ServiceError, match="service_time"):     # was NaN percentiles
        simulate_batch_queue([0.0], lambda k: duration, max_batch=1, deadline=0.0)
