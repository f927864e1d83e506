"""The six ledger workloads.

Each workload is one loop over one kind of operation, so every end-to-end
metric means the same thing in every row: ``ops_per_s`` and ``op_ms_p50``
describe that workload's operation (``op_unit``).  Constructing a workload is
its set-up (curve, seeded inputs, warm-up); ``measure`` is the timed window;
``check`` compares what the program returned against a reference that does
not come from the code under test; ``counts`` names the quantities of the run
that do not depend on the host's speed and must repeat exactly.

Layers are measured from outside: with a :class:`harness.SpanRecorder` the
pairing and compile operations are replayed stage by stage through the
layers' public functions, one span around each call.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from harness import CALIB_REFERENCE_S, calibration_slice, host_speed

from repro.compiler.asm import assemble
from repro.compiler.bankalloc import allocate_banks
from repro.compiler.codegen import generate_pairing_ir
from repro.compiler.opt import optimize
from repro.compiler.pipeline import clear_caches, compile_pairing
from repro.compiler.regalloc import allocate_registers
from repro.compiler.schedule import affinity_schedule
from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.space import design_points, named_variant_configs
from repro.errors import ServiceError
from repro.fields.variants import VariantConfig
from repro.hw.presets import default_model, figure10_models
from repro.ir.lowering import lower_module
from repro.pairing.ate import as_affine_pair, optimal_ate_pairing
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import easy_part, hard_part
from repro.pairing.miller import miller_loop
from repro.service import ServiceConfig, VerificationService, make_groth16_requests
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator

PAPER_CURVE = "BLS12-381"
TOY_CURVE = "TOY-BN42"


@dataclass
class Measured:
    """One timed window: per-op seconds at reference host speed, and as measured.

    ``wall_s`` is the time the operations took together, at reference host
    speed; for a loop of sequential operations that is the sum of the samples.
    """

    samples_s: list
    raw_s: list
    wall_s: float
    counts: dict = field(default_factory=dict)


def timed_loop(op, seconds: float, max_ops=None, before=None, after=None) -> Measured:
    """Call ``op(i)`` until ``seconds`` of *timed* work (or ``max_ops``) is done.

    ``before``/``after`` run outside the timed region (cache clearing,
    correctness checks), so ops/s counts only time spent in the program.
    The host's speed is sampled after every operation, for a twentieth of the
    operation's time, and the operation's time is divided by the mean of the
    samples on either side of it.  A window holds two operations at least,
    whatever ``seconds`` says: a median needs them.
    """
    raw, scaled = [], []
    elapsed = 0.0
    speed = host_speed()
    for i in itertools.count():
        if before is not None:
            before()
        start = time.perf_counter()
        result = op(i)
        raw.append(time.perf_counter() - start)
        elapsed += raw[-1]
        speed_before, speed = speed, host_speed(0.05 * raw[-1])
        scaled.append(raw[-1] / ((speed_before + speed) / 2))
        if after is not None:
            after(i, result)
        del result
        if (i + 1 >= max_ops) if max_ops is not None else (i >= 1 and elapsed >= seconds):
            return Measured(scaled, raw, sum(scaled))


# ---------------------------------------------------------------------------
# Staged replays (one span per call into a layer)
# ---------------------------------------------------------------------------

def staged_pairing(curve, P, Q, rec, op=None):
    """``optimal_ate_pairing`` through its public stages, one span each."""
    with rec.span("pairing", op):
        p_affine = as_affine_pair(P, role="P (G1 point)")
        q_affine = as_affine_pair(Q, role="Q (G2 point)")
        ctx = ConcretePairingContext(curve)
        with rec.span("pairing.miller"):
            f = miller_loop(ctx, p_affine, q_affine, use_naf=True)
        with rec.span("pairing.final_exp.easy"):
            f = easy_part(ctx, f)
        with rec.span("pairing.final_exp.hard"):
            return hard_part(ctx, f, mode="cyclotomic")


@dataclass
class StagedCompile:
    """What a stage-by-stage compile yields, under ``CompileResult``'s names."""

    hl_instructions: int
    initial_instructions: int
    final_instructions: int
    low_module: object
    schedule: object
    cycle_stats: object
    total_registers: int
    program: object

    @property
    def cycles(self) -> int:
        return self.cycle_stats.total_cycles

    @property
    def imem_bits(self) -> int:
        return self.program.binary_size_bits()


def kernel_facts(result) -> tuple:
    """What a ``CompileResult`` or :class:`StagedCompile` built, for equality checks."""
    return (result.cycles, result.imem_bits, result.hl_instructions,
            result.initial_instructions, result.final_instructions,
            result.total_registers)


def staged_compile(curve, rec, op=None) -> StagedCompile:
    """``CompilerPipeline.compile`` stage by stage, in its order, uncached."""
    hw = default_model(curve.params.p.bit_length()).validate()
    config = VariantConfig.all_karatsuba()
    with rec.span("compile", op):
        with rec.span("ir.codegen"):
            hl = generate_pairing_ir(curve, use_naf=True, final_exp_mode="generic")
        with rec.span("ir.lowering"):
            low = lower_module(hl, curve.tower.levels, config)
        with rec.span("compiler.iropt"):
            optimized, _ = optimize(low, curve.params.p)
        with rec.span("compiler.bankalloc"):
            banks = allocate_banks(optimized, hw)
        with rec.span("compiler.packsched"):
            schedule = affinity_schedule(optimized, hw, banks, use_affinity=True)
        with rec.span("sim.cycle_run"):
            cycle_stats = CycleAccurateSimulator().run(schedule)
        with rec.span("compiler.regalloc"):
            allocation = allocate_registers(schedule)
        with rec.span("compiler.asm"):
            program = assemble(schedule, allocation, name=f"{curve.name}-{hw.name}")
    return StagedCompile(
        hl_instructions=hl.count_compute_ops(), initial_instructions=low.count_compute_ops(),
        final_instructions=optimized.count_compute_ops(), low_module=low, schedule=schedule,
        cycle_stats=cycle_stats, total_registers=allocation.total_registers,
        program=program)


def kernel_inputs(P, Q) -> dict:
    inputs = {}
    for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y)):
        for j, coeff in enumerate(value.to_base_coeffs()):
            inputs[(name, j)] = coeff
    return inputs


def kernel_result(program, curve, P, Q) -> list:
    """The compiled kernel's output coefficients on the functional simulator."""
    outputs = FunctionalSimulator(program, curve.params.p).run(kernel_inputs(P, Q)).outputs
    return [outputs[("result", j)] for j in range(curve.params.k)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class PairingWorkload:
    """Closed loop, one caller: ``optimal_ate_pairing`` over 8 seeded (P, Q)."""

    op_unit = "pairing"
    N_INPUTS = 8

    def __init__(self, seed: int, curve_name: str = PAPER_CURVE):
        self.curve = get_curve(curve_name)
        rng = random.Random(seed)
        self.inputs = [(self.curve.random_g1(rng), self.curve.random_g2(rng))
                       for _ in range(self.N_INPUTS)]
        self.outputs: list = []
        for P, Q in self.inputs[:2]:                       # warm-up
            optimal_ate_pairing(self.curve, P, Q)

    def _op(self, i, rec):
        P, Q = self.inputs[i % self.N_INPUTS]
        if rec is None:
            return optimal_ate_pairing(self.curve, P, Q)
        return staged_pairing(self.curve, P, Q, rec, op=i)

    def measure(self, seconds, rec=None, max_ops=None) -> Measured:
        return timed_loop(
            lambda i: self._op(i, rec), seconds, max_ops,
            after=lambda i, e: self.outputs.append((i % self.N_INPUTS, e)))

    def reference(self):
        """The textbook oracle for input 0 (shares no code with the fast path)."""
        P, Q = self.inputs[0]
        naive = optimal_ate_pairing(self.curve, P, Q, mode="reference")
        return naive ** self.curve.final_exp_plan.c

    def check(self) -> tuple:
        expected = {0: self.reference()}
        failed = 0
        for index, value in self.outputs:
            if index not in expected:
                # First sight of this input: it must at least be a non-trivial
                # element of G_T; every repeat must then reproduce it bit for bit.
                valid = self.curve.is_valid_gt(value) and not value.is_one()
                expected[index] = value if valid else None
            if expected[index] is None or value != expected[index]:
                failed += 1
        return len(self.outputs), failed

    def counts(self) -> dict:
        return {}


class CompileWorkload:
    """Closed loop, one caller: cold ``compile_pairing`` on the default model."""

    op_unit = "cold compile"

    def __init__(self, seed: int, curve_name: str = PAPER_CURVE):
        self.curve = get_curve(curve_name)
        rng = random.Random(seed)
        self.point = (self.curve.random_g1(rng), self.curve.random_g2(rng))
        self.facts: list = []          # what each op built, and what the kernel outputs

    def reference(self) -> list:
        """The software pairing's coefficients: what every kernel must output."""
        return optimal_ate_pairing(self.curve, *self.point).to_base_coeffs()

    def _before(self):
        # Collect the previous kernel before timing the next compile: without
        # this each compile in a process is slower than the one before it
        # (4.8, 6.1, 7.4 s measured), and the median would count the drift.
        gc.collect()
        clear_caches()

    def _op(self, i, rec):
        if rec is None:
            return compile_pairing(self.curve, use_cache=False)
        return staged_compile(self.curve, rec, op=i)

    def _after(self, i, result):
        self.facts.append((kernel_facts(result),
                           kernel_result(result.program, self.curve, *self.point)))

    def measure(self, seconds, rec=None, max_ops=None) -> Measured:
        return timed_loop(lambda i: self._op(i, rec), seconds, max_ops,
                          before=self._before, after=self._after)

    def check(self) -> tuple:
        # Every op, staged replays included, must have built the same kernel
        # (cycles, code size, operation counts, registers) as the first.
        golden = self.reference()
        first = self.facts[0][0]
        failed = sum(1 for built, output in self.facts
                     if output != golden or built != first)
        return len(self.facts), failed

    def counts(self) -> dict:
        """Simulated quantities of the kernel: a host-speed change must not move them."""
        cycles, imem_bits = self.facts[0][0][:2]
        return {"model_cycles": cycles, "model_imem_kbits": imem_bits / 1e3}


class _SweepWorkload:
    """Shared by the two DSE workloads: 9 points on the toy curve, 2 workers."""

    op_unit = "9-point sweep"
    WORKERS = 2
    N_MODELS = 3
    OBJECTIVE = "efficiency"
    cold = True

    def __init__(self, seed: int, curve_name: str = TOY_CURVE):
        # The design space is the input here and it is fixed: the seed does
        # not alter it.  Even the order is kept, because which points share a
        # chunk decides how much stage-cache reuse a worker sees (shuffling
        # moved the cold sweep by 11 % between seeds).
        self.curve = get_curve(curve_name)
        bits = self.curve.params.p.bit_length()
        self.points = design_points(named_variant_configs().values(),
                                    figure10_models(bits)[:self.N_MODELS])
        self.rankings: list = []
        self.reports: list = []

    def sweep(self, workers: int):
        with ParallelExplorer(self.curve, workers=workers) as explorer:
            ranked = explorer.explore(self.points, self.OBJECTIVE)
        return [(m.label, m.cycles) for m in ranked], explorer.last_report

    def _after(self, i, result):
        ranking, report = result
        self.rankings.append(ranking)
        self.reports.append(report)

    def measure(self, seconds, rec=None, max_ops=None) -> Measured:
        def op(i):
            if rec is None:
                return self.sweep(self.WORKERS)
            with rec.span("dse.sweep", op=i):
                return self.sweep(self.WORKERS)

        return timed_loop(op, seconds, max_ops,
                          before=lambda: clear_caches(disk=self.cold), after=self._after)

    def reference(self) -> list:
        """The same space ranked by one process from the disk tier."""
        clear_caches()
        return self.sweep(1)[0]

    def check(self) -> tuple:
        n = len(self.points)
        misses, disk_hits = (n, 0) if self.cold else (0, n)
        expected = self.reference()
        failed = sum(
            1 for ranking, report in zip(self.rankings, self.reports)
            if ranking != expected or len(ranking) != n
            or report.cache_stats["result"]["misses"] != misses
            or report.cache_stats["disk"]["hits"] != disk_hits)
        return len(self.rankings), failed

    def counts(self) -> dict:
        stats = self.reports[-1].cache_stats
        return {"compile_misses": stats["result"]["misses"],
                "disk_hits": stats["disk"]["hits"]}


class DseColdWorkload(_SweepWorkload):
    """Closed loop: every sweep starts from empty memory and disk tiers."""


class DseWarmWorkload(_SweepWorkload):
    """Closed loop: every sweep starts from an empty memory tier and a full disk tier."""

    cold = False

    def __init__(self, seed: int, curve_name: str = TOY_CURVE):
        super().__init__(seed, curve_name)
        clear_caches(disk=True)
        self.sweep(self.WORKERS)                            # fill the disk tier


class _ServiceWorkload:
    """Shared by the two service workloads: Groth16 traffic, fresh service per window."""

    op_unit = "Groth16 request"
    POOL = 16
    CONFIG = dict(max_batch=8, deadline_ms=20.0, queue_bound=256)
    CALLERS = 8             # closed-loop callers: one full batch
    RATE_RPS = 2.0          # open-loop arrival rate

    def __init__(self, seed: int, curve_name: str = PAPER_CURVE):
        self.seed = seed
        self.curve = get_curve(curve_name)
        # Valid requests only inside the timed window: one forged request
        # sends its whole batch down the exact fallback (8 extra products),
        # and whether the window catches one or two of them would decide the
        # throughput.  The forged request is driven by check() instead.
        self.requests = make_groth16_requests(self.curve, self.POOL, seed=seed)
        self.outcomes: list = []       # (verdict == expected) or None if refused
        self.snapshots: list = []
        with self.live_service() as (service, run):        # warm-up
            run(self._burst(service, self.requests[:8]))
        self.outcomes.clear()
        self.snapshots.clear()

    @contextmanager
    def live_service(self):
        """A fresh running service: yields it with its event loop's ``run_until_complete``.

        The loop only runs inside ``run(...)``, so between two calls the
        service is idle and the caller may sample the host's speed.
        """
        loop = asyncio.new_event_loop()
        service = VerificationService(self.curve, ServiceConfig(**self.CONFIG),
                                      rng=random.Random(self.seed))
        loop.run_until_complete(service.start())
        try:
            yield service, loop.run_until_complete
        finally:
            loop.run_until_complete(service.stop())
            loop.close()
            metrics = service.metrics
            self.snapshots.append({
                "busy_s": metrics.busy_s, "batches": metrics.batches,
                "batch_sizes": list(metrics.batch_sizes),
                "fused_batches": metrics.fused_batches,
                "fused_failures": metrics.fused_failures,
                "rejected": metrics.rejected + metrics.shed,
                "vk": service.vk_cache.stats(),
            })

    async def _verify(self, service, request, expected):
        try:
            verdict = await service.verify(request)
        except ServiceError:
            self.outcomes.append(None)
        else:
            self.outcomes.append(verdict == expected)

    async def _burst(self, service, requests):
        await asyncio.gather(*(self._verify(service, request, expected)
                               for request, expected in requests))

    def check(self) -> tuple:
        # One batch holding a forged proof: the fused check must fail and the
        # fallback must attribute the rejection to exactly that request.
        forged = make_groth16_requests(self.curve, 4, seed=self.seed + 1,
                                       forge_fraction=1 / 4)
        with self.live_service() as (service, run):
            run(self._burst(service, forged))
        failed = sum(1 for outcome in self.outcomes if outcome is not True)
        return len(self.outcomes), failed

    def counts(self) -> dict:
        refused = sum(snapshot["rejected"] for snapshot in self.snapshots)
        return {"rejected_share": refused / len(self.outcomes)}

    # -- closed loop -------------------------------------------------------

    async def _round(self, service, first, size, rec):
        async def caller(i):
            request, expected = self.requests[i % self.POOL]
            start = time.perf_counter()
            await self._verify(service, request, expected)
            end = time.perf_counter()
            if rec is not None:
                rec.add("service.request", start, end, op=i)
            return end - start

        return await asyncio.gather(*(caller(first + k) for k in range(size)))

    def saturate(self, seconds, rec=None, max_ops=None) -> Measured:
        """Closed loop: ``CALLERS`` callers, each awaiting its verdict before its next request.

        The callers' requests fill one batch, so all eight verdicts arrive
        together and the next eight requests leave together: the loop runs in
        rounds, and the host's speed is sampled between rounds, while the
        service idles.  (Sixteen free-running callers keep a second batch
        queued and the verify thread never idles, but then nothing can be
        sampled inside the window, and samples taken on either side of it
        left p50 moving 29 % from run to run.)
        """
        sizes = None if max_ops is None else \
            [min(self.CALLERS, max_ops - done) for done in range(0, max_ops, self.CALLERS)]
        latencies: list = []
        with self.live_service() as (service, run):
            rounds = timed_loop(
                lambda i: run(self._round(
                    service, i * self.CALLERS,
                    self.CALLERS if sizes is None else sizes[i], rec)),
                seconds, max_ops=None if sizes is None else len(sizes),
                after=lambda i, round_latencies: latencies.append(round_latencies))
        # Every request of a round is scaled as its round was.
        scaled = [latency * rounds.samples_s[i] / rounds.raw_s[i]
                  for i, round_latencies in enumerate(latencies)
                  for latency in round_latencies]
        raw = [latency for round_latencies in latencies for latency in round_latencies]
        return Measured(scaled, raw, rounds.wall_s, {"wall_s": sum(rounds.raw_s)})

    # -- open loop ---------------------------------------------------------

    def paced(self, seconds, rec=None, max_ops=None) -> Measured:
        """Open loop: jittered arrivals at ``RATE_RPS``, each timed from its due instant."""
        # Evenly spaced arrivals with a seeded jitter of a quarter gap either
        # way.  Poisson gaps put the median in the hands of the seed: how many
        # requests queue behind another depends on how dense the drawn trace
        # is, and p50 moved 30 % across seeds (60 % when the host was slow).
        n = max_ops if max_ops is not None else max(1, round(self.RATE_RPS * seconds))
        rng = random.Random(self.seed)
        gap = 1.0 / self.RATE_RPS
        schedule = [(i + rng.uniform(-0.25, 0.25)) * gap for i in range(n)]
        with self.live_service() as (service, run):
            return run(self._arrivals(service, schedule, rec))

    async def _arrivals(self, service, schedule, rec) -> Measured:
        latencies, late, slices, in_flight = [None] * len(schedule), [], [], []
        origin = time.perf_counter() + 0.1 - schedule[0]

        async def fire(i, due):
            late.append(time.perf_counter() - due)
            request, expected = self.requests[i % self.POOL]
            await self._verify(service, request, expected)
            end = time.perf_counter()
            latencies[i] = end - due
            if rec is not None:
                rec.add("service.request", due, end, op=i)

        # Between arrivals the generator runs calibration slices back to back
        # whenever no request is in flight.  That samples the host's speed all
        # through the window, and keeps the processor awake: left idle between
        # requests it ran the next one 10 to 30 % slower, by an amount that
        # changed from window to window.
        for i, at in enumerate(schedule):
            due = origin + at
            while (remaining := due - 0.03 - time.perf_counter()) > 0:
                pending = [task for task in in_flight if not task.done()]
                if pending:
                    await asyncio.wait(pending, timeout=remaining)
                else:
                    slices.append(calibration_slice())
                    await asyncio.sleep(0)
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            in_flight.append(asyncio.ensure_future(fire(i, due)))
        await asyncio.gather(*in_flight)
        speed = statistics.mean(slices) / CALIB_REFERENCE_S
        scaled = [latency / speed for latency in latencies]
        # The achieved rate of an open loop is the offered rate; what the
        # program decides is the time a request takes, so ops/s is per second
        # of request time, as in the single-caller loops.
        return Measured(scaled, latencies, sum(scaled),
                        {"loadgen_late_ms_max": max(late) * 1e3})


class ServiceSaturateWorkload(_ServiceWorkload):
    """Closed loop: 8 callers whose requests fill one batch after another."""

    measure = _ServiceWorkload.saturate


class ServicePacedWorkload(_ServiceWorkload):
    """Open loop: 2 requests/s, so every batch is one request flushed by the deadline."""

    measure = _ServiceWorkload.paced


#: Workload name (as in ``BENCHMARK.json``, which records why each exists) -> class.
WORKLOADS = {
    "pairing_bls12_381": PairingWorkload,
    "compile_bls12_381": CompileWorkload,
    "dse_cold_toy_bn42": DseColdWorkload,
    "dse_warm_toy_bn42": DseWarmWorkload,
    "service_saturate_groth16": ServiceSaturateWorkload,
    "service_paced_groth16": ServicePacedWorkload,
}
