"""Compiler micro-benchmarks: compile time (the paper's minutes-not-days claim)
and raw pairing throughput of the golden library."""

import random

from repro.compiler.pipeline import clear_caches, compile_pairing
from repro.curves.catalog import get_curve
from repro.evaluation.common import bench_scale
from repro.pairing.ate import optimal_ate_pairing


def test_compile_time_bn254(benchmark):
    """End-to-end compile time for the BN254N kernel (paper: 8 s)."""
    curve = get_curve("TOY-BN42" if bench_scale() == "smoke" else "BN254N")

    def _compile():
        clear_caches()
        return compile_pairing(curve, use_cache=False)

    result = benchmark.pedantic(_compile, rounds=1, iterations=1)
    assert result.final_instructions > 10_000


def test_golden_pairing_latency_bn254(benchmark):
    """Latency of the golden (software) pairing used as the correctness oracle."""
    curve = get_curve("TOY-BN42" if bench_scale() == "smoke" else "BN254N")
    rng = random.Random(1)
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    value = benchmark(optimal_ate_pairing, curve, P, Q)
    assert curve.is_valid_gt(value)


def test_scheduler_throughput(benchmark):
    """Scheduling throughput on an already-lowered kernel (instructions/second)."""
    from repro.compiler.bankalloc import allocate_banks
    from repro.compiler.pipeline import stage_modules
    from repro.compiler.schedule import affinity_schedule
    from repro.hw.presets import paper_hw1

    curve = get_curve("TOY-BN42" if bench_scale() == "smoke" else "BN254N")
    module = stage_modules(curve)[2]
    hw = paper_hw1(curve.params.p.bit_length())
    banks = allocate_banks(module, hw)
    schedule = benchmark.pedantic(affinity_schedule, args=(module, hw, banks), rounds=1, iterations=1)
    assert schedule.instruction_count == module.count_compute_ops()
