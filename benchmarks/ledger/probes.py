"""Layer probes of the traced run: one number per layer boundary.

Every probe times calls into a layer's public functions from outside, or
reads a count the layer already keeps; ``BENCHMARK.json`` names them.
Times are host time; ``compiler.model_*``, ``sim.ipc`` and the
``sim.*_stalls`` are *simulated* quantities and must not move when only the
host gets faster.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import random
import statistics
import time
import timeit

from harness import CALIB_REFERENCE_S, SpanRecorder, host_speed
from workloads import (
    PAPER_CURVE,
    TOY_CURVE,
    DseColdWorkload,
    ServiceSaturateWorkload,
    kernel_facts,
    kernel_inputs,
    staged_compile,
    staged_pairing,
)

from repro.compiler.opt import (
    constant_folding,
    dead_code_elimination,
    global_value_numbering,
    strength_reduction,
)
from repro.compiler.pipeline import (
    clear_caches,
    compile_cache_stats,
    compile_multi_pairing,
    compile_pairing,
    pairing_compile_digest,
)
from repro.compiler.store import ArtifactStore
from repro.curves.catalog import CURVE_SPECS, build_curve, get_curve
from repro.dse.explorer import evaluate_design_point
from repro.dse.search import proxy_design_metrics
from repro.fields.cyclotomic import cyclotomic_square
from repro.hw.area import estimate_area
from repro.hw.power import estimate_power
from repro.hw.presets import default_model
from repro.hw.timing import frequency_mhz
from repro.pairing.batch import multi_pairing, precompute_g2
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import easy_part
from repro.service import make_bls_requests, simulate_batch_queue
from repro.service.simulate import arrival_times
from repro.service.vkcache import VerifyingKeyCache
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator


def _timed(fn, *args, **kwargs) -> tuple:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _median_s(fn, repeat: int) -> float:
    return statistics.median(_timed(fn)[1] for _ in range(repeat))


def _per_call_s(stmt: str, number: int, **names) -> float:
    """Median over three loops of ``number`` inlined evaluations of ``stmt``."""
    return statistics.median(
        timeit.repeat(stmt, globals=names, number=number, repeat=3)) / number


# ---------------------------------------------------------------------------

def probe_fields(curve, rng) -> dict:
    tower = curve.tower
    fp, fp2, fp12 = tower.fp, tower.levels[2], tower.full_field
    ctx = ConcretePairingContext(curve)
    a, b = fp.random(rng), fp.random(rng)
    c, d = fp2.random(rng), fp2.random(rng)
    f, g = fp12.random(rng), fp12.random(rng)
    cyc = easy_part(ctx, f)
    return {
        "fields.fp_add_ns": _per_call_s("a + b", 20_000, a=a, b=b) * 1e9,
        "fields.fp_mul_ns": _per_call_s("a * b", 20_000, a=a, b=b) * 1e9,
        "fields.fp_sqr_ns": _per_call_s("a.square()", 20_000, a=a) * 1e9,
        "fields.fp_inv_us": _per_call_s("a.inverse()", 2_000, a=a) * 1e6,
        "fields.fp2_mul_us": _per_call_s("c * d", 20_000, c=c, d=d) * 1e6,
        "fields.fp2_sqr_us": _per_call_s("c.square()", 20_000, c=c) * 1e6,
        "fields.fp12_mul_us": _per_call_s("f * g", 300, f=f, g=g) * 1e6,
        "fields.fp12_sqr_us": _per_call_s("f.square()", 300, f=f) * 1e6,
        "fields.fp12_inv_us": _per_call_s("f.inverse()", 100, f=f) * 1e6,
        "fields.fp12_frobenius_us": _per_call_s("f.frobenius(1)", 500, f=f) * 1e6,
        "fields.cyclo_sqr_us": _per_call_s(
            "sq(ctx, cyc)", 500, sq=cyclotomic_square, ctx=ctx, cyc=cyc) * 1e6,
    }


def probe_curves(curve, rng) -> dict:
    # get_curve memoises, and the workload has usually built the curve
    # already; build_curve is the uncached constructor behind it.
    spec = CURVE_SPECS[curve.name]
    k1, k2 = rng.randrange(1, curve.r), rng.randrange(1, curve.r)
    g1, g2 = curve.g1_generator, curve.g2_generator
    return {
        "curves.get_curve_s": _timed(build_curve, spec, fp_backend=curve.fp_backend)[1],
        "curves.g1_scalar_mul_ms": _median_s(lambda: g1.scalar_mul(k1), 9) * 1e3,
        "curves.g2_scalar_mul_ms": _median_s(lambda: g2.scalar_mul(k2), 5) * 1e3,
    }


def probe_pairing(curve, rng, rec) -> dict:
    pairs = [(curve.random_g1(rng), curve.random_g2(rng)) for _ in range(6)]
    spans = SpanRecorder()
    for op, (P, Q) in enumerate(pairs):
        staged_pairing(curve, P, Q, spans, op=f"probe-pairing-{op}")
    rec.extend(spans)
    stage_ms = {name: statistics.median(spans.durations(name)) * 1e3
                for name in ("pairing.miller", "pairing.final_exp.easy",
                             "pairing.final_exp.hard")}

    # The service's fused-batch shape: per request one live G2 point and two
    # precomputed verifying-key points.
    fixed = [precompute_g2(curve, Q) for _, Q in pairs[:2]]
    request = [(pairs[2][0], pairs[2][1]), (pairs[3][0], fixed[0]), (pairs[4][0], fixed[1])]

    profile = cProfile.Profile()
    profile.runcall(staged_pairing, curve, *pairs[0], SpanRecorder())
    return {
        "pairing.miller_ms": stage_ms["pairing.miller"],
        "pairing.easy_exp_ms": stage_ms["pairing.final_exp.easy"],
        "pairing.hard_exp_ms": stage_ms["pairing.final_exp.hard"],
        "pairing.multi4_ms": _median_s(lambda: multi_pairing(curve, pairs[:4]), 3) * 1e3,
        "pairing.multi24_precomp_ms": _median_s(
            lambda: multi_pairing(curve, request * 8), 2) * 1e3,
        "pairing.multi3_ms": _median_s(lambda: multi_pairing(curve, request), 5) * 1e3,
        "pairing.precompute_g2_ms": _median_s(
            lambda: precompute_g2(curve, pairs[5][1]), 3) * 1e3,
        "pairing.py_calls": pstats.Stats(profile).total_calls,
    }


def probe_compile(curve, rng, rec, store_dir) -> dict:
    """One staged and one ordinary cold compile of the paper curve, and what they built."""
    gc.collect()
    clear_caches()
    spans = SpanRecorder()
    staged = staged_compile(curve, spans, op="probe-compile")
    rec.extend(spans)

    def stage(name):
        return spans.durations(name)[0]

    compile_wall = stage("compile")
    coverage = 1.0 - spans.self_times()[0] / compile_wall

    low = staged.low_module
    p = curve.params.p
    folded, constfold_s = _timed(constant_folding, low, p)
    reduced, strength_s = _timed(strength_reduction, folded, p)
    numbered, gvn_s = _timed(global_value_numbering, reduced, p)
    _, dce_s = _timed(dead_code_elimination, numbered)
    del folded, reduced, numbered

    cycle_stats = staged.cycle_stats
    facts = kernel_facts(staged)
    metrics = {
        "ir.codegen_s": stage("ir.codegen"),
        "ir.lowering_s": stage("ir.lowering"),
        "ir.hl_ops": staged.hl_instructions,
        "ir.low_ops": staged.initial_instructions,
        "compiler.iropt_s": stage("compiler.iropt"),
        "compiler.iropt.constfold_s": constfold_s,
        "compiler.iropt.strength_s": strength_s,
        "compiler.iropt.gvn_s": gvn_s,
        "compiler.iropt.dce_s": dce_s,
        "compiler.iropt.ops_removed": staged.initial_instructions - staged.final_instructions,
        "compiler.opt_ops": staged.final_instructions,
        "compiler.bankalloc_s": stage("compiler.bankalloc"),
        "compiler.packsched_s": stage("compiler.packsched"),
        "compiler.regalloc_s": stage("compiler.regalloc"),
        "compiler.asm_s": stage("compiler.asm"),
        "compiler.bundles": len(staged.schedule.bundles),
        "compiler.registers": staged.total_registers,
        "compiler.planned_ipc": staged.schedule.planned_ipc(),
        "compiler.stage_coverage": coverage,
        "compiler.model_cycles": staged.cycles,
        "compiler.model_imem_kbits": staged.imem_bits / 1e3,
        "sim.cycle_run_s": stage("sim.cycle_run"),
        "sim.host_kinstr_per_s": cycle_stats.instructions / stage("sim.cycle_run") / 1e3,
        "sim.ipc": cycle_stats.ipc,
        "sim.data_stalls": cycle_stats.data_stalls,
        "sim.structural_stalls": cycle_stats.structural_stalls,
        "sim.writeback_stalls": cycle_stats.writeback_stalls,
    }
    del staged, low, spans

    # The ordinary entry point must have built the same kernel.
    gc.collect()
    clear_caches()
    result = compile_pairing(curve)
    if kernel_facts(result) != facts:
        raise AssertionError(
            f"staged compile {facts} != compile_pairing {kernel_facts(result)}")
    metrics["compiler.memhit_us"] = _per_call_s(
        "compile(curve)", 200, compile=compile_pairing, curve=curve) * 1e6

    store = ArtifactStore(os.path.join(store_dir, "probe-store"))
    key = pairing_compile_digest(curve)
    metrics["compiler.store_write_ms"] = _timed(store.store, key, result)[1] * 1e3
    metrics["compiler.store_read_ms"] = _timed(store.load, key)[1] * 1e3
    metrics["compiler.store_entry_kb"] = store.total_bytes() / 1e3

    P, Q = curve.random_g1(rng), curve.random_g2(rng)
    simulator = FunctionalSimulator(result.program, curve.params.p)
    metrics["sim.functional_run_s"] = _timed(simulator.run, kernel_inputs(P, Q))[1]

    hw = result.hw

    def price():
        freq = frequency_mhz(hw.word_width, hw.long_latency)
        area = estimate_area(hw, result.imem_bits, result.total_registers)
        power = estimate_power(hw, area, freq, activity=result.ipc / max(1, hw.issue_width))
        return area.total_mm2, freq, power.total_mw

    (area_mm2, freq, power_mw), _ = _timed(price)
    metrics.update({
        "hw.area_mm2": area_mm2, "hw.freq_mhz": freq, "hw.power_mw": power_mw,
        "hw.models_ms": _per_call_s("price()", 200, price=price) * 1e3,
    })
    return metrics


def probe_sim_multicore(toy) -> dict:
    """Stream-mode simulation of the toy batch-4 kernel on four cores."""
    hw = default_model(toy.params.p.bit_length()).with_cores(4)
    batched = compile_multi_pairing(toy, 4, hw=hw, do_assemble=False)
    simulator = CycleAccurateSimulator()
    return {
        "sim.multicore_run_s": _median_s(
            lambda: simulator.run_multicore(batched.schedule, 4), 3),
        "sim.pipelined_d2_run_s": _median_s(
            lambda: simulator.run_pipelined(batched.schedule, 4, 2), 3),
    }


def probe_dse(seed, toy_name) -> dict:
    sweeps = DseColdWorkload(seed, toy_name)
    toy = sweeps.curve
    first, sibling = sweeps.points[:2]          # same variants, another hardware model

    clear_caches(disk=True)
    _, point_cold_s = _timed(evaluate_design_point, toy, first)
    _, point_stagehit_s = _timed(evaluate_design_point, toy, sibling)
    iropt_misses = compile_cache_stats()["iropt"]["misses"]

    clear_caches(disk=True)
    _, cold = sweeps.sweep(sweeps.WORKERS)      # fills the disk tier; timed by dse_cold
    clear_caches()
    (_, warm), seq_warm_s = _timed(sweeps.sweep, 1)
    clear_caches()
    (_, pooled), pool_warm_s = _timed(sweeps.sweep, sweeps.WORKERS)
    clear_caches()
    _, point_disk_s = _timed(evaluate_design_point, toy, first)
    return {
        "dse.point_cold_s": point_cold_s,
        "dse.point_stagehit_s": point_stagehit_s,
        "dse.point_disk_ms": point_disk_s * 1e3,
        "dse.point_mem_ms": _median_s(lambda: evaluate_design_point(toy, first), 5) * 1e3,
        "dse.proxy_ms": _median_s(lambda: proxy_design_metrics(toy, first), 5) * 1e3,
        "dse.seq_warm_s": seq_warm_s,
        "dse.pool_overhead_s": pool_warm_s - seq_warm_s / sweeps.WORKERS,
        "dse.distinct_points": cold.distinct_points,
        "dse.compile_misses": cold.cache_stats["result"]["misses"],
        "dse.disk_hits": warm.cache_stats["disk"]["hits"],
        "dse.chunks": pooled.chunks,
        "dse.iropt_stage_misses": iropt_misses,
    }


def probe_service(seed, curve_name) -> dict:
    """Both batcher regimes at fixed request counts, then the request builders."""
    service = ServiceSaturateWorkload(seed, curve_name)
    saturate = service.saturate(0, max_ops=16)
    busy = service.snapshots[-1]
    paced = service.paced(0, max_ops=4)
    idle = service.snapshots[-1]
    attempted, failed = service.check()
    if failed:
        raise AssertionError(f"service probe: {failed}/{attempted} wrong verdicts")
    fused = sum(s["fused_batches"] for s in service.snapshots)
    fused_failed = sum(s["fused_failures"] for s in service.snapshots)
    hits = sum(s["vk"]["hits"] for s in service.snapshots)
    misses = sum(s["vk"]["misses"] for s in service.snapshots)

    curve = service.curve
    vk_cache = VerifyingKeyCache(curve)
    groth16 = service.requests[0][0]
    groth16.build_pairs(curve, vk_cache)                    # fill the vk cache
    bls = make_bls_requests(curve, 2, seed=seed)[0][0]
    bls.build_pairs(curve, vk_cache)

    arrivals = arrival_times(10_000, 1.0, distribution="poisson", seed=seed)
    return {
        "service.busy_share": busy["busy_s"] / saturate.counts["wall_s"],
        "service.batch_ms_mean": busy["busy_s"] / busy["batches"] * 1e3,
        "service.batch_size_mean.saturate": statistics.mean(busy["batch_sizes"]),
        "service.batch_size_mean.paced": statistics.mean(idle["batch_sizes"]),
        "service.fused_fallback_share": fused_failed / fused,
        "service.vk_hit_share": hits / (hits + misses),
        "service.groth16_build_pairs_ms": _median_s(
            lambda: groth16.build_pairs(curve, vk_cache), 9) * 1e3,
        "service.bls_build_pairs_ms": _median_s(
            lambda: bls.build_pairs(curve, vk_cache), 5) * 1e3,
        "service.queue_wait_ms_mean": (statistics.mean(paced.raw_s)
                                       - idle["busy_s"] / idle["batches"]) * 1e3,
        "service.loadgen_late_ms_max": paced.counts["loadgen_late_ms_max"],
        "service.model_replay_ms": _timed(
            simulate_batch_queue, arrivals, lambda k: 0.4 + 0.08 * k,
            max_batch=8, deadline=0.5)[1] * 1e3,
    }


def run_probes(seed: int, rec, store_dir: str, paper=PAPER_CURVE, toy=TOY_CURVE) -> dict:
    """Every per-layer metric except ``trace.overhead_share`` (the runner's)."""
    rng = random.Random(seed)
    curve = get_curve(paper)
    metrics = {"host.calib_ms": host_speed(0.5) * CALIB_REFERENCE_S * 1e3}
    metrics.update(probe_fields(curve, rng))
    metrics.update(probe_curves(curve, rng))
    metrics.update(probe_pairing(curve, rng, rec))
    metrics.update(probe_compile(curve, rng, rec, store_dir))
    metrics.update(probe_sim_multicore(get_curve(toy)))
    metrics.update(probe_dse(seed, toy))
    metrics.update(probe_service(seed, paper))
    return metrics
