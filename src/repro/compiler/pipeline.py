"""The compilation pipeline: CodeGen -> IROpt -> BankAlloc -> PackSched -> RegAlloc -> ASM -> Link.

``compile_pairing`` is the main entry point used by the evaluation harness; it
caches every intermediate stage in-process so that design-space sweeps (many
hardware models over the same curve, many variant configurations over the same
trace) do not repeat work, which is what keeps the full benchmark suite runnable
in pure Python.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.compiler.asm import assemble
from repro.compiler.bankalloc import allocate_banks
from repro.compiler.cache import CompileCache
from repro.compiler.codegen import (
    generate_multi_pairing_ir,
    generate_pairing_ir,
    validate_batch_size,
)
from repro.compiler.store import StoreStats, active_store
from repro.reliability import faults as _faults
from repro.compiler.opt import OptStats, optimize
from repro.compiler.regalloc import allocate_registers, pipelined_register_demand
from repro.compiler.schedule import (
    ScheduledProgram,
    affinity_schedule,
    program_order_schedule,
)
from repro.errors import CompilerError
from repro.fields.variants import VariantConfig
from repro.pairing.final_exp import validate_final_exp_mode
from repro.hw.model import HardwareModel
from repro.hw.presets import default_model
from repro.ir.lowering import lower_module
from repro.sim.cycle import (
    CycleAccurateSimulator,
    CycleStats,
    MultiCoreStats,
    PipelineStats,
    validate_pipeline_depth,
)


@dataclass
class CompileResult:
    """Everything the evaluation harness needs about one compiled kernel."""

    curve_name: str
    hw: HardwareModel
    variant_config: VariantConfig
    use_naf: bool
    optimized: bool
    # Instruction counts.
    hl_instructions: int
    initial_instructions: int          # F_p instructions before IROpt ("Init.")
    final_instructions: int            # F_p instructions after IROpt ("Opt.")
    opt_stats: OptStats
    # Backend results.
    schedule: ScheduledProgram
    cycle_stats: CycleStats
    registers_per_bank: dict
    total_registers: int
    program: object | None             # AssembledProgram (None if assembly skipped)
    # Baseline (program-order) timing, populated on request.
    baseline_cycle_stats: CycleStats | None = None
    #: Hard-part backend traced into the kernel ("generic" | "cyclotomic" |
    #: "compressed"); see :data:`repro.pairing.final_exp.FINAL_EXP_MODES`.
    final_exp_mode: str = "generic"
    # Stage timings in seconds.
    stage_seconds: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.cycle_stats.total_cycles

    @property
    def ipc(self) -> float:
        return self.cycle_stats.ipc

    @property
    def imem_bits(self) -> int:
        if self.program is not None:
            return self.program.binary_size_bits()
        # Without assembly, assume the 32-bit encoding for sizing purposes.
        return self.schedule.instruction_count * 32

    @property
    def compile_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def describe(self) -> dict:
        return {
            "curve": self.curve_name,
            "hw": self.hw.name,
            "variants": self.variant_config.name,
            "hl_instructions": self.hl_instructions,
            "init_instructions": self.initial_instructions,
            "opt_instructions": self.final_instructions,
            "instr_reduction": round(
                1 - self.final_instructions / self.initial_instructions, 4
            ) if self.initial_instructions else 0.0,
            "cycles": self.cycles,
            "ipc": round(self.ipc, 3),
            "registers": self.total_registers,
            "final_exp_mode": self.final_exp_mode,
            "compile_seconds": round(self.compile_seconds, 2),
        }


@dataclass
class MultiPairingCompileResult:
    """Everything the harness needs about one compiled *batched* pairing kernel.

    The kernel computes the fused product ``Pi e(P_i, Q_i)`` with one shared
    accumulator squaring per Miller iteration and a single final
    exponentiation; :attr:`multicore_stats` holds the deterministic
    ``n_cores``-core simulation (per-pair line-evaluation lanes distributed by
    the LPT list schedule), :attr:`cycle_stats` the plain single-core run of
    the same schedule.
    """

    curve_name: str
    n_pairs: int
    hw: HardwareModel
    variant_config: VariantConfig
    use_naf: bool
    optimized: bool
    # Instruction counts.
    hl_instructions: int
    initial_instructions: int
    final_instructions: int
    opt_stats: OptStats
    # Backend results.
    schedule: ScheduledProgram
    cycle_stats: CycleStats            # single-core reference simulation
    multicore_stats: MultiCoreStats    # hw.n_cores-core simulation
    registers_per_bank: dict
    total_registers: int
    program: object | None
    #: Split-accumulator mode: one independent Miller chain per core, merged
    #: once before the final exponentiation (False = the shared-accumulator
    #: kernel of PR 3).
    split_accumulators: bool = False
    #: Number of independent accumulator chains in the kernel (1 = shared).
    accumulator_groups: int = 1
    #: Hard-part backend traced into the kernel ("generic" | "cyclotomic" |
    #: "compressed").
    final_exp_mode: str = "generic"
    #: Cross-batch pipeline depth this kernel was scored at (1 = one-shot).
    pipeline_depth: int = 1
    #: The ``depth``-instance pipelined simulation
    #: (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_pipelined`); None
    #: when the kernel was scored one-shot (``pipeline_depth=1``).
    pipeline_stats: PipelineStats | None = None
    #: Per-bank register demand with ``pipeline_depth`` renamed instances
    #: resident (sizes the continuously-fed accelerator's data memory; equals
    #: :attr:`registers_per_bank` at depth 1).
    pipeline_registers_per_bank: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Batch latency on the configured core count."""
        return self.multicore_stats.total_cycles

    @property
    def single_core_cycles(self) -> int:
        return self.cycle_stats.total_cycles

    @property
    def cycles_per_pairing(self) -> float:
        return self.cycles / self.n_pairs

    @property
    def steady_batch_cycles(self) -> float:
        """Steady-state cycles per batch instance on a continuously-fed accelerator.

        With a pipelined score (``pipeline_depth > 1``) this is the sustained
        completion-to-completion gap between in-flight instances; at depth 1
        it degenerates to the one-shot batch latency, so consumers can rank
        on it unconditionally.
        """
        if self.pipeline_stats is not None:
            return self.pipeline_stats.steady_cycles_per_batch
        return float(self.cycles)

    @property
    def steady_cycles_per_pairing(self) -> float:
        """Steady-state amortised cost per pairing (the throughput figure)."""
        return self.steady_batch_cycles / self.n_pairs

    @property
    def ipc(self) -> float:
        """IPC of the configured (multi-core) simulation, consistent with
        :attr:`cycles`; the single-core IPC is ``cycle_stats.ipc``."""
        return self.multicore_stats.ipc

    @property
    def imem_bits(self) -> int:
        if self.program is not None:
            return self.program.binary_size_bits()
        return self.schedule.instruction_count * 32

    @property
    def compile_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def describe(self) -> dict:
        summary = {
            "curve": self.curve_name,
            "kernel": "multi_pairing",
            "n_pairs": self.n_pairs,
            "accumulators": "split" if self.split_accumulators else "shared",
            "accumulator_groups": self.accumulator_groups,
            "n_cores": self.multicore_stats.n_cores,
            "hw": self.hw.name,
            "variants": self.variant_config.name,
            "hl_instructions": self.hl_instructions,
            "init_instructions": self.initial_instructions,
            "opt_instructions": self.final_instructions,
            "cycles": self.cycles,
            "single_core_cycles": self.single_core_cycles,
            "cycles_per_pairing": round(self.cycles_per_pairing, 1),
            "registers": self.total_registers,
            "final_exp_mode": self.final_exp_mode,
            "compile_seconds": round(self.compile_seconds, 2),
        }
        if self.pipeline_depth > 1:
            summary["pipeline_depth"] = self.pipeline_depth
            summary["steady_batch_cycles"] = round(self.steady_batch_cycles, 1)
            summary["steady_cycles_per_pairing"] = round(self.steady_cycles_per_pairing, 1)
        return summary


class CompilerPipeline:
    """Configurable pipeline instance (see ``compile_pairing`` for the cached API).

    ``n_pairs=None`` compiles the classic single-pairing kernel; an integer
    compiles the batched multi-pairing kernel of that size through the *same*
    stage sequence (plus the multi-core simulation) and returns a
    :class:`MultiPairingCompileResult` instead of a :class:`CompileResult`.
    ``split_accumulators=True`` (batched kernels only) traces one independent
    Miller accumulator chain per hardware core instead of the single shared
    chain -- the kernel itself then depends on ``hw.n_cores``.
    """

    def __init__(
        self,
        hw: HardwareModel | None = None,
        variant_config: VariantConfig | None = None,
        optimize_ir: bool = True,
        use_naf: bool = True,
        use_affinity: bool = True,
        do_assemble: bool = True,
        record_trace: bool = False,
        n_pairs: int | None = None,
        split_accumulators: bool = False,
        final_exp_mode: str = "generic",
        pipeline_depth: int = 1,
    ):
        self.hw = hw
        self.variant_config = variant_config or VariantConfig.all_karatsuba()
        self.optimize_ir = optimize_ir
        self.use_naf = use_naf
        self.use_affinity = use_affinity
        self.do_assemble = do_assemble
        self.record_trace = record_trace
        self.n_pairs = n_pairs
        if split_accumulators and n_pairs is None:
            raise CompilerError(
                "split_accumulators applies to batched kernels only (set n_pairs)"
            )
        self.split_accumulators = bool(split_accumulators)
        self.final_exp_mode = validate_final_exp_mode(final_exp_mode)
        self.pipeline_depth = validate_pipeline_depth(pipeline_depth)
        if self.pipeline_depth > 1 and n_pairs is None:
            raise CompilerError(
                "pipeline_depth applies to batched kernels only (set n_pairs); "
                "cross-batch pipelining replays batch instances, not single pairings"
            )

    # -- individual stages -----------------------------------------------------------
    def _accumulator_groups(self, hw: HardwareModel) -> int | None:
        """Group count of the traced kernel (None = shared-accumulator mode)."""
        if self.n_pairs is None or not self.split_accumulators:
            return None
        return hw.n_cores

    def compile(self, curve, include_baseline: bool = False):
        hw = (self.hw or default_model(curve.params.p.bit_length())).validate()
        n_pairs = self.n_pairs
        if include_baseline and n_pairs is not None:
            raise CompilerError(
                "baseline (program-order) timing is only supported for the "
                "single-pairing kernel"
            )
        groups = self._accumulator_groups(hw)
        fe_mode = self.final_exp_mode
        timings: dict = {}

        start = time.perf_counter()
        hl_module = _cached_hl_module(curve, self.use_naf, n_pairs, groups, fe_mode)
        timings["codegen"] = time.perf_counter() - start

        start = time.perf_counter()
        low_module = _cached_low_module(curve, self.variant_config, self.use_naf,
                                        n_pairs, groups, fe_mode)
        timings["lowering"] = time.perf_counter() - start

        initial_instructions = low_module.count_compute_ops()
        start = time.perf_counter()
        if self.optimize_ir:
            optimized_module, opt_stats = _cached_optimized(
                curve, self.variant_config, self.use_naf, n_pairs, groups, fe_mode
            )
        else:
            optimized_module, opt_stats = low_module, OptStats(
                initial=initial_instructions, final=initial_instructions
            )
        timings["iropt"] = time.perf_counter() - start

        start = time.perf_counter()
        banks = allocate_banks(optimized_module, hw)
        timings["bankalloc"] = time.perf_counter() - start

        start = time.perf_counter()
        schedule = affinity_schedule(optimized_module, hw, banks, use_affinity=self.use_affinity)
        timings["packsched"] = time.perf_counter() - start

        start = time.perf_counter()
        simulator = CycleAccurateSimulator(record_trace=self.record_trace)
        cycle_stats = simulator.run(schedule)
        multicore_stats = None
        pipeline_stats = None
        if n_pairs is not None:
            if hw.n_cores > 1:
                multicore_stats = simulator.run_multicore(schedule, hw.n_cores)
            else:
                # One core degenerates to the classic simulation just done;
                # skip the redundant second walk and re-label it.
                multicore_stats = MultiCoreStats.from_single_core(
                    cycle_stats,
                    dict.fromkeys(optimized_module.lane_histogram(), 0),
                )
            if self.pipeline_depth > 1:
                # The continuously-fed score: ``depth`` renamed instances in
                # flight (depth 1 would just repeat the multicore walk).
                pipeline_stats = simulator.run_pipelined(
                    schedule, hw.n_cores, self.pipeline_depth
                )
        timings["cyclesim"] = time.perf_counter() - start

        start = time.perf_counter()
        allocation = allocate_registers(schedule)
        timings["regalloc"] = time.perf_counter() - start

        program = None
        if self.do_assemble:
            start = time.perf_counter()
            suffix = "" if n_pairs is None else f"-x{n_pairs}"
            if groups is not None and groups > 1:
                suffix += f"-split{groups}"
            if fe_mode != "generic":
                suffix += f"-fe-{fe_mode}"
            program = assemble(schedule, allocation, name=f"{curve.name}{suffix}-{hw.name}")
            timings["asm+link"] = time.perf_counter() - start

        baseline_stats = None
        if include_baseline:
            start = time.perf_counter()
            base_banks = allocate_banks(low_module, hw)
            base_schedule = program_order_schedule(low_module, hw, base_banks)
            baseline_stats = CycleAccurateSimulator(record_trace=self.record_trace).run(base_schedule)
            timings["baseline-sim"] = time.perf_counter() - start

        common = dict(
            curve_name=curve.name,
            hw=hw,
            variant_config=self.variant_config,
            use_naf=self.use_naf,
            optimized=self.optimize_ir,
            hl_instructions=hl_module.count_compute_ops(),
            initial_instructions=initial_instructions,
            final_instructions=optimized_module.count_compute_ops(),
            opt_stats=opt_stats,
            schedule=schedule,
            cycle_stats=cycle_stats,
            registers_per_bank=dict(allocation.registers_per_bank),
            total_registers=allocation.total_registers,
            program=program,
            final_exp_mode=fe_mode,
            stage_seconds=timings,
        )
        if n_pairs is not None:
            return MultiPairingCompileResult(
                n_pairs=n_pairs, multicore_stats=multicore_stats,
                split_accumulators=self.split_accumulators,
                accumulator_groups=groups if groups is not None else 1,
                pipeline_depth=self.pipeline_depth,
                pipeline_stats=pipeline_stats,
                pipeline_registers_per_bank=pipelined_register_demand(
                    allocation, self.pipeline_depth, hw.n_banks
                ),
                **common,
            )
        return CompileResult(baseline_cycle_stats=baseline_stats, **common)


# ---------------------------------------------------------------------------
# Stage-level caches (per process, instrumented)
# ---------------------------------------------------------------------------

_HL_CACHE = CompileCache("codegen")
_LOW_CACHE = CompileCache("lowering")
_OPT_CACHE = CompileCache("iropt")
_RESULT_CACHE = CompileCache("result")


# Batched-kernel (``n_pairs`` set) stage keys share the same instrumented
# caches, namespaced by a leading marker so they can never collide with the
# single-pairing tuples.  ``groups`` is the accumulator-group count of the
# split-accumulator kernel (None = shared accumulator): split kernels are a
# *different trace*, so every stage is keyed on it.  The same goes for the
# final-exponentiation mode: "generic"/"cyclotomic"/"compressed" kernels are
# different traces and never share a stage entry.

def _stage_key(curve, use_naf: bool, n_pairs: int | None,
               groups: int | None, fe_mode: str, *extra) -> tuple:
    if n_pairs is None:
        return (curve.name, use_naf, fe_mode, *extra)
    return ("multi", curve.name, n_pairs, groups, use_naf, fe_mode, *extra)


def _cached_hl_module(curve, use_naf: bool, n_pairs: int | None = None,
                      groups: int | None = None, fe_mode: str = "generic"):
    def factory():
        if n_pairs is None:
            return generate_pairing_ir(curve, use_naf=use_naf,
                                       final_exp_mode=fe_mode)
        return generate_multi_pairing_ir(curve, n_pairs, use_naf=use_naf,
                                         accumulator_groups=groups,
                                         final_exp_mode=fe_mode)

    return _HL_CACHE.get_or_compute(
        _stage_key(curve, use_naf, n_pairs, groups, fe_mode), factory
    )


def _cached_low_module(curve, config: VariantConfig, use_naf: bool,
                       n_pairs: int | None = None, groups: int | None = None,
                       fe_mode: str = "generic"):
    key = _stage_key(curve, use_naf, n_pairs, groups, fe_mode, config.cache_key())
    return _LOW_CACHE.get_or_compute(
        key,
        lambda: lower_module(
            _cached_hl_module(curve, use_naf, n_pairs, groups, fe_mode),
            curve.tower.levels, config,
        ),
    )


def _cached_optimized(curve, config: VariantConfig, use_naf: bool,
                      n_pairs: int | None = None, groups: int | None = None,
                      fe_mode: str = "generic"):
    key = _stage_key(curve, use_naf, n_pairs, groups, fe_mode, config.cache_key())
    return _OPT_CACHE.get_or_compute(
        key,
        lambda: optimize(
            _cached_low_module(curve, config, use_naf, n_pairs, groups, fe_mode),
            curve.params.p,
        ),
    )


def clear_caches(disk: bool = False) -> None:
    """Drop every cached compilation artefact (used by memory-sensitive sweeps).

    The active :class:`~repro.compiler.store.ArtifactStore` (if any) has its
    counters reset as well, so a sweep that calls ``clear_caches()`` starts
    from clean statistics on every tier.  With ``disk=True`` the store's
    on-disk entries are deleted too, giving tests and benchmarks a *genuinely*
    cold path on demand; the default keeps persisted artefacts, which is the
    whole point of the disk tier.
    """
    _HL_CACHE.clear()
    _LOW_CACHE.clear()
    _OPT_CACHE.clear()
    _RESULT_CACHE.clear()
    store = active_store()
    if store is not None:
        store.reset_stats()
        if disk:
            store.clear()


def compile_cache_stats() -> dict:
    """Hit/miss/store counters of every pipeline cache, keyed by stage name.

    The ``result`` entry is the one design-space sweeps care about: its miss
    count is exactly the number of full recompilations performed since the
    last :func:`clear_caches` -- a disk hit repopulates the memory tier
    without counting as a result miss.  When a disk store is active
    (``FINESSE_CACHE_DIR`` or :func:`repro.compiler.store.configure_store`),
    its counters appear under the ``disk`` key.
    """
    stats = {
        cache.name: cache.describe()
        for cache in (_HL_CACHE, _LOW_CACHE, _OPT_CACHE, _RESULT_CACHE)
    }
    store = active_store()
    if store is not None:
        # Counters only: this is snapshotted around every worker chunk, so it
        # must not walk the store's directory tree (use ``store.describe()``
        # directly for on-disk usage).
        stats[store.name] = store.counters()
    else:
        # No disk tier configured: report zeroed counters under the same key
        # so runner summaries and --assert-warm scripts never have to
        # special-case cold configurations (``stats["disk"]`` is always there,
        # with the full ``StoreStats.snapshot()`` key set).
        stats["disk"] = dict(StoreStats().snapshot(), name="disk")
    return stats


def _cached_compile(key: str, use_cache: bool, compile_fn):
    """Two-tier result lookup shared by both kernel entry points.

    Memory, then disk, then a real compile.  The result-cache miss counter is
    only bumped when a real compile happens, preserving the
    "misses == recompilations" contract for disk-served sweeps.
    """
    store = active_store() if use_cache else None
    if use_cache:
        cached = _RESULT_CACHE.peek(key)
        if cached is not None:
            _RESULT_CACHE.stats.hits += 1
            return cached
        if store is not None:
            loaded = store.load(key)
            if loaded is not None:
                _RESULT_CACHE.store(key, loaded)
                return loaded
        _RESULT_CACHE.stats.misses += 1
    if _faults.ACTIVE is not None:
        # Fires only on real compiles: cache hits stay fault-free, so a
        # transient compile fault heals through the evaluate-level retry.
        _faults.ACTIVE.apply("compile")
    result = compile_fn()
    if use_cache:
        _RESULT_CACHE.store(key, result)
        if store is not None:
            store.store(key, result)
    return result


def compile_pairing(
    curve,
    hw: HardwareModel | None = None,
    variant_config: VariantConfig | None = None,
    optimize_ir: bool = True,
    use_naf: bool = True,
    use_affinity: bool = True,
    do_assemble: bool = True,
    include_baseline: bool = False,
    record_trace: bool = False,
    use_cache: bool = True,
    final_exp_mode: str = "generic",
) -> CompileResult:
    """Compile the pairing kernel for ``curve`` (cached by full configuration).

    ``final_exp_mode`` selects the hard-part backend traced into the kernel
    ("generic", "cyclotomic" or "compressed"); it is part of the semantic
    cache digest, so the three kernels never share a cached (or disk-stored)
    artefact.
    """
    variant_config = variant_config or VariantConfig.all_karatsuba()
    hw_resolved = (hw or default_model(curve.params.p.bit_length())).validate()
    flags = dict(
        optimize_ir=optimize_ir, use_naf=use_naf, use_affinity=use_affinity,
        do_assemble=do_assemble, record_trace=record_trace,
        final_exp_mode=final_exp_mode,
    )
    key = pairing_compile_digest(curve, hw_resolved, variant_config,
                                 include_baseline=include_baseline, **flags)
    pipeline = CompilerPipeline(hw=hw_resolved, variant_config=variant_config, **flags)
    return _cached_compile(
        key, use_cache, lambda: pipeline.compile(curve, include_baseline=include_baseline)
    )


def pairing_compile_digest(
    curve,
    hw: HardwareModel | None = None,
    variant_config: VariantConfig | None = None,
    optimize_ir: bool = True,
    use_naf: bool = True,
    use_affinity: bool = True,
    do_assemble: bool = True,
    include_baseline: bool = False,
    record_trace: bool = False,
    final_exp_mode: str = "generic",
) -> str:
    """Semantic cache digest of a :func:`compile_pairing` call, without compiling.

    Exactly the key that call would look up, so callers (the cache-seeded
    search of :mod:`repro.dse.search`) can ask "is this design point already
    compiled?" before spending a full evaluation on it.
    """
    variant_config = variant_config or VariantConfig.all_karatsuba()
    hw_resolved = (hw or default_model(curve.params.p.bit_length())).validate()
    final_exp_mode = validate_final_exp_mode(final_exp_mode)
    return CompileCache.make_key(
        curve.name,
        variant_config,
        hw_resolved,
        optimize_ir=optimize_ir,
        use_naf=use_naf,
        use_affinity=use_affinity,
        do_assemble=do_assemble,
        include_baseline=include_baseline,
        record_trace=record_trace,
        final_exp_mode=final_exp_mode,
    )


def is_pairing_compiled(curve, hw=None, variant_config=None, **flags) -> bool:
    """True when the memory result tier already holds this pairing kernel.

    A pure probe: no counters move, no compilation happens, and the disk tier
    is deliberately not consulted (seeding heuristics want the cheap answer).
    """
    key = pairing_compile_digest(curve, hw=hw, variant_config=variant_config, **flags)
    return _RESULT_CACHE.peek(key) is not None


def compile_multi_pairing(
    curve,
    n_pairs: int,
    hw: HardwareModel | None = None,
    variant_config: VariantConfig | None = None,
    optimize_ir: bool = True,
    use_naf: bool = True,
    use_affinity: bool = True,
    do_assemble: bool = True,
    use_cache: bool = True,
    split_accumulators: bool = False,
    final_exp_mode: str = "generic",
    pipeline_depth: int = 1,
) -> MultiPairingCompileResult:
    """Compile the batched pairing-product kernel ``Pi e(P_i, Q_i)`` for ``curve``.

    The kernel shares one accumulator squaring per Miller iteration and a
    single final exponentiation across the batch
    (:func:`repro.compiler.codegen.generate_multi_pairing_ir`); the per-pair
    line-evaluation lanes are then dispatched across ``hw.n_cores`` replicated
    cores by the deterministic multi-core simulation
    (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_multicore`).  Results
    flow through the same two-tier (memory -> disk) compile cache as
    :func:`compile_pairing`, with the batch size, core count and accumulator
    mode part of the semantic digest.

    ``split_accumulators=True`` compiles the *split-accumulator* kernel: one
    independent Miller chain per core (``hw.n_cores`` accumulator groups over
    contiguous shares of the pairs), merged with ``n_cores - 1`` extension
    multiplications before the single final exponentiation.  The product is
    bit-identical; the multi-core schedule no longer serialises the
    accumulator chain on core 0, trading the extra per-group squaring chains
    for near-linear Miller-loop scaling.

    ``final_exp_mode`` selects the hard-part backend of the single fused
    final exponentiation ("generic", "cyclotomic" or "compressed"); like the
    batch size and accumulator mode it participates in the semantic cache
    digest, so kernels of different modes never alias in the two-tier cache.
    Note that the traced "compressed" kernel is branch-free: unlike the
    software path it cannot fall back on a degenerate (zero-determinant)
    Karabina decompression, a data-dependent case of probability
    ~chain-weight/|F_p^{k/6}| per batch that makes the simulated inversion
    fail loudly rather than return a wrong product.

    Example -- compile a batch-8 kernel on a 4-core model and read the
    figures a design sweep ranks on::

        import repro
        curve = repro.get_curve("TOY-BN42")
        hw = repro.paper_hw1(curve.params.p.bit_length()).with_cores(4)
        kernel = repro.compile_multi_pairing(curve, 8, hw=hw)
        kernel.cycles                # latency of the whole fused batch
        kernel.cycles_per_pairing    # amortised cost (falls with batch size)
    """
    n_pairs = validate_batch_size(n_pairs)
    variant_config = variant_config or VariantConfig.all_karatsuba()
    hw_resolved = (hw or default_model(curve.params.p.bit_length())).validate()
    final_exp_mode = validate_final_exp_mode(final_exp_mode)
    pipeline_depth = validate_pipeline_depth(pipeline_depth)
    key = CompileCache.make_key(
        curve.name,
        variant_config,
        hw_resolved,
        kernel="multi_pairing",
        n_pairs=n_pairs,
        n_cores=hw_resolved.n_cores,   # not part of hw.cache_key(); cycles depend on it
        split_accumulators=bool(split_accumulators),
        optimize_ir=optimize_ir,
        use_naf=use_naf,
        use_affinity=use_affinity,
        do_assemble=do_assemble,
        final_exp_mode=final_exp_mode,
        pipeline_depth=pipeline_depth,  # pipelined scores are distinct artefacts
    )
    pipeline = CompilerPipeline(
        hw=hw_resolved,
        variant_config=variant_config,
        optimize_ir=optimize_ir,
        use_naf=use_naf,
        use_affinity=use_affinity,
        do_assemble=do_assemble,
        n_pairs=n_pairs,
        split_accumulators=split_accumulators,
        final_exp_mode=final_exp_mode,
        pipeline_depth=pipeline_depth,
    )
    return _cached_compile(key, use_cache, lambda: pipeline.compile(curve))
