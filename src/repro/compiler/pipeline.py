"""The compilation pipeline: CodeGen -> IROpt -> BankAlloc -> PackSched -> RegAlloc -> ASM -> Link.

*What* is compiled is one value, :class:`KernelSpec`: the keyword entry points
(``compile_pairing``, ``compile_multi_pairing``, ``pairing_compile_digest``,
``CompilerPipeline``, ``stage_modules``) fold their keywords into a spec at the
boundary and meet in ``compile_kernel``; everything below -- the stage caches,
the result digest, the stage sequence, the :class:`CompileResult` -- carries
the spec.  A new knob is a new field there plus the line that consumes it.

Every intermediate stage is cached in-process so that design-space sweeps
(many hardware models over the same curve, many variant configurations over
the same trace) do not repeat work, which is what keeps the full benchmark
suite runnable in pure Python.  The lowered module is the exception: IROpt is
its one reader, so it is dropped once IROpt has run, and a compile whose
IROpt output is cached does not lower at all.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

from repro.compiler.asm import assemble, binary_size_bits
from repro.compiler.bankalloc import allocate_banks
from repro.compiler.cache import CompileCache
from repro.compiler.codegen import (
    generate_multi_pairing_ir,
    generate_pairing_ir,
    validate_batch_size,
)
from repro.compiler.store import ArtifactStore, Deferred, active_store, store_counters
from repro.reliability import faults as _faults
from repro.compiler.opt import OptStats, optimize
from repro.compiler.regalloc import allocate_registers
from repro.compiler.schedule import ScheduledProgram, affinity_schedule
from repro.errors import CompilerError
from repro.fields.variants import VariantConfig
from repro.pairing.final_exp import validate_final_exp_mode
from repro.hw.model import HardwareModel
from repro.hw.presets import default_model
from repro.ir.lowering import lower_module
from repro.sim.cycle import CycleAccurateSimulator, CycleStats


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to compile, and how: the one value the compile layer carries.

    ``n_pairs=None`` is the classic single-pairing kernel; an integer is the
    batched pairing-product kernel of that size, compiled through the *same*
    stage sequence plus the multi-core simulation on ``hw.n_cores``.
    ``split_accumulators`` (batched only) traces one independent Miller
    accumulator chain per hardware core instead of the single shared chain --
    the kernel itself then depends on ``hw.n_cores``.  ``final_exp_mode`` is
    the hard-part backend traced into the kernel ("generic" | "cyclotomic" |
    "compressed"; :data:`repro.pairing.final_exp.FINAL_EXP_MODES`).
    ``hw=None`` and ``variant_config=None`` mean the curve's default model and
    all-Karatsuba (:meth:`resolved`).  ``do_assemble`` emits the binary
    (:attr:`CompileResult.program`); no recorded fact depends on it, since
    ``imem_bits`` is the size of that binary either way.

    Validated once, here, so every entry point fails the same way.  A flag
    that is not a ``bool`` raises ``CompilerError``: ``bool("shared")`` is
    true, so truthiness would compile the split kernel, and ``0`` digests
    apart from ``False``, so it would store one kernel twice.  A bad batch
    size or a knob set on the kernel kind it does not apply to raise
    ``CompilerError`` too; an unknown final-exp mode raises ``PairingError``,
    an invalid hardware model ``HardwareModelError``.
    """

    hw: HardwareModel | None = None
    variant_config: VariantConfig | None = None
    n_pairs: int | None = None
    split_accumulators: bool = False
    final_exp_mode: str = "generic"
    do_assemble: bool = True

    def __post_init__(self):
        for flag in ("split_accumulators", "do_assemble"):
            if not isinstance(getattr(self, flag), bool):
                raise CompilerError(
                    f"{flag} must be True or False, got {getattr(self, flag)!r}")
        if self.hw is not None:
            self.hw.validate()
        validate_final_exp_mode(self.final_exp_mode)
        if self.n_pairs is None:
            if self.split_accumulators:
                raise CompilerError(
                    "split_accumulators applies to batched kernels only (set n_pairs)")
        else:
            validate_batch_size(self.n_pairs)

    def resolved(self, curve) -> "KernelSpec":
        """This spec with the defaults for ``curve`` filled in (what results carry)."""
        if self.hw is not None and self.variant_config is not None:
            return self
        return replace(self, hw=self.hw or default_model(curve.params.p.bit_length()),
                       variant_config=self.variant_config or VariantConfig.all_karatsuba())

    @property
    def accumulator_groups(self) -> int | None:
        """Group count of the traced kernel (None = shared-accumulator mode);
        needs a resolved spec."""
        return self.hw.n_cores if self.split_accumulators else None

    def stage_key(self, curve, *extra) -> tuple:
        """Key of this kernel's *trace* in the per-process stage caches.

        Split kernels and the three final-exp modes are different traces, so
        every stage is keyed on the group count and the mode; batched keys
        carry a leading marker so they can never collide with the
        single-pairing tuples.  The ``True`` is ``use_naf``.
        """
        if self.n_pairs is None:
            return (curve.name, True, self.final_exp_mode, *extra)
        return ("multi", curve.name, self.n_pairs, self.accumulator_groups, True,
                self.final_exp_mode, *extra)

    def digest(self, curve) -> str:
        """SHA-256 semantic digest: the key of the compiled result in both
        cache tiers.  The two shapes of the key material are kept byte for
        byte -- the digests pinned in the tests are how a refactor of this
        layer shows it describes every kernel as before -- which is why the
        retired ``optimize_ir`` / ``use_naf`` / ``use_affinity`` / ``record_trace``
        / ``include_baseline`` / ``pipeline_depth`` knobs survive here as literals."""
        spec = self.resolved(curve)
        flags = dict(optimize_ir=True, use_naf=True, use_affinity=True,
                     do_assemble=spec.do_assemble, final_exp_mode=spec.final_exp_mode)
        if spec.n_pairs is None:
            flags.update(include_baseline=False, record_trace=False)
        else:
            flags.update(
                kernel="multi_pairing", n_pairs=spec.n_pairs,
                n_cores=spec.hw.n_cores,   # not part of hw.cache_key(); cycles depend on it
                split_accumulators=spec.split_accumulators,
                pipeline_depth=1,
            )
        return CompileCache.make_key(curve.name, spec.variant_config, spec.hw, **flags)


_KNOBS = frozenset(f.name for f in fields(KernelSpec))


@dataclass
class CompileResult:
    """Everything the evaluation harness needs about one compiled kernel.

    :attr:`spec` is the resolved :class:`KernelSpec` the kernel was compiled
    from; its knobs read through under their own names (``result.hw``,
    ``result.n_pairs``, ``result.final_exp_mode``, ...).  A batched kernel
    (``n_pairs`` set) computes the fused product ``Pi e(P_i, Q_i)`` with a
    single final exponentiation: :attr:`multicore_stats` then holds the
    deterministic ``hw.n_cores``-core simulation (per-pair line-evaluation
    lanes distributed by the LPT list schedule) and :attr:`cycle_stats` the
    plain single-core run of the same schedule.

    :attr:`schedule` and :attr:`program` -- all but ~1 kB of a result -- live
    in :attr:`bulk`, which the disk tier keeps packed: a result it wrote or
    served holds the entry's compressed bytes and unpickles both, once, when
    either is first read, after checking their SHA-256 (a served result whose
    bytes fail it is recompiled there).  What a design point is priced from
    (:attr:`cycles`, :attr:`ipc`, :attr:`imem_bits`, the registers,
    :meth:`describe`) is recorded and never does.
    """

    curve_name: str
    spec: KernelSpec
    # Instruction counts.
    hl_instructions: int
    initial_instructions: int          # F_p instructions before IROpt ("Init.")
    final_instructions: int            # F_p instructions after IROpt ("Opt.")
    opt_stats: OptStats
    # Backend results.
    cycle_stats: CycleStats
    registers_per_bank: dict
    total_registers: int
    #: The size of the binary the kernel assembles to, assembled or not.
    imem_bits: int
    #: ``(schedule, program)``; shared by relabelled copies of the result.
    bulk: Deferred
    #: The ``hw.n_cores``-core simulation of a batched kernel; None on the
    #: single-pairing kernel.
    multicore_stats: CycleStats | None = None
    # Stage timings in seconds.
    stage_seconds: dict = field(default_factory=dict)

    def __getattr__(self, name):
        # Only reached for names that are not attributes of the result itself.
        if name in _KNOBS:
            return getattr(self.spec, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def schedule(self) -> ScheduledProgram:
        return self.bulk.get()[0]

    @property
    def program(self):
        """The ``AssembledProgram`` (None if assembly was skipped)."""
        return self.bulk.get()[1]

    @property
    def _configured_stats(self):
        """The simulation on the configured core count."""
        return self.cycle_stats if self.multicore_stats is None else self.multicore_stats

    @property
    def cycles(self) -> int:
        """Kernel latency on the configured core count (the whole fused batch
        for a batched kernel)."""
        return self._configured_stats.total_cycles

    @property
    def ipc(self) -> float:
        """IPC of the configured simulation, consistent with :attr:`cycles`;
        the single-core IPC is ``cycle_stats.ipc``."""
        return self._configured_stats.ipc

    @property
    def single_core_cycles(self) -> int:
        return self.cycle_stats.total_cycles

    @property
    def accumulator_groups(self) -> int:
        """Number of independent accumulator chains in the kernel (1 = shared)."""
        return self.spec.accumulator_groups or 1

    @property
    def cycles_per_pairing(self) -> float:
        return self.cycles / (self.spec.n_pairs or 1)

    @property
    def compile_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def describe(self) -> dict:
        spec = self.spec
        summary = {
            "curve": self.curve_name,
            "kernel": "multi_pairing",
            "n_pairs": spec.n_pairs,
            "accumulators": "split" if spec.split_accumulators else "shared",
            "accumulator_groups": self.accumulator_groups,
            "n_cores": spec.hw.n_cores,
            "hw": spec.hw.name,
            "variants": spec.variant_config.name,
            "hl_instructions": self.hl_instructions,
            "init_instructions": self.initial_instructions,
            "opt_instructions": self.final_instructions,
            "instr_reduction": round(self.opt_stats.reduction, 4),
            "cycles": self.cycles,
            "ipc": round(self.ipc, 3),
            "single_core_cycles": self.single_core_cycles,
            "cycles_per_pairing": round(self.cycles_per_pairing, 1),
            "registers": self.total_registers,
            "final_exp_mode": spec.final_exp_mode,
            "compile_seconds": round(self.compile_seconds, 2),
        }
        # Each kernel kind reports the keys (and order) it always has.
        for key in (("instr_reduction", "ipc") if spec.n_pairs is not None else
                    ("kernel", "n_pairs", "accumulators", "accumulator_groups",
                     "n_cores", "single_core_cycles", "cycles_per_pairing")):
            del summary[key]
        return summary


@contextmanager
def _timed(timings: dict, stage: str):
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


@contextmanager
def _collector_paused():
    """No cyclic collection inside, and the collector left as it was found.

    A compile builds ~10^5 lists and tuples and not one reference cycle:
    every collection it triggers (hundreds, a few of them full) walks a heap
    that only grows and frees nothing; reference counting frees what it
    always did.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def _run_stages(curve, spec: KernelSpec) -> CompileResult:
    """The stage sequence for one resolved spec, uncached at the result level."""
    hw, n_pairs, groups = spec.hw, spec.n_pairs, spec.accumulator_groups
    timings: dict = {}

    with _timed(timings, "codegen"):
        hl_module = _cached_hl_module(curve, spec)
    with _timed(timings, "lowering"):
        if _stage_key(curve, spec) not in _OPT_CACHE:    # lowered for IROpt alone
            _cached_low_module(curve, spec)
    with _timed(timings, "iropt"):
        optimized_module, opt_stats = _cached_optimized(curve, spec)
    with _timed(timings, "bankalloc"):
        banks = allocate_banks(optimized_module, hw)
    with _timed(timings, "packsched"):
        schedule = affinity_schedule(optimized_module, hw, banks, use_affinity=True)

    multicore_stats = None
    with _timed(timings, "cyclesim"):
        simulator = CycleAccurateSimulator()
        cycle_stats = simulator.run(schedule)
        if n_pairs is not None:
            if hw.n_cores > 1:
                multicore_stats = simulator.run_multicore(schedule, hw.n_cores)
            else:
                # One core degenerates to the classic simulation just done
                # (exactly so for single-issue models, and the bundle walk is
                # the more faithful one for a VLIW-packed schedule): skip the
                # second walk and re-label it, every lane on core 0.
                multicore_stats = replace(cycle_stats, lane_assignment=dict.fromkeys(
                    optimized_module.lane_histogram(), 0))
    with _timed(timings, "regalloc"):
        allocation = allocate_registers(schedule)

    program = None
    if spec.do_assemble:
        with _timed(timings, "asm+link"):
            suffix = "" if n_pairs is None else f"-x{n_pairs}"
            if groups is not None and groups > 1:
                suffix += f"-split{groups}"
            if spec.final_exp_mode != "generic":
                suffix += f"-fe-{spec.final_exp_mode}"
            program = assemble(schedule, allocation, name=f"{curve.name}{suffix}-{hw.name}")

    return CompileResult(
        curve_name=curve.name, spec=spec,
        hl_instructions=hl_module.count_compute_ops(),
        initial_instructions=opt_stats.initial,
        final_instructions=optimized_module.count_compute_ops(),
        opt_stats=opt_stats, cycle_stats=cycle_stats,
        registers_per_bank=dict(allocation.registers_per_bank),
        total_registers=allocation.total_registers,
        imem_bits=binary_size_bits(schedule, allocation),
        bulk=Deferred((schedule, program)),
        multicore_stats=multicore_stats,
        stage_seconds=timings,
    )


class CompilerPipeline:
    """The staged pipeline for one :class:`KernelSpec`, given as keywords and
    kept on :attr:`spec`; :meth:`compile` runs every stage past the stage
    caches (see ``compile_kernel`` for the result-cached API)."""

    def __init__(self, **knobs):
        self.spec = KernelSpec(**knobs)

    def compile(self, curve) -> CompileResult:
        return _run_stages(curve, self.spec.resolved(curve))


# ---------------------------------------------------------------------------
# Stage-level caches (per process, instrumented)
# ---------------------------------------------------------------------------

_HL_CACHE = CompileCache("codegen")
_LOW_CACHE = CompileCache("lowering")
_OPT_CACHE = CompileCache("iropt")
_RESULT_CACHE = CompileCache("result")
_CACHES = (_HL_CACHE, _LOW_CACHE, _OPT_CACHE, _RESULT_CACHE)


def _cached_hl_module(curve, spec: KernelSpec):
    def factory():
        if spec.n_pairs is None:
            return generate_pairing_ir(curve, final_exp_mode=spec.final_exp_mode)
        return generate_multi_pairing_ir(curve, spec.n_pairs,
                                         accumulator_groups=spec.accumulator_groups,
                                         final_exp_mode=spec.final_exp_mode)

    return _HL_CACHE.get_or_compute(spec.stage_key(curve), factory)


def _stage_key(curve, spec: KernelSpec) -> tuple:
    """Key of the lowering and IROpt caches: the trace's key plus the variants."""
    return spec.stage_key(curve, spec.variant_config.cache_key())


def _cached_low_module(curve, spec: KernelSpec):
    """The lowered module; its cache entry lives until IROpt consumes it."""
    return _LOW_CACHE.get_or_compute(
        _stage_key(curve, spec),
        lambda: lower_module(_cached_hl_module(curve, spec), curve.tower.levels,
                             spec.variant_config),
    )


def _cached_optimized(curve, spec: KernelSpec):
    key = _stage_key(curve, spec)

    def factory():
        optimized = optimize(_cached_low_module(curve, spec), curve.params.p)
        _LOW_CACHE.discard(key)
        return optimized

    return _OPT_CACHE.get_or_compute(key, factory)


def stage_modules(curve, **knobs) -> tuple:
    """``(traced, lowered, optimized)`` IR modules of the kernel ``knobs``
    describe (:class:`KernelSpec` fields).  The traced and optimized modules
    are the stage caches' own -- the very ones a compile of that kernel is
    built from; no cache keeps a lowered module past IROpt, so the lowered
    one is lowered here, on demand: a module equal in content to the one
    IROpt consumed, not the same object."""
    spec = KernelSpec(**knobs).resolved(curve)
    traced, lowered = _cached_hl_module(curve, spec), _cached_low_module(curve, spec)
    optimized = _cached_optimized(curve, spec)[0]
    _LOW_CACHE.discard(_stage_key(curve, spec))
    return traced, lowered, optimized


def clear_caches(disk: bool = False) -> None:
    """Drop every cached compilation artefact (used by memory-sensitive sweeps).

    The active :class:`~repro.compiler.store.ArtifactStore` (if any) has its
    counters reset as well, so a sweep that calls ``clear_caches()`` starts
    from clean statistics on every tier.  With ``disk=True`` the store's
    on-disk entries are deleted too, giving tests and benchmarks a *genuinely*
    cold path on demand; the default keeps persisted artefacts, which is the
    whole point of the disk tier.
    """
    for cache in _CACHES:
        cache.clear()
    store = active_store()
    if store is not None:
        store.stats.reset()
        if disk:
            store.clear()


def compile_cache_stats() -> dict:
    """Hit/miss/store counters of every pipeline cache, keyed by stage name.

    The ``result`` entry is the one design-space sweeps care about: its miss
    count is exactly the number of full recompilations performed since the
    last :func:`clear_caches` -- a disk hit repopulates the memory tier
    without counting as a result miss.  The ``disk`` entry is the active
    store's counters (``FINESSE_CACHE_DIR`` or
    :func:`repro.compiler.store.configure_store`).
    """
    stats = {cache.name: cache.describe() for cache in _CACHES}
    store = active_store()
    # Counters only: no walk of the store's directory tree (use
    # ``store.describe()`` directly for on-disk usage).  With no disk tier
    # configured the same key reports zeroed counters (the full store key
    # set), so runner summaries and --assert-warm scripts never special-case
    # cold configurations.
    stats[ArtifactStore.name] = (
        store.counters() if store is not None
        else dict(store_counters().snapshot(), name=ArtifactStore.name)
    )
    return stats


def cache_counters() -> dict:
    """The live :class:`~repro.obs.Counters` of every tier, keyed as in
    :func:`compile_cache_stats` (a zeroed set for ``disk`` when no store is
    active) -- what the exploration engine takes deltas of."""
    counters = {cache.name: cache.stats for cache in _CACHES}
    store = active_store()
    counters[ArtifactStore.name] = store.stats if store is not None else store_counters()
    return counters


def _lookup(curve, key: str, spec: KernelSpec, store) -> CompileResult | None:
    """The two-tier result lookup under ``key``: memory, then ``store``.

    A hit counts on the tier that answered, and a disk hit repopulates the
    memory tier with the result as loaded, its bulk still packed and unchecked,
    given a hook that rebuilds it should it fail its digest on first read
    (:func:`_rebuild_bulk`).  Names are labels, not semantics, so they are not
    in the digest: a hit compiled under another ``hw`` / ``variant_config``
    *name* answers as a copy carrying the caller's spec, which shares the
    :attr:`~CompileResult.bulk` and takes the memory slot (one more
    ``stores``), so one caller's repeated hits are one object.
    """
    cached = _RESULT_CACHE.peek(key)
    if cached is not None:
        _RESULT_CACHE.stats.hits += 1
    elif store is not None:
        cached = store.load(key)
        if cached is not None:
            cached.bulk.rebuild = partial(_rebuild_bulk, curve, key, cached.spec,
                                          _head_facts(cached), store)
            _RESULT_CACHE.store(key, cached)
    if cached is not None and (cached.spec.hw.name, cached.spec.variant_config.name) != (
            spec.hw.name, spec.variant_config.name):
        cached = replace(cached, spec=spec)
        _RESULT_CACHE.store(key, cached)
    return cached


def _head_facts(result: CompileResult) -> tuple:
    return result.cycles, result.imem_bits, result.registers_per_bank, result.total_registers


def _rebuild_bulk(curve, key: str, spec: KernelSpec, facts: tuple, store) -> tuple:
    """The ``(schedule, program)`` of a loaded result whose bulk failed its
    digest: the entry is dropped (one ``corrupt``), the kernel recompiled (one
    ``result`` miss, so misses still count recompilations) and checked against
    the facts its head recorded, and the entry rewritten."""
    store.drop(key)
    _RESULT_CACHE.stats.misses += 1
    fresh = _run_stages(curve, spec)
    if _head_facts(fresh) != facts:
        raise CompilerError(
            f"recompiled kernel {key[:12]} disagrees with its stored head: "
            f"{_head_facts(fresh)} != {facts}")
    bulk = fresh.bulk.get()
    store.store(key, fresh)
    return bulk


def cached_kernel(curve, spec: KernelSpec) -> CompileResult | None:
    """The lookup half of :func:`compile_kernel`: its answer when a cache tier
    holds the kernel, else ``None`` (the exploration engine answers cached
    points in the parent and dispatches the rest).

    The disk tier is asked only for an entry that exists: finding nothing
    moves no counter -- that miss belongs to whoever compiles the kernel.
    """
    spec = spec.resolved(curve)
    key, store = spec.digest(curve), active_store()
    if key not in _RESULT_CACHE and (store is None or key not in store):
        return None
    return _lookup(curve, key, spec, store)


def compile_kernel(curve, spec: KernelSpec, use_cache: bool = True) -> CompileResult:
    """Compile the kernel ``spec`` describes for ``curve``: where every entry
    point meets.

    Two-tier result lookup under ``spec.digest(curve)`` (:func:`_lookup`):
    memory, then disk, then a real compile.  The result-cache miss counter is
    only bumped when a real compile happens, preserving the "misses ==
    recompilations" contract for disk-served sweeps.  With a disk tier, a
    compiled result is returned as written: its bulk packed into the entry's
    bytes, as after a disk hit, so the memory tier keeps one compressed copy
    of each kernel (the first read of :attr:`~CompileResult.schedule` or
    :attr:`~CompileResult.program` unpickles it).  ``use_cache=False``
    compiles unconditionally and leaves both tiers and their counters alone
    (the stage caches still serve), and its result stays live.
    """
    spec = spec.resolved(curve)
    store = active_store() if use_cache else None
    if use_cache:
        key = spec.digest(curve)
        cached = _lookup(curve, key, spec, store)
        if cached is not None:
            return cached
        _RESULT_CACHE.stats.misses += 1
    if _faults.ACTIVE is not None:
        # Fires only on real compiles: cache hits stay fault-free, so a
        # transient compile fault heals through the evaluate-level retry.
        _faults.ACTIVE.apply("compile")
    result = _run_stages(curve, spec)
    if use_cache:
        _RESULT_CACHE.store(key, result)
        if store is not None:
            store.store(key, result)
    return result


def compile_pairing(curve, hw: HardwareModel | None = None,
                    variant_config: VariantConfig | None = None,
                    use_cache: bool = True, **knobs) -> CompileResult:
    """Compile the single-pairing kernel for ``curve`` (cached by full configuration).

    ``knobs`` are the remaining :class:`KernelSpec` fields that apply to the
    single kernel (``final_exp_mode``, ``do_assemble``);
    all of them are part of the semantic cache digest, so e.g. the three
    final-exp kernels never share a cached (or disk-stored) artefact.
    """
    spec = KernelSpec(hw=hw, variant_config=variant_config, n_pairs=None, **knobs)
    return compile_kernel(curve, spec, use_cache)


def pairing_compile_digest(curve, **knobs) -> str:
    """Semantic cache digest of a compile call with these keywords, without compiling.

    Exactly the key that call would look up (``n_pairs`` among the ``knobs``
    gives the batched kernel's), and the file name its artefact has in the
    disk tier (``ArtifactStore`` entries are keyed by it).
    """
    return KernelSpec(**knobs).digest(curve)


def compile_multi_pairing(curve, n_pairs: int, hw: HardwareModel | None = None,
                          variant_config: VariantConfig | None = None,
                          use_cache: bool = True, **knobs) -> CompileResult:
    """Compile the batched pairing-product kernel ``Pi e(P_i, Q_i)`` for ``curve``.

    The kernel shares one accumulator squaring per Miller iteration and a
    single final exponentiation across the batch
    (:func:`repro.compiler.codegen.generate_multi_pairing_ir`); the per-pair
    line-evaluation lanes are then dispatched across ``hw.n_cores`` replicated
    cores by the deterministic multi-core simulation
    (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_multicore`).  Results
    flow through the same two-tier (memory -> disk) compile cache as
    :func:`compile_pairing`, with the batch size, core count and accumulator
    mode part of the semantic digest.  ``knobs`` are the remaining
    :class:`KernelSpec` fields that apply to a batched kernel:

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

    ``do_assemble`` as on :class:`KernelSpec`.  The cross-batch pipeline
    depth is no compile knob: walk the result's schedule
    (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_pipelined`).

    Example -- compile a batch-8 kernel on a 4-core model and read the
    figures a design sweep ranks on::

        import repro
        curve = repro.get_curve("TOY-BN42")
        hw = repro.paper_hw1(curve.params.p.bit_length()).with_cores(4)
        kernel = repro.compile_multi_pairing(curve, 8, hw=hw)
        kernel.cycles                # latency of the whole fused batch
        kernel.cycles_per_pairing    # amortised cost (falls with batch size)
    """
    # Checked here too: to the spec, ``n_pairs=None`` means the single kernel.
    spec = KernelSpec(hw=hw, variant_config=variant_config,
                      n_pairs=validate_batch_size(n_pairs), **knobs)
    return compile_kernel(curve, spec, use_cache)
