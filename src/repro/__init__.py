"""Finesse reproduction: agile SW/HW co-design framework for pairing-based cryptography.

The package is organised as a stack of subsystems mirroring the paper:

* :mod:`repro.nt` / :mod:`repro.fields` / :mod:`repro.curves` / :mod:`repro.pairing`
  -- the cryptographic substrate (operator kit, curves, golden optimal-Ate pairing).
* :mod:`repro.ir` / :mod:`repro.isa` / :mod:`repro.hw`
  -- the abstraction system (IR, ISA, hardware pipeline/area/timing models).
* :mod:`repro.compiler` / :mod:`repro.sim`
  -- the compilation pipeline and the functional / cycle-accurate simulators.
* :mod:`repro.dse` / :mod:`repro.baselines` / :mod:`repro.evaluation`
  -- design-space exploration, published baselines and the experiment harness.
* :mod:`repro.service`
  -- the streaming verification service (async dynamic batching of
  Groth16/BLS verification traffic over the fused pairing kernels).

See ``docs/architecture.md`` for the full module map and data-flow diagrams.

Public API (re-exported here)
-----------------------------
Curves
    ``get_curve(name, fp_backend=None)`` -- a catalog curve by name
    (toy + paper-scale BN/BLS12/BLS24 entries).
    ``list_curves()`` -- every catalog curve name.

Pairing (software golden path)
    ``optimal_ate_pairing(curve, P, Q, ...)`` -- one optimal-Ate pairing
    ``e(P, Q)``; the bit-exact ground truth everything else is tested against.
    ``multi_pairing(curve, pairs, ...)`` -- the fused pairing product
    ``Pi e(P_i, Q_i)``: one shared accumulator squaring per loop iteration
    and a single final exponentiation (see its docstring for an example).
    ``precompute_g2(curve, Q, use_naf=True)`` -- P-independent Miller-loop
    line coefficients of a fixed G2 point, replayable against any G1 point.
    ``split_batched_miller_loop(ctx, sources, n_groups, ...)`` -- the
    split-accumulator Miller loop (one independent chain per group).
    ``combine_products(curve, products, coefficients)`` -- a batch verifier's
    algebra: the pairs of ``Pi_j product_j ** c_j`` with every group of pairs
    that share a G2 point coalesced into one (``e(Sum c_i P_i, Q)``, one
    ``EllipticCurve.multi_scalar_mul`` per group).
    All four run -- and every compiled kernel traces -- the one loop of the
    package, ``repro.pairing.miller.miller_walk``, over one, many or
    per-group line sources.

Compiler
    ``KernelSpec`` -- the one validated description of a kernel to compile
    (hardware model, variant config, batch size, accumulator / final-exp
    mode, pipeline flags); every entry point below folds its keywords into
    one, and ``compile_kernel(curve, spec)`` is where they meet.
    ``compile_pairing(curve, hw=None, variant_config=None, **knobs)`` --
    compile the single-pairing accelerator kernel (cached by full semantic
    configuration).
    ``compile_multi_pairing(curve, n_pairs, hw=None, variant_config=None,
    **knobs)`` -- compile the batched pairing-product kernel (see its
    docstring for an example).  Both return a ``CompileResult`` carrying the
    resolved spec; a batched one scores itself as a continuously-fed
    accelerator at any depth with ``result.pipelined(depth)``.
    ``CompilerPipeline(**knobs)`` -- the uncached staged pipeline for one spec.
    ``compile_cache_stats()`` -- per-stage hit/miss/store counters of the
    two-tier compile cache.

Compile-artifact store (disk tier)
    ``ArtifactStore`` -- content-addressed on-disk kernel store (a hit loads
    the kernel's recorded facts; its schedule and program on first use).
    ``active_store()`` / ``configure_store(path)`` -- inspect / pin the
    process-wide store (``FINESSE_CACHE_DIR`` configures it per environment).

Field-arithmetic backends
    ``active_fp_backend()`` / ``available_fp_backends()`` -- inspect /
    enumerate the ``F_p`` residue types (``python`` | ``gmpy2``; selected per
    call with ``get_curve(name, fp_backend=...)`` or per process with
    ``FINESSE_FP_BACKEND``).

Hardware models
    ``HardwareModel`` -- the accelerator model (word width, FUs, cores, ...).
    ``default_model(bits=None)`` -- a sensible generic model.
    ``paper_hw1(bits)`` / ``paper_hw2(bits)`` -- the paper's two presets.
    ``VariantConfig`` -- per-operator algorithm-variant selection.

Design-space exploration
    ``list_objectives()`` -- registered ranking objectives with one-line
    descriptions (``--objectives help`` on the evaluation runner prints it).
    ``ParetoResult`` -- the frontier record returned by ``explore_pareto``
    on ``repro.dse.ParallelExplorer``
    (see ``docs/dse.md`` for objectives, strategies and budget semantics).

Simulators
    ``FunctionalSimulator`` -- executes a compiled kernel on concrete values
    (bit-exact vs the software pairing).
    ``CycleAccurateSimulator`` -- deterministic single- and multi-core cycle
    simulation of a compiled kernel; ``run_pipelined`` additionally models
    the continuously-fed accelerator (several batch instances in flight).
    ``CycleStats`` -- the one record all three walks answer with (cycles,
    stall breakdown, per-core columns; fill/drain cycles and steady-state
    cycles per batch derived from its per-instance columns).

Serving
    ``VerificationService(curve, config=None)`` -- the asyncio verification
    service: dynamic batching, verifying-key cache, fused batch checks.
    ``ServiceConfig(...)`` -- its knobs (``FINESSE_SERVICE_*`` environment
    variables via ``ServiceConfig.from_env``; see ``docs/serving.md``).
    ``ServiceProfile(...)`` -- a traffic profile for ranking hardware design
    points by end-to-end service latency/throughput in the DSE layer.

Configuration
    Every ``FINESSE_*`` environment variable is declared in ``repro.config``
    and follows one policy (a bad value means the default); see
    ``docs/configuration.md``.

Reliability
    ``configure_faults(plan)`` / ``FaultPlan`` -- the deterministic seeded
    fault-injection framework (``FINESSE_FAULTS`` grammar); inert unless
    configured.  ``RetryPolicy`` -- exponential backoff with full jitter.
    ``CircuitBreaker`` -- the closed/open/half-open breaker guarding the
    service's fused batch path.  ``ReliabilityStats`` -- the DSE engine's
    recovery counters.  See ``docs/reliability.md``.
"""

from repro.compiler.pipeline import (
    CompilerPipeline,
    KernelSpec,
    compile_cache_stats,
    compile_kernel,
    compile_multi_pairing,
    compile_pairing,
)
from repro.compiler.store import ArtifactStore, active_store, configure_store
from repro.curves.catalog import get_curve, list_curves
from repro.fields.backends import (
    active_fp_backend,
    available_backends as available_fp_backends,
)
from repro.dse.objectives import list_objectives
from repro.dse.pareto import ParetoResult
from repro.fields.variants import VariantConfig
from repro.hw.model import HardwareModel
from repro.hw.presets import default_model, paper_hw1, paper_hw2
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import combine_products, multi_pairing, precompute_g2, split_batched_miller_loop
from repro.reliability import (
    CircuitBreaker,
    FaultPlan,
    ReliabilityStats,
    RetryPolicy,
    configure_faults,
)
from repro.service import ServiceConfig, ServiceProfile, VerificationService
from repro.sim.cycle import CycleAccurateSimulator, CycleStats
from repro.sim.functional import FunctionalSimulator

__version__ = "1.22.0"

__all__ = [
    "get_curve",
    "list_curves",
    "optimal_ate_pairing",
    "multi_pairing",
    "precompute_g2",
    "combine_products",
    "split_batched_miller_loop",
    "CompilerPipeline",
    "KernelSpec",
    "compile_kernel",
    "compile_pairing",
    "compile_multi_pairing",
    "compile_cache_stats",
    "ArtifactStore",
    "active_store",
    "configure_store",
    "active_fp_backend",
    "available_fp_backends",
    "VariantConfig",
    "HardwareModel",
    "list_objectives",
    "ParetoResult",
    "default_model",
    "paper_hw1",
    "paper_hw2",
    "FunctionalSimulator",
    "CycleAccurateSimulator",
    "CycleStats",
    "VerificationService",
    "ServiceConfig",
    "ServiceProfile",
    "configure_faults",
    "FaultPlan",
    "RetryPolicy",
    "CircuitBreaker",
    "ReliabilityStats",
    "__version__",
]
