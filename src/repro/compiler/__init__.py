"""The Finesse compilation pipeline.

Stages (Section 3.5 of the paper): CodeGen -> IROpt -> BankAlloc -> PackSched ->
RegAlloc -> ASM -> Link, run for one :class:`repro.compiler.pipeline.KernelSpec` by
:func:`repro.compiler.pipeline.compile_kernel` (``cached_kernel`` is its lookup half).
"""

from repro.compiler.cache import CompileCache
from repro.compiler.pipeline import (
    CompilerPipeline,
    CompileResult,
    KernelSpec,
    cached_kernel,
    clear_caches,
    compile_cache_stats,
    compile_kernel,
    compile_pairing,
)
from repro.compiler.store import (
    ArtifactStore,
    active_store,
    configure_store,
)
from repro.compiler.codegen import generate_pairing_ir, TracingPairingContext

__all__ = [
    "CompilerPipeline",
    "CompileResult",
    "KernelSpec",
    "CompileCache",
    "ArtifactStore",
    "active_store",
    "configure_store",
    "compile_kernel",
    "cached_kernel",
    "compile_pairing",
    "compile_cache_stats",
    "clear_caches",
    "generate_pairing_ir",
    "TracingPairingContext",
]
