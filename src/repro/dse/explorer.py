"""Design-point evaluation.

Each design point is evaluated through the real tool-chain: compile (with the
point's operator variants), schedule and simulate on the point's hardware model,
then price it with the area and timing models -- the co-design feedback loop of
Section 3.6, with the analytic models standing in for the EDA tools.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.pipeline import KernelSpec, compile_kernel
from repro.dse.space import DesignPoint
from repro.dse.spec import EvalSpec
from repro.hw.area import estimate_area
from repro.hw.power import estimate_power
from repro.hw.timing import frequency_mhz

#: The hard-part kernel every design point is scored on.
FINAL_EXP_MODE = "cyclotomic"


@dataclass(frozen=True)
class DesignMetrics:
    """Figures of merit of one evaluated design point.

    ``batch`` is 1 for the classic single-pairing evaluation; for batched
    evaluations (``batch_size`` on the explorer) ``cycles`` is the latency of
    the whole fused batch on the point's core count and
    ``cycles_per_pairing`` the amortised per-pairing cost the ranking cares
    about.  ``accumulator_mode`` records which batched kernel scored the
    point: ``"shared"`` (one fused chain) or ``"split"`` (one chain per core,
    merged before the final exponentiation): on more than one core it is
    whichever of the two simulated to fewer cycles for this design point.
    ``final_exp_mode`` records the hard-part backend of the scoring kernel,
    always ``"cyclotomic"``.
    """

    label: str
    curve: str
    cycles: int
    instructions: int
    ipc: float
    frequency_mhz: float
    latency_us: float
    throughput_ops: float
    area_mm2: float
    throughput_per_mm2: float
    registers: int
    batch: int = 1
    cycles_per_pairing: float = 0.0
    accumulator_mode: str = "shared"
    final_exp_mode: str = "generic"
    #: Power figures from :mod:`repro.hw.power` (dynamic + leakage at the
    #: sweep's technology node, with the dynamic part scaled by the scoring
    #: kernel's issue-slot utilisation).  ``energy_per_pairing_uj`` amortises
    #: the draw over the per-pairing time, and
    #: ``throughput_per_watt`` is the rankable energy-efficiency axis.
    power_mw: float = 0.0
    energy_per_pairing_uj: float = 0.0
    throughput_per_watt: float = 0.0

    def describe(self) -> dict:
        return {
            "label": self.label,
            "curve": self.curve,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": round(self.ipc, 3),
            "frequency_mhz": round(self.frequency_mhz, 1),
            "latency_us": round(self.latency_us, 2),
            "throughput_ops": round(self.throughput_ops, 1),
            "area_mm2": round(self.area_mm2, 3),
            "throughput_per_mm2": round(self.throughput_per_mm2, 2),
            "batch": self.batch,
            "cycles_per_pairing": round(self.cycles_per_pairing or self.cycles, 1),
            "accumulator_mode": self.accumulator_mode,
            "final_exp_mode": self.final_exp_mode,
            "power_mw": round(self.power_mw, 2),
            "energy_per_pairing_uj": round(self.energy_per_pairing_uj, 3),
            "throughput_per_watt": round(self.throughput_per_watt, 1),
        }


class KernelNotCached(LookupError):
    """A design point needs a kernel that no cache tier holds."""


def _compile_kernel(curve, point: DesignPoint, spec: EvalSpec, n_pairs,
                    accumulator: str, fetch):
    """The one place a design point meets the compiler: the single-pairing
    kernel when ``n_pairs`` is ``None``, else the ``n_pairs``-wide batched
    kernel on the spec's core count.  ``fetch`` is ``compile_kernel``, or
    ``cached_kernel`` for an evaluation that may only look kernels up: its
    first miss ends it with :class:`KernelNotCached`."""
    kernel = fetch(curve, KernelSpec(
        hw=point.hw if n_pairs is None else point.hw.with_cores(spec.n_cores),
        variant_config=point.variant_config, n_pairs=n_pairs,
        split_accumulators=accumulator == "split", final_exp_mode=FINAL_EXP_MODE,
    ))
    if kernel is None:
        raise KernelNotCached(point.display_label)
    return kernel


def evaluate_design_point(curve, point: DesignPoint, **knobs) -> DesignMetrics:
    """Compile + simulate + price one design point.

    With ``batch_size`` set, the point is scored on the *batched* multi-pairing
    kernel (the Groth16-verifier shape): the fused batch is compiled once, the
    per-pair lanes are dispatched across ``n_cores`` by the deterministic
    multi-core simulation, and throughput counts pairings (not batches) per
    second -- the ranking sweeps care about batched-verify throughput.

    A batched point on more than one core compiles both accumulator modes,
    ``"shared"`` (one fused chain) and ``"split"`` (one chain per core), and
    is scored on whichever simulates to fewer cycles, so the co-design sweep
    itself discovers where the extra squaring chains pay for the removed
    serialisation; on one core only the shared kernel is compiled.  The
    chosen mode is recorded in :attr:`DesignMetrics.accumulator_mode`.

    Every kernel runs the ``"cyclotomic"`` final exponentiation, the
    optimized hard part the co-design loop ranks against.

    A point is scored one batch at a time.  Keeping several batch instances
    in flight (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_pipelined`)
    holds that many register files, which the area model does not price, so
    it is no axis here.

    ``knobs`` are the fields of :class:`repro.dse.spec.EvalSpec`, with its
    defaults: ``n_cores=1``, ``technology=TECH_40NM``, ``batch_size=None``.
    Degenerate inputs fail loudly at entry: a non-positive or non-integral
    ``batch_size`` or ``n_cores`` raises ``ValueError`` instead of compiling
    a nonsense kernel or reporting a nonsense throughput.
    """
    return _evaluate_spec(curve, point, EvalSpec(**knobs))


def _evaluate_spec(curve, point: DesignPoint, spec: EvalSpec,
                   fetch=compile_kernel) -> DesignMetrics:
    """:func:`evaluate_design_point` below the keyword boundary (what the
    exploration engine and its pool workers call with their one spec;
    ``fetch``: see :func:`_compile_kernel`)."""
    freq = frequency_mhz(point.hw.word_width, point.hw.long_latency, spec.technology)
    batch = spec.batch_size
    # Deterministic tie-break: fewest cycles first, then the simpler shared kernel.
    variants = {
        accumulator: _compile_kernel(curve, point, spec, batch, accumulator, fetch)
        for accumulator in spec.accumulator_modes
    }
    accumulator = min(variants,
                      key=lambda mode: (variants[mode].cycles, mode != "shared"))
    result = variants[accumulator]
    latency_us = result.cycles / freq
    if batch is None:
        throughput = spec.n_cores * 1e6 / latency_us
        cycles_per_pairing = float(result.cycles)
        pairings_per_s = throughput
    else:
        # The multi-core simulation already models the cores; throughput is
        # pairings per second of one such multi-core accelerator.
        throughput = batch * 1e6 / latency_us
        cycles_per_pairing = result.cycles_per_pairing
        # The same rate from the per-pairing time.  Throughput/W is priced
        # from this form, which can differ from ``throughput`` in the last
        # bit; the pinned metrics are recorded with it.
        pairings_per_s = freq * 1e6 / cycles_per_pairing
    area = estimate_area(point.hw, result.imem_bits, result.total_registers,
                         n_cores=spec.n_cores, technology=spec.technology)
    # Power prices the same design the area model measured: dynamic power
    # scales with the scoring kernel's issue-slot utilisation, energy amortises
    # the draw over the per-pairing time, and throughput/W is the
    # rankable energy-efficiency axis (the "power"/"energy"/
    # "throughput_per_watt" objectives).
    power = estimate_power(point.hw, area, freq,
                           activity=result.ipc / max(1, point.hw.issue_width),
                           technology=spec.technology)
    energy_uj = (power.total_mw / 1e3) * (cycles_per_pairing / freq)
    return DesignMetrics(
        label=point.display_label,
        curve=curve.name,
        cycles=result.cycles,
        instructions=result.final_instructions,
        ipc=result.ipc,
        frequency_mhz=freq,
        latency_us=latency_us,
        throughput_ops=throughput,
        area_mm2=area.total_mm2,
        throughput_per_mm2=throughput / area.total_mm2,
        registers=result.total_registers,
        batch=batch or 1,
        cycles_per_pairing=cycles_per_pairing,
        accumulator_mode=accumulator,
        final_exp_mode=FINAL_EXP_MODE,
        power_mw=power.total_mw,
        energy_per_pairing_uj=energy_uj,
        throughput_per_watt=pairings_per_s / (power.total_mw / 1e3),
    )
