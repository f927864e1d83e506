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
from repro.hw.area import estimate_area
from repro.hw.power import estimate_power
from repro.hw.timing import frequency_mhz

#: The hard-part kernel every design point is scored on.
FINAL_EXP_MODE = "cyclotomic"


@dataclass(frozen=True)
class DesignMetrics:
    """Figures of merit of one evaluated design point: its single-pairing
    kernel on one core at 40 nm."""

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
    #: Power figures from :mod:`repro.hw.power` (dynamic + leakage, with the
    #: dynamic part scaled by the scoring kernel's issue-slot utilisation).
    #: ``energy_per_pairing_uj`` amortises the draw over one pairing, and
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
            "power_mw": round(self.power_mw, 2),
            "energy_per_pairing_uj": round(self.energy_per_pairing_uj, 3),
            "throughput_per_watt": round(self.throughput_per_watt, 1),
        }


def evaluate_design_point(curve, point: DesignPoint) -> DesignMetrics:
    """Compile + simulate + price one design point.

    The point is scored on its single-pairing kernel with the
    ``"cyclotomic"`` final exponentiation, the optimized hard part the
    co-design loop ranks against (batched kernels: ``compile_multi_pairing``
    and the ``batch_verify`` experiment).
    """
    return _evaluate(curve, point, compile_kernel)


def design_kernel(point: DesignPoint) -> KernelSpec:
    """The one kernel a design point is scored on."""
    return KernelSpec(hw=point.hw, variant_config=point.variant_config,
                      final_exp_mode=FINAL_EXP_MODE)


def _evaluate(curve, point: DesignPoint, fetch) -> DesignMetrics | None:
    """:func:`evaluate_design_point` with the kernel fetched by ``fetch``:
    ``compile_kernel``, or ``cached_kernel`` for an evaluation that may only
    look its kernel up, which answers ``None`` when no cache tier holds it."""
    result = fetch(curve, design_kernel(point))
    if result is None:
        return None
    freq = frequency_mhz(point.hw.word_width, point.hw.long_latency)
    latency_us = result.cycles / freq
    throughput = 1e6 / latency_us
    area = estimate_area(point.hw, result.imem_bits, result.total_registers, n_cores=1)
    # Power prices the same design the area model measured: dynamic power
    # scales with the scoring kernel's issue-slot utilisation, energy amortises
    # the draw over one pairing, and throughput/W is the rankable
    # energy-efficiency axis (the "power"/"energy"/"throughput_per_watt"
    # objectives).
    power = estimate_power(point.hw, area, freq,
                           activity=result.ipc / max(1, point.hw.issue_width))
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
        power_mw=power.total_mw,
        energy_per_pairing_uj=(power.total_mw / 1e3) * (result.cycles / freq),
        throughput_per_watt=throughput / (power.total_mw / 1e3),
    )
