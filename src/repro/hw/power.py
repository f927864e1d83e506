"""Chip-level power model: dynamic switching power plus leakage.

Layered directly on the area model (:mod:`repro.hw.area`): every component of
an :class:`~repro.hw.area.AreaBreakdown` gets a calibrated dynamic power
density (mW per mm^2 per MHz at the 40 nm reference node) weighted by an
activity factor, and the whole die contributes leakage proportional to area.
Technology scaling reuses the per-node ``power_factor`` of
:class:`~repro.hw.technology.TechnologyNode` (Stillmaker-Baas style): the
area figures arriving here are already node-scaled, so they are first
un-scaled back to the 40 nm reference before the densities apply.

Densities are calibrated so the paper's 8-core 8.00 mm^2 / 769 MHz BN254N
configuration lands in the low-watt range typical of 40 nm LP pairing
accelerators (cf. Azzouzi et al.'s area-efficient optimal-ate designs and
Banerjee & Chandrakasan's BLS12-381 crypto-processor, PAPERS.md).  Like the
area and timing models, the point is *relative* fidelity across design
points -- the co-design loop ranks designs against each other, and the model
makes power a rankable axis (``power`` / ``energy`` / ``throughput_per_watt``
objectives) rather than a sign-off number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.area import AreaBreakdown
from repro.hw.model import HardwareModel

#: Dynamic power density of switching logic (mW per mm^2 per MHz, 40 nm LP).
LOGIC_MW_PER_MM2_MHZ = 0.90e-3
#: Dynamic power density of the multi-ported register-bank data memory.
DMEM_MW_PER_MM2_MHZ = 0.45e-3
#: Dynamic power density of the single-ported instruction memory (one wide
#: read per cycle, shared by all cores -- the SIMT observation again).
IMEM_MW_PER_MM2_MHZ = 0.25e-3
#: Clock-tree overhead as a fraction of the total dynamic power.
CLOCK_TREE_FRACTION = 0.15
#: Leakage density of the low-power process (mW per mm^2, 40 nm LP).
LEAKAGE_MW_PER_MM2 = 0.35
#: Floor on the activity factor: a stalled pipeline still clocks registers.
MIN_ACTIVITY = 0.05


@dataclass(frozen=True)
class PowerBreakdown:
    """Power breakdown of one accelerator instance (mW, in the chosen technology)."""

    technology: str
    n_cores: int
    frequency_mhz: float
    #: Activity factor the dynamic components were scaled by (issue-slot
    #: utilisation of the scoring kernel, floored at :data:`MIN_ACTIVITY`).
    activity: float
    alu_mw: float
    mmul_mw: float
    dmem_mw: float
    imem_mw: float
    clock_mw: float
    leakage_mw: float

    @property
    def dynamic_mw(self) -> float:
        return self.alu_mw + self.dmem_mw + self.imem_mw + self.clock_mw

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw

    def describe(self) -> dict:
        return {
            "technology": self.technology,
            "n_cores": self.n_cores,
            "frequency_mhz": round(self.frequency_mhz, 1),
            "activity": round(self.activity, 3),
            "total_mw": round(self.total_mw, 2),
            "dynamic_mw": round(self.dynamic_mw, 2),
            "leakage_mw": round(self.leakage_mw, 2),
            "alu_mw": round(self.alu_mw, 2),
            "mmul_mw": round(self.mmul_mw, 2),
            "dmem_mw": round(self.dmem_mw, 2),
            "imem_mw": round(self.imem_mw, 2),
            "clock_mw": round(self.clock_mw, 2),
        }


def estimate_power(
    model: HardwareModel,
    area: AreaBreakdown,
    frequency_mhz: float,
    activity: float = 1.0,
) -> PowerBreakdown:
    """Estimate the power draw of a compiled program on a hardware model.

    ``area`` is the :func:`repro.hw.area.estimate_area` breakdown of the same
    design point (its components are mm^2 scaled to its ``technology`` node,
    and power is priced at that node); ``frequency_mhz`` the node-scaled clock
    from :func:`repro.hw.timing.frequency_mhz`; ``activity`` the fraction of
    issue slots the scoring kernel keeps busy (the simulator's IPC divided by
    the issue width -- a stalled design burns less dynamic power, and the
    floor at :data:`MIN_ACTIVITY` keeps the clocked registers charged).
    Leakage depends on area and process only, so a large low-utilisation
    design is still priced for its idle silicon.
    """
    activity = min(1.0, max(float(activity), MIN_ACTIVITY))
    technology = area.technology
    scale = technology.power_factor / technology.area_factor

    def dynamic(component_mm2: float, density: float) -> float:
        return component_mm2 * scale * density * frequency_mhz * activity

    alu_mw = dynamic(area.alu_mm2, LOGIC_MW_PER_MM2_MHZ)
    mmul_mw = dynamic(area.mmul_mm2, LOGIC_MW_PER_MM2_MHZ)
    dmem_mw = dynamic(area.dmem_mm2, DMEM_MW_PER_MM2_MHZ)
    # One shared instruction memory: its read activity does not scale with
    # the per-core utilisation, only with the clock.
    imem_mw = (area.imem_mm2 + area.other_mm2) * scale \
        * IMEM_MW_PER_MM2_MHZ * frequency_mhz
    subtotal = alu_mw + dmem_mw + imem_mw
    clock_mw = subtotal * CLOCK_TREE_FRACTION / (1.0 - CLOCK_TREE_FRACTION)
    leakage_mw = area.total_mm2 * scale * LEAKAGE_MW_PER_MM2
    return PowerBreakdown(
        technology=technology.name,
        n_cores=area.n_cores,
        frequency_mhz=frequency_mhz,
        activity=activity,
        alu_mw=alu_mw,
        mmul_mw=mmul_mw,
        dmem_mw=dmem_mw,
        imem_mw=imem_mw,
        clock_mw=clock_mw,
        leakage_mw=leakage_mw,
    )
