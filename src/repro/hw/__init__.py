"""Hardware abstraction: pipeline model, area model, timing model, technology scaling."""

from repro.hw.model import HardwareModel
from repro.hw.presets import (
    default_model,
    paper_hw1,
    paper_hw2,
    figure10_models,
)
from repro.hw.area import AreaBreakdown, estimate_area
from repro.hw.power import PowerBreakdown, estimate_power
from repro.hw.timing import critical_path_ns, frequency_mhz
from repro.hw.technology import TechnologyNode, TECH_40NM, TECH_65NM, get_node

__all__ = [
    "HardwareModel",
    "default_model",
    "paper_hw1",
    "paper_hw2",
    "figure10_models",
    "AreaBreakdown",
    "estimate_area",
    "PowerBreakdown",
    "estimate_power",
    "critical_path_ns",
    "frequency_mhz",
    "TechnologyNode",
    "TECH_40NM",
    "TECH_65NM",
    "get_node",
]
