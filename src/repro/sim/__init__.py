"""Simulators: functional (single-cycle) and cycle-accurate pipeline models."""

from repro.sim.functional import FunctionalSimulator
from repro.sim.cycle import (
    CycleAccurateSimulator,
    CycleStats,
    assign_lanes_to_cores,
    assign_split_lanes_to_cores,
    validate_core_count,
    validate_pipeline_depth,
)
from repro.sim.trace import IssueTrace

__all__ = [
    "FunctionalSimulator",
    "CycleAccurateSimulator",
    "CycleStats",
    "assign_lanes_to_cores",
    "assign_split_lanes_to_cores",
    "validate_core_count",
    "validate_pipeline_depth",
    "IssueTrace",
]
