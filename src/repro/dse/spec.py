"""The evaluation knobs of a design-space sweep, as one validated value.

:func:`repro.dse.explorer.evaluate_design_point` and
:class:`repro.dse.engine.ParallelExplorer` accept the knobs as keywords and
fold them into an :class:`EvalSpec` at the boundary; everything below -- the
worker entry point, the proxy ranking, the kernel compiles -- carries the
spec.  A new knob is a new field here plus the line that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import positive_int
from repro.hw.technology import TECH_40NM, TechnologyNode


@dataclass(frozen=True)
class EvalSpec:
    """How design points are scored; see ``evaluate_design_point`` for what
    each knob means.

    Validated once, here: bools, floats and non-positive values for
    ``n_cores`` / ``batch_size`` raise ``ValueError``.  Frozen, hashable and
    picklable, so one spec is shipped to every pool worker unchanged.
    """

    n_cores: int = 1
    technology: TechnologyNode = TECH_40NM
    batch_size: int | None = None

    def __post_init__(self):
        positive_int(self.n_cores, "n_cores")
        if self.batch_size is not None:
            positive_int(self.batch_size,
                         "batch_size (None selects the single-pairing kernel)")

    @property
    def accumulator_modes(self) -> tuple:
        """Kernel accumulator modes to compile per point: both for a batch
        on more than one core, else the shared one (on one core the split
        kernel degenerates to it)."""
        if self.batch_size is not None and self.n_cores > 1:
            return ("shared", "split")
        return ("shared",)
