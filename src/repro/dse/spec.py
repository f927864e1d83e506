"""The evaluation knobs of a design-space sweep, as one validated value.

:func:`repro.dse.explorer.evaluate_design_point` and
:class:`repro.dse.engine.ParallelExplorer` accept the knobs as keywords and
fold them into an :class:`EvalSpec` at the boundary; everything below -- the
worker entry point, the search strategies, the kernel compiles -- carries the
spec.  A new knob is a new field here plus the line that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import member, positive_int
from repro.hw.technology import TECH_40NM, TechnologyNode
from repro.pairing.final_exp import FINAL_EXP_MODES

#: Accepted values of the ``split_accumulators`` evaluation policy.
ACCUMULATOR_POLICIES = ("auto", "shared", "split")

#: Accepted values of the ``final_exp_mode`` evaluation policy: the three
#: concrete kernel modes plus "auto" (compile all three, score the winner).
FINAL_EXP_POLICIES = ("auto",) + FINAL_EXP_MODES


@dataclass(frozen=True)
class EvalSpec:
    """How design points are scored; see ``evaluate_design_point`` for what
    each knob means.

    Validated once, here: bools, floats and non-positive values for
    ``n_cores`` / ``batch_size`` and unknown accumulator or final-exp policies
    all raise ``ValueError``.  A boolean ``split_accumulators`` is normalised
    to ``"split"`` / ``"shared"``, so equal evaluations compare (and hash)
    equal.  Frozen, hashable and picklable, so one spec is shipped to every
    pool worker unchanged.
    """

    n_cores: int = 1
    technology: TechnologyNode = TECH_40NM
    do_assemble: bool = True
    batch_size: int | None = None
    split_accumulators: str = "auto"
    final_exp_mode: str = "cyclotomic"
    service_profile: object = None

    def __post_init__(self):
        positive_int(self.n_cores, "n_cores")
        if self.batch_size is not None:
            positive_int(self.batch_size,
                         "batch_size (None selects the single-pairing kernel)")
        if isinstance(self.split_accumulators, bool):
            object.__setattr__(self, "split_accumulators",
                               "split" if self.split_accumulators else "shared")
        member(self.split_accumulators, ACCUMULATOR_POLICIES, "split_accumulators")
        member(self.final_exp_mode, FINAL_EXP_POLICIES, "final_exp_mode")

    @property
    def accumulator_modes(self) -> tuple:
        """Kernel accumulator modes to compile per point.  On one core the
        split kernel degenerates to the shared one, so "auto" skips it there."""
        if self.batch_size is None or self.split_accumulators == "shared":
            return ("shared",)
        if self.split_accumulators == "split":
            return ("split",)
        return ("shared", "split") if self.n_cores > 1 else ("shared",)

    @property
    def final_exp_modes(self) -> tuple:
        """Hard-part kernel modes to compile per point ("auto" = all three)."""
        if self.final_exp_mode == "auto":
            return FINAL_EXP_MODES
        return (self.final_exp_mode,)
