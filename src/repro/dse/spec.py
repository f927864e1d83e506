"""The evaluation knobs of a design-space sweep, as one validated value.

:func:`repro.dse.explorer.evaluate_design_point` and
:class:`repro.dse.engine.ParallelExplorer` accept the knobs as keywords and
fold them into an :class:`EvalSpec` at the boundary; everything below -- the
worker entry point, the search strategies, the kernel compiles -- carries the
spec.  A new knob is a new field here plus the line that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PIPELINE_DEPTH_ENV, env_int, member, positive_int
from repro.hw.technology import TECH_40NM, TechnologyNode
from repro.pairing.final_exp import FINAL_EXP_MODES

#: Accepted values of the ``split_accumulators`` evaluation policy.
ACCUMULATOR_POLICIES = ("auto", "shared", "split")

#: Accepted values of the ``final_exp_mode`` evaluation policy: the three
#: concrete kernel modes plus "auto" (compile all three, score the winner).
FINAL_EXP_POLICIES = ("auto",) + FINAL_EXP_MODES

#: Depths the ``pipeline_depth="auto"`` policy scores (the steady-state
#: figure converges quickly with depth, so a shallow ladder suffices; the
#: winner is the lowest depth achieving the best steady cycles-per-pairing).
AUTO_PIPELINE_DEPTHS = (1, 2, 4)


@dataclass(frozen=True)
class EvalSpec:
    """How design points are scored; see ``evaluate_design_point`` for what
    each knob means.

    Validated once, here: bools, floats and non-positive values for
    ``n_cores`` / ``batch_size`` / ``pipeline_depth``, unknown accumulator or
    final-exp policies, and a pipeline depth other than 1 without a
    ``batch_size`` all raise ``ValueError``.  Two spellings are normalised so
    equal evaluations compare (and hash) equal: a boolean
    ``split_accumulators`` becomes ``"split"`` / ``"shared"``, and
    ``pipeline_depth=None`` becomes the ``FINESSE_PIPELINE_DEPTH`` default
    (1 when unset or unbatched).  Frozen, hashable and picklable, so one spec
    is shipped to every pool worker unchanged.
    """

    n_cores: int = 1
    technology: TechnologyNode = TECH_40NM
    do_assemble: bool = True
    batch_size: int | None = None
    split_accumulators: str = "auto"
    final_exp_mode: str = "cyclotomic"
    service_profile: object = None
    pipeline_depth: int | str | None = None

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
        if self.pipeline_depth is None:
            object.__setattr__(
                self, "pipeline_depth",
                1 if self.batch_size is None else env_int(PIPELINE_DEPTH_ENV, 1))
        elif self.pipeline_depth != "auto":
            positive_int(self.pipeline_depth, "pipeline_depth")
        if self.batch_size is None and self.pipeline_depth != 1:
            raise ValueError(
                "pipeline_depth applies to batched evaluations only (set batch_size); "
                f"got pipeline_depth={self.pipeline_depth!r}"
            )

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

    @property
    def depths(self) -> tuple:
        """Pipeline depths to score the winning kernel at ("auto" = the ladder)."""
        if self.pipeline_depth == "auto":
            return AUTO_PIPELINE_DEPTHS
        return (self.pipeline_depth,)
