"""First-class optimisation objectives for the design-space explorer.

An :class:`Objective` names one figure of merit of a
:class:`~repro.dse.explorer.DesignMetrics` record and scores it on a
"larger is better" scale (lower-is-better axes such as latency, area or
power negate their raw value).  The registry replaces the anonymous lambda
table that used to live in :mod:`repro.dse.explorer`: every objective now
carries a one-line description (surfaced by :func:`list_objectives` and the
evaluation runner's ``--objectives help``), and the multi-objective layer
(:mod:`repro.dse.pareto`) consumes the same registry, so scalar ranking and
Pareto extraction can never disagree about what an objective means.

Both sweeps of :class:`~repro.dse.engine.ParallelExplorer` (``explore`` and
``explore_pareto``) and the runner's ``--objectives`` flag resolve objective
names through :func:`resolve_objective` / :func:`resolve_objectives`, so an
unknown name raises the *same* :class:`~repro.errors.DSEError` on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DSEError


@dataclass(frozen=True)
class Objective:
    """One named optimisation objective (larger score = better design)."""

    name: str
    description: str
    score: object  # DesignMetrics -> float, larger is better

    def __call__(self, metrics) -> float:
        return self.score(metrics)


def _registry() -> dict:
    objectives = [
        Objective("throughput", "pairings per second of one accelerator instance",
                  lambda m: m.throughput_ops),
        Objective("latency", "single-kernel latency in microseconds (lower is better)",
                  lambda m: -m.latency_us),
        Objective("area", "chip area in mm^2 at 40 nm (lower is better)",
                  lambda m: -m.area_mm2),
        Objective("efficiency", "throughput per mm^2 (pairings/s/mm^2)",
                  lambda m: m.throughput_per_mm2),
        Objective("power", "total power draw in mW, dynamic + leakage (lower is better)",
                  lambda m: -m.power_mw),
        Objective("energy", "energy per pairing in microjoules (lower is better)",
                  lambda m: -m.energy_per_pairing_uj),
        Objective("throughput_per_watt", "pairings per second per watt (energy efficiency)",
                  lambda m: m.throughput_per_watt),
    ]
    return {objective.name: objective for objective in objectives}


#: Built-in optimisation objectives, keyed by name.  All are "larger is
#: better" after negation.
OBJECTIVES = _registry()


def list_objectives() -> dict:
    """Registered objective names with their one-line descriptions.

    The same registry drives scalar ranking (``explore(objective=...)``),
    Pareto extraction (``explore_pareto(objectives=(...))``) and the runner's
    ``--objectives`` flag; ``--objectives help`` prints this mapping.
    """
    return {name: objective.description for name, objective in OBJECTIVES.items()}


def resolve_objective(objective):
    """Turn an objective name (or scoring callable) into a scoring callable.

    This is the single resolution path, so an unknown objective name
    produces the identical :class:`DSEError` whether the sweep goes through
    :meth:`~repro.dse.engine.ParallelExplorer.explore` or ``explore_pareto``.
    """
    if callable(objective):
        return objective
    try:
        return OBJECTIVES[objective]
    except (KeyError, TypeError) as exc:
        known = ", ".join(OBJECTIVES)
        raise DSEError(
            f"unknown objective {objective!r} (known objectives: {known}; "
            f"see repro.list_objectives())"
        ) from exc


def resolve_objectives(objectives) -> tuple:
    """Resolve a sequence of objective names/callables for a Pareto sweep.

    A bare string is rejected loudly (a common slip --
    ``objectives="throughput"`` would otherwise iterate characters); an empty
    sequence is rejected because a frontier needs at least one axis.  Every
    entry goes through :func:`resolve_objective`, so unknown names fail with
    the same message as the scalar path.
    """
    if isinstance(objectives, str) or not hasattr(objectives, "__iter__"):
        raise DSEError(
            f"objectives must be a sequence of objective names/callables, "
            f"got {objectives!r}"
        )
    resolved = tuple(resolve_objective(objective) for objective in objectives)
    if not resolved:
        raise DSEError("objectives must name at least one objective")
    return resolved


def objective_name(objective) -> str:
    """Display name of an objective (registry name, or the callable's name)."""
    if isinstance(objective, Objective):
        return objective.name
    if isinstance(objective, str):
        return objective
    return getattr(objective, "__name__", "custom")
