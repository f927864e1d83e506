"""Budgeted multi-objective search: the analytic proxy and its ranking.

The exhaustive sweep evaluates every design point through the full tool-chain
(compile, schedule, simulate, price) -- exact but expensive at the ROADMAP's
10^4-point scale.  A budget trades a bounded amount of frontier risk for a
hard cap on full evaluations, by one rule
(:meth:`~repro.dse.engine.ParallelExplorer.explore_pareto`):

``budget=None``
    Evaluate the whole deduplicated space: the ground truth.
``budget=k``
    Score every point with a *free* analytic proxy (recursive
    tower-multiplication cost under the point's variant config, plus the
    analytic frequency/area/power models -- no compilation), rank the points
    by proxy Pareto front, then crowding, then label (:func:`proxy_ranking`),
    and push the ``min(k, n)`` best through the real tool-chain in one batch.

The ranking is deterministic: it orders by canonical point keys (never
submission order) and by proxy scores, never by what a cache happens to hold,
so the frontier a budget returns is a pure function of the design-point *set*
and the budget -- independent of worker count, cache state and enumeration
order, matching the ``explore_pareto`` contract.
"""

from __future__ import annotations

from repro.config import positive_int
from repro.dse.pareto import (
    crowding_distances,
    non_dominated_sort,
    score_vectors,
)
from repro.errors import DSEError
from repro.hw.area import estimate_area
from repro.hw.power import estimate_power
from repro.hw.timing import frequency_mhz

#: Objectives a Pareto sweep ranks on when none are named anywhere: the
#: paper's headline trade-off (performance vs silicon).
DEFAULT_OBJECTIVES = ("throughput", "area")

#: Estimated instruction-word bits per proxy instruction (nominal encoding
#: width; only relative magnitudes matter to the proxy area model).
PROXY_IMEM_BITS_PER_INSTRUCTION = 64
#: Nominal live registers per bank assumed by the proxy area model.
PROXY_REGISTERS_PER_BANK = 48
#: Dependency-chain stalls the scheduler cannot hide, as a multiple of the
#: multiplier latency (the real kernels are issue-bound -- the list scheduler
#: keeps the pipelined multiplier almost full -- so only a small slice of the
#: latency shows up in the cycle count).
PROXY_LATENCY_EXPOSURE = 0.5


def validate_budget(budget):
    """``None`` (the whole space) or a positive integer; anything else raises."""
    return None if budget is None else positive_int(budget, "budget", DSEError)


# ---------------------------------------------------------------------------
# Analytic proxy (rung 0 of the multi-fidelity ladder)
# ---------------------------------------------------------------------------

def _field_op_costs(curve, variant_config) -> tuple:
    """Base-field (long, linear) op counts of one full-extension-field multiply.

    Walks the curve's tower bottom-up, expanding each step's multiplication /
    squaring variant (the exact :class:`~repro.fields.variants.Variant` the
    compiler would lower with) into ops of the level below.  Pure counting --
    no IR is generated -- so this is the variant-sensitive part of the proxy:
    schoolbook vs Karatsuba towers land on genuinely different counts.
    """
    costs = {"mul": (1.0, 0.0), "sqr": (1.0, 0.0), "add": (0.0, 1.0)}
    for step in curve.tower.full_field.tower_steps():
        new = {}
        for op in ("mul", "sqr"):
            c = variant_config.variant_for(op, step.degree, step.m).cost()
            linear = c.add + c.adj + c.muli
            new[op] = (
                c.mul * costs["mul"][0] + c.sqr * costs["sqr"][0] + linear * costs["add"][0],
                c.mul * costs["mul"][1] + c.sqr * costs["sqr"][1] + linear * costs["add"][1],
            )
        new["add"] = (0.0, costs["add"][1] * step.m)
        costs = new
    return costs["mul"]


def proxy_design_metrics(curve, point):
    """Free analytic estimate of a design point, packaged as ``DesignMetrics``.

    One full-field multiplication stands in for the pairing (the pairing is a
    long product of them, and the constant cancels in any ranking over a
    single curve).  Issue width and linear-unit count hide latency the way the
    scheduler would, frequency/area/power come from the real analytic models,
    and the result is a genuine :class:`~repro.dse.explorer.DesignMetrics`, so
    the same objective callables score proxies and tool-chain results alike.
    Zero compilations: ranking a space costs no tool-chain run.
    """
    from repro.dse.explorer import DesignMetrics

    hw = point.hw
    longs, lins = _field_op_costs(curve, point.variant_config)
    # Issue/unit-bound cycle model: the scheduled kernels keep the pipelined
    # multiplier nearly full, so cycles are the binding throughput limit --
    # issue slots, the single multiplier, or the linear units -- plus a small
    # latency-exposure term for the dependency chains that cannot be hidden.
    cycles = max(
        (longs + lins) / hw.issue_width,
        longs,
        lins / hw.n_linear_units,
    ) + PROXY_LATENCY_EXPOSURE * hw.long_latency
    freq = frequency_mhz(hw.word_width, hw.long_latency)
    latency_us = cycles / freq
    throughput = 1e6 / latency_us
    instructions = int(longs + lins)
    registers = PROXY_REGISTERS_PER_BANK * hw.n_banks
    area = estimate_area(hw, PROXY_IMEM_BITS_PER_INSTRUCTION * instructions,
                         registers, n_cores=1)
    ipc = min(float(hw.issue_width), instructions / cycles if cycles else 1.0)
    power = estimate_power(hw, area, freq, activity=ipc / hw.issue_width)
    return DesignMetrics(
        label=point.display_label,
        curve=curve.name,
        cycles=int(round(cycles)),
        instructions=instructions,
        ipc=ipc,
        frequency_mhz=freq,
        latency_us=latency_us,
        throughput_ops=throughput,
        area_mm2=area.total_mm2,
        throughput_per_mm2=throughput / area.total_mm2,
        registers=registers,
        power_mw=power.total_mw,
        energy_per_pairing_uj=(power.total_mw / 1e3) * (cycles / freq),
        throughput_per_watt=throughput / (power.total_mw / 1e3),
    )


def proxy_ranking(curve, points, scorers) -> list:
    """Indices of ``points``, best proxy candidates first (deterministic).

    Orders by proxy Pareto rank (front 0 first), then by descending crowding
    distance *within* each front, then by descending proxy scores, then by
    label.
    """
    proxies = [proxy_design_metrics(curve, point) for point in points]
    scores = score_vectors(proxies, scorers)
    ranking = []
    for front in non_dominated_sort(scores):
        front_scores = [scores[i] for i in front]
        crowding = dict(zip(front, crowding_distances(front_scores)))
        ranking.extend(sorted(
            front,
            key=lambda i: (-crowding[i],
                           tuple(-x for x in scores[i]),
                           proxies[i].label),
        ))
    return ranking
