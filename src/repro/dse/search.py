"""Budgeted search strategies for multi-objective design-space exploration.

The exhaustive sweep evaluates every design point through the full tool-chain
(compile, schedule, simulate, price) -- exact but expensive at the ROADMAP's
10^4-point scale.  The strategies here trade a bounded amount of frontier risk
for a hard cap on full evaluations:

``exhaustive``
    Evaluate everything; the budget is ignored (and documented so).  The
    ground truth every guided strategy is judged against.
``successive_halving``
    Score every point with a *free* analytic proxy first (recursive
    tower-multiplication cost under the point's variant config, plus the
    analytic frequency/area/power models -- no compilation), keep the top half
    by proxy Pareto rank and crowding, and push only the survivors through the
    real tool-chain.  Evaluates ``min(budget, max(1, n // 2))`` points.
``local``
    Proxy-seeded local search: seed with the proxy Pareto front, then
    repeatedly evaluate the unexplored neighbours of the current real
    frontier -- points sharing a variant config or a hardware model with a
    frontier member -- until the budget runs out or no neighbour is left.

Every strategy is deterministic: candidate sets are ordered by canonical point
keys (never submission order) and by the scores of what was evaluated, never by
what a cache happens to hold, so the frontier a strategy returns is a pure
function of the design-point *set* and the budget -- independent of worker
count, cache state and enumeration order, matching the ``explore_pareto``
contract.

``explore_pareto`` resolves an unset budget from ``FINESSE_DSE_BUDGET`` (the
evaluation runner's ``--budget`` flag); see ``docs/configuration.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import positive_int
from repro.dse.pareto import (
    crowding_distances,
    non_dominated_sort,
    score_vectors,
)
from repro.errors import DSEError
from repro.hw.area import estimate_area
from repro.hw.power import estimate_power
from repro.dse.spec import EvalSpec
from repro.hw.technology import TECH_40NM
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
    """``None`` (strategy default) or a positive integer; anything else raises."""
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


def proxy_design_metrics(curve, point, n_cores: int = 1, technology=TECH_40NM):
    """Free analytic estimate of a design point, packaged as ``DesignMetrics``.

    One full-field multiplication stands in for the pairing (the pairing is a
    long product of them, and the constant cancels in any ranking over a
    single curve).  Issue width and linear-unit count hide latency the way the
    scheduler would, frequency/area/power come from the real analytic models,
    and the result is a genuine :class:`~repro.dse.explorer.DesignMetrics`, so
    the same objective callables score proxies and tool-chain results alike.
    Zero compilations: rung 0 of the successive-halving ladder is free.
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
    freq = frequency_mhz(hw.word_width, hw.long_latency, technology)
    latency_us = cycles / freq
    throughput = n_cores * 1e6 / latency_us
    instructions = int(longs + lins)
    registers = PROXY_REGISTERS_PER_BANK * hw.n_banks
    area = estimate_area(hw, PROXY_IMEM_BITS_PER_INSTRUCTION * instructions,
                         registers, n_cores=n_cores, technology=technology)
    ipc = min(float(hw.issue_width), instructions / cycles if cycles else 1.0)
    power = estimate_power(hw, area, freq, activity=ipc / hw.issue_width,
                           technology=technology)
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
        cycles_per_pairing=cycles,
        power_mw=power.total_mw,
        energy_per_pairing_uj=(power.total_mw / 1e3) * (cycles / freq),
        throughput_per_watt=throughput / (power.total_mw / 1e3),
    )


# ---------------------------------------------------------------------------
# Strategy plumbing
# ---------------------------------------------------------------------------

@dataclass
class SearchContext:
    """Everything a strategy may consult, prepared by ``explore_pareto``.

    ``points`` is the *deduplicated, canonically ordered* design space;
    ``evaluate(indices)`` pushes those points through the real tool-chain
    (sharded across the explorer's workers) and returns their metrics;
    ``spec`` is the sweep's evaluation knobs (the proxy prices the same core
    count and technology).  Strategies must request each index at most once.
    """

    curve: object
    points: list
    scorers: tuple
    budget: int | None
    evaluate: object  # list[int] -> list[DesignMetrics]
    spec: EvalSpec
    _proxies: list = field(default_factory=list)

    def proxies(self) -> list:
        """Analytic proxy metrics of every point (computed once, no compiles)."""
        if not self._proxies:
            self._proxies = [
                proxy_design_metrics(self.curve, point, self.spec.n_cores,
                                     self.spec.technology)
                for point in self.points
            ]
        return self._proxies

    def proxy_ranking(self) -> list:
        """All point indices, best proxy candidates first (deterministic).

        Orders by proxy Pareto rank (front 0 first), then by descending
        crowding distance *within* each front, then by the canonical point
        key -- the promotion order of the guided strategies.
        """
        proxies = self.proxies()
        scores = score_vectors(proxies, self.scorers)
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

    def default_budget(self) -> int:
        """Half the space (at least one point): the guided strategies' default."""
        return max(1, len(self.points) // 2)


def _capped_budget(ctx: SearchContext) -> int:
    budget = ctx.budget if ctx.budget is not None else ctx.default_budget()
    return min(budget, len(ctx.points))


def exhaustive(ctx: SearchContext) -> None:
    """Evaluate every point (the ground-truth frontier); ignores the budget."""
    ctx.evaluate(list(range(len(ctx.points))))


def successive_halving(ctx: SearchContext) -> None:
    """Promote the proxy-ranked top half (capped by the budget) to full evaluation."""
    promote = min(ctx.default_budget(), _capped_budget(ctx))
    ctx.evaluate(sorted(ctx.proxy_ranking()[:promote]))


def local_search(ctx: SearchContext) -> None:
    """Proxy-seeded local search around the evolving real frontier.

    Seeds are the proxy Pareto front, capped by the budget; each round
    evaluates the unexplored neighbours (shared variant config or shared
    hardware model) of the current real frontier, best proxy rank first,
    until the budget is exhausted or no neighbour remains.  The proxy front
    seeds every variant-config/hardware "row and column" the analytic model
    finds promising, so the neighbourhood moves can reach any point the proxy
    mis-ranked.
    """
    from repro.dse.pareto import pareto_front

    budget = _capped_budget(ctx)
    ranking = ctx.proxy_ranking()
    proxy_scores = score_vectors(ctx.proxies(), ctx.scorers)
    proxy_front = set(non_dominated_sort(proxy_scores)[0])
    rank_of = {index: position for position, index in enumerate(ranking)}

    seeds = [i for i in ranking if i in proxy_front][:budget]
    evaluated: dict = {}
    for index, metrics in zip(sorted(seeds), ctx.evaluate(sorted(seeds))):
        evaluated[index] = metrics

    def identity(index):
        point = ctx.points[index]
        return point.variant_config.cache_key(), point.hw.cache_key()

    while len(evaluated) < budget:
        # Quarantined points return None metrics: they stay in ``evaluated``
        # (each index is requested at most once) but never seed the frontier.
        survivors = {i: m for i, m in evaluated.items() if m is not None}
        frontier_labels = {m.label for m in
                           pareto_front(list(survivors.values()), ctx.scorers)}
        frontier_ids = [identity(i) for i, m in survivors.items()
                        if m.label in frontier_labels]
        neighbours = [
            i for i in ranking
            if i not in evaluated and any(
                identity(i)[0] == vc or identity(i)[1] == hw
                for vc, hw in frontier_ids
            )
        ]
        if not neighbours:
            break
        batch = sorted(neighbours, key=lambda i: rank_of[i])[:budget - len(evaluated)]
        for index, metrics in zip(sorted(batch), ctx.evaluate(sorted(batch))):
            evaluated[index] = metrics


#: Registered search strategies, keyed by the name the runner's ``--strategy``
#: flag (and ``FINESSE_DSE_STRATEGY``) accepts.
STRATEGIES = {
    "exhaustive": exhaustive,
    "successive_halving": successive_halving,
    "local": local_search,
}


def resolve_strategy(strategy):
    """Turn a strategy name (or a strategy callable) into the callable."""
    if callable(strategy):
        return strategy
    try:
        return STRATEGIES[strategy]
    except (KeyError, TypeError) as exc:
        known = ", ".join(STRATEGIES)
        raise DSEError(
            f"unknown search strategy {strategy!r} (known strategies: {known})"
        ) from exc
