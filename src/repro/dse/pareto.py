"""Deterministic Pareto-front machinery for multi-objective exploration.

All functions work on "larger is better" score vectors, as produced by the
objective registry (:mod:`repro.dse.objectives`): lower-is-better axes such as
latency, area and power arrive pre-negated, so dominance is a plain
component-wise comparison everywhere.

Determinism is the load-bearing property.  A frontier is a *set*, but the
explorer promises a bit-identical result for any worker count and any point
enumeration order, so every public function returns its points in the
canonical order of :func:`canonical_order` -- score vectors descending
lexicographically, ties broken by the point label.  Crowding distance exists
for the budgeted search (:mod:`repro.dse.search`), which needs a
deterministic way to rank points *within* a front when a budget forces it to
keep only some; hypervolume measures a frontier's spread.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.objectives import objective_name, resolve_objectives

#: Sentinel crowding distance of boundary points (always kept first).
INFINITE_CROWDING = float("inf")


def score_vectors(metrics, scorers) -> list:
    """Score every metrics record on every objective (rows = points)."""
    return [tuple(float(score(m)) for score in scorers) for m in metrics]


def dominates(a, b) -> bool:
    """True when score vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is at least as good on every objective and
    strictly better on at least one (all scores are larger-is-better).
    """
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def non_dominated_sort(scores) -> list:
    """Partition score vectors into Pareto fronts (NSGA-II style).

    Returns a list of fronts, each a list of indices into ``scores``; front 0
    is the Pareto-optimal set, front 1 what remains after removing front 0,
    and so on.  Index order within a front is ascending, so the partition is a
    pure function of the input sequence.
    """
    n = len(scores)
    dominated_by: list = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(scores[i], scores[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(scores[j], scores[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return fronts


def crowding_distances(scores) -> list:
    """NSGA-II crowding distance of each score vector within its set.

    Boundary points of every objective get :data:`INFINITE_CROWDING`; interior
    points accumulate the normalised gap between their neighbours.  Used by
    the proxy ranking to prefer well-spread points when a budget forces a cut
    inside one front.
    """
    n = len(scores)
    if n == 0:
        return []
    distances = [0.0] * n
    dim = len(scores[0])
    for axis in range(dim):
        order = sorted(range(n), key=lambda i: (scores[i][axis], i))
        lo, hi = scores[order[0]][axis], scores[order[-1]][axis]
        distances[order[0]] = distances[order[-1]] = INFINITE_CROWDING
        span = hi - lo
        if span <= 0.0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            if distances[i] == INFINITE_CROWDING:
                continue
            gap = scores[order[rank + 1]][axis] - scores[order[rank - 1]][axis]
            distances[i] += gap / span
    return distances


def hypervolume(scores, reference=None) -> float:
    """Hypervolume dominated by ``scores`` relative to ``reference``.

    Exact recursive slicing (HSO): sort by the first objective, sweep slabs,
    recurse on the projection.  Exponential in the number of objectives but
    the explorer's fronts are small (a handful of axes over tens of points).
    ``reference`` defaults to the per-axis minimum of the input, which makes
    the value a *relative* spread measure, so candidate frontiers compare
    deterministically.
    """
    scores = [tuple(float(x) for x in s) for s in scores]
    if not scores:
        return 0.0
    dim = len(scores[0])
    if reference is None:
        reference = tuple(min(s[axis] for s in scores) for axis in range(dim))

    def volume(points, ref):
        points = [p for p in points if p[0] > ref[0]]
        if not points:
            return 0.0
        if len(ref) == 1:
            return max(p[0] for p in points) - ref[0]
        ordered = sorted(points, key=lambda p: (-p[0],) + p[1:])
        total = 0.0
        for i, point in enumerate(ordered):
            lower = ordered[i + 1][0] if i + 1 < len(ordered) else ref[0]
            width = point[0] - max(lower, ref[0])
            if width <= 0.0:
                continue
            total += width * volume([q[1:] for q in ordered[: i + 1]], ref[1:])
        return total

    return volume(scores, reference)


def canonical_order(metrics, scores) -> list:
    """Indices of ``metrics`` in the canonical deterministic order.

    Score vectors descending lexicographically, ties broken by the point
    label: a pure function of the *set* of evaluated points, independent of
    enumeration order, chunking and worker count.
    """
    return sorted(
        range(len(metrics)),
        key=lambda i: (tuple(-x for x in scores[i]), metrics[i].label),
    )


@dataclass(frozen=True)
class ParetoResult:
    """Outcome of one multi-objective sweep.

    ``frontier`` holds the non-dominated :class:`~repro.dse.explorer.DesignMetrics`
    in canonical order with ``frontier_scores`` the matching score vectors
    (axes in ``objectives`` order, larger is better).  ``evaluated`` counts the
    points actually pushed through the full tool-chain -- the budget story of
    :mod:`repro.dse.search` -- while ``total_points``
    is the size of the deduplicated input space.  ``extremes`` maps each
    objective name to the label of the frontier point that maximises it.
    """

    objectives: tuple
    frontier: tuple
    frontier_scores: tuple
    dominated: int
    evaluated: int
    total_points: int
    extremes: dict

    def labels(self) -> tuple:
        return tuple(m.label for m in self.frontier)

    def hypervolume(self, reference=None) -> float:
        return hypervolume(self.frontier_scores, reference)

    def describe(self) -> dict:
        return {
            "objectives": list(self.objectives),
            "frontier_size": len(self.frontier),
            "dominated": self.dominated,
            "evaluated": self.evaluated,
            "total_points": self.total_points,
            "extremes": dict(self.extremes),
            "frontier": [m.describe() for m in self.frontier],
        }


def pareto_result(metrics, objectives, *, evaluated=None,
                  total_points=None) -> ParetoResult:
    """Extract the Pareto frontier of evaluated metrics as a :class:`ParetoResult`.

    ``metrics`` may arrive in any order; the result is a pure function of the
    set.  ``evaluated`` / ``total_points`` default to ``len(metrics)`` -- a
    budgeted sweep passes the true figures so the budget accounting survives
    into reports and CI guards.
    """
    names = tuple(objective_name(objective) for objective in objectives)
    scorers = resolve_objectives(objectives)
    metrics = list(metrics)
    scores = score_vectors(metrics, scorers)
    fronts = non_dominated_sort(scores)
    front = fronts[0] if fronts else []
    order = [i for i in canonical_order(metrics, scores) if i in set(front)]
    frontier = tuple(metrics[i] for i in order)
    frontier_scores = tuple(scores[i] for i in order)
    extremes = {}
    for axis, name in enumerate(names):
        if order:
            best = min(order, key=lambda i: (-scores[i][axis], metrics[i].label))
            extremes[name] = metrics[best].label
    return ParetoResult(
        objectives=names,
        frontier=frontier,
        frontier_scores=frontier_scores,
        dominated=len(metrics) - len(frontier),
        evaluated=len(metrics) if evaluated is None else evaluated,
        total_points=len(metrics) if total_points is None else total_points,
        extremes=extremes,
    )


def pareto_front(metrics, objectives) -> tuple:
    """The non-dominated subset of ``metrics``, in canonical order."""
    return pareto_result(metrics, objectives).frontier
