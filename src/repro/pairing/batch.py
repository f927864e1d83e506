"""Batched multi-pairing: shared Miller accumulator + one final exponentiation.

A pairing product Pi e(P_i, Q_i) -- the shape of every pairing-based verifier,
e.g. the Groth16 check ``e(A, B) = e(alpha, beta) * e(C, delta)`` -- does not
need n independent pairings.  Because every Miller function follows the same
doubling schedule (it is fixed by the curve's loop scalar), the accumulators
can be fused:

    F <- F^2 * Pi_i line_i        (one F_p^k squaring per loop iteration,
                                   shared by all n pairs)

and the final exponentiation, the single most expensive part of a pairing, is
applied once to the fused accumulator instead of once per pair.

Knobs
-----
``pairs``
    A sequence of ``(P, Q)`` with ``P`` in G1 and ``Q`` in G2; each element is
    an AffinePoint or an ``(x, y)`` tuple.  Pairs with either point at infinity
    contribute the identity and are skipped.  ``Q`` may also be a
    :class:`G2Precomputation` (see below).
``use_naf``
    Digit representation of the loop scalar, as in ``optimal_ate_pairing``.
``accumulators``
    Number of independent Miller accumulator chains.  ``1`` (the default) is
    the classic fused product above; ``g > 1`` partitions the pairs into ``g``
    deterministic contiguous groups, runs one full accumulator chain per group
    (its own squarings, sign conjugation and BN Frobenius tail) and multiplies
    the per-group results once before the single final exponentiation:

        F = Pi_g F_g,   F_g <- F_g^2 * Pi_{i in g} line_i

    The value is identical -- field multiplication is exact and the grouped
    product re-associates the same factors -- but the ``g`` chains are
    *independent*, which is what lets the multi-core accelerator model run one
    chain per core with no cross-core serialisation except the final merge
    (the standard multi-pairing trade: ``g - 1`` extra squaring chains for
    near-linear Miller-loop scaling).

Fixed-Q precomputation
----------------------
Verification workloads pair many fresh G1 points against a *fixed* G2 point
(verifying keys, generators).  :func:`precompute_g2` walks the loop schedule
once for such a Q and stores each step's line coefficients at the unit point,
i.e. independent of P; evaluating against a new P then costs two coefficient
scalings per step instead of a full curve step.  Precomputations plug directly
into :func:`multi_pairing` in place of Q and can be mixed freely with plain
points in one product.

Many products whose pairs sit on few distinct G2 points -- a batch verifier's
input -- are first coalesced to one pair per G2 point by
:func:`combine_products`, on the G1 side.

Every loop here is :func:`repro.pairing.miller.miller_walk` -- the single
pairing is the same walk over one live source -- so the shared accumulator,
the split chains and the replay differ only in which sources they fold.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.config import positive_int
from repro.errors import PairingError
from repro.pairing.ate import as_affine_pair
from repro.pairing.context import ConcretePairingContext
from repro.pairing.final_exp import final_exponentiation, validate_final_exp_mode
from repro.pairing.miller import (
    LivePair,
    loop_schedule,
    miller_walk,
    require_coordinates_in,
)


@dataclass
class G2Precomputation:
    """Precomputed line coefficients of one fixed G2 point.

    ``steps`` holds ``(kind, (c_y, c_x, c_const))`` records in Miller-loop
    order, with ``kind`` in ``{"dbl", "add"}``; the coefficients are twist-field
    elements independent of P.
    """

    curve_name: str
    use_naf: bool
    steps: list

    def __len__(self) -> int:
        return len(self.steps)


class _PrecomputedSource:
    """Replays a :class:`G2Precomputation` against one G1 point: the stored
    line sources of :func:`repro.pairing.miller.miller_walk`, next to the live
    :class:`~repro.pairing.miller.LivePair`."""

    def __init__(self, ctx, precomp: G2Precomputation, P, label: str = ""):
        require_coordinates_in(ctx.curve.tower.fp, P, f"{label}P (G1 point)")
        self._xp, self._yp = P
        self._steps = precomp.steps
        self._cursor = 0

    def step(self, expected_kind: str, addend):
        if self._cursor >= len(self._steps):
            raise PairingError("precomputation exhausted (wrong loop schedule)")
        kind, (c_y, c_x, c_const) = self._steps[self._cursor]
        if kind != expected_kind:
            raise PairingError("precomputation out of step with the Miller loop")
        self._cursor += 1
        return (c_y, c_x, c_const, self._xp, self._yp)     # scaled inside the line product

    def negate(self):
        pass  # the point trajectory was negated during precomputation

    def finish(self):
        """Every precomputed step must have been consumed by the loop.

        Leftover steps mean the replay stream and the Miller loop walked
        different schedules (e.g. a hand-built or corrupted precomputation):
        the product would be silently wrong, so fail loudly instead.
        """
        if self._cursor != len(self._steps):
            raise PairingError(
                f"precomputation desynchronised: {len(self._steps) - self._cursor} "
                "unconsumed step(s) after the Miller loop"
            )


# ---------------------------------------------------------------------------
# Precomputation
# ---------------------------------------------------------------------------

def precompute_g2(curve, Q, use_naf: bool = True) -> G2Precomputation:
    """Precompute the P-independent Miller-loop line coefficients of ``Q``.

    The Miller-loop walk of a pairing depends on ``Q`` alone until the line
    functions are evaluated at ``P``; for a *fixed* G2 point (a Groth16
    verifying key, a BLS public key, the G2 generator) that walk can be done
    once and replayed against any number of G1 points.  The returned
    :class:`G2Precomputation` is accepted anywhere a ``Q`` is -- by
    :func:`multi_pairing` and per pair::

        import repro
        curve = repro.get_curve("TOY-BN42")
        pk = curve.g2_generator                     # some fixed G2 point
        pre = repro.precompute_g2(curve, pk)
        lhs = repro.multi_pairing(curve, [(curve.g1_generator, pre)])
        rhs = repro.optimal_ate_pairing(curve, curve.g1_generator, pk)
        assert lhs == rhs

    ``use_naf`` must match the ``use_naf`` of the consuming pairing call (the
    digit form changes the walk); the point at infinity has no line
    coefficients and raises :class:`~repro.errors.PairingError`.
    """
    ctx = ConcretePairingContext(curve)
    q_affine = as_affine_pair(Q, role="Q (G2 point)")
    if q_affine is None:
        raise PairingError("cannot precompute the point at infinity")
    # The line depends on P only through two scalings: at the unit point the
    # step's coefficients are the P-independent ones.
    one = curve.tower.fp.one()
    source = LivePair(ctx, (one, one), q_affine)
    steps = []
    for kind, addend in loop_schedule(ctx, use_naf):
        if kind == "neg":
            source.negate()
        else:
            steps.append((kind, source.step(kind, addend)))
    return G2Precomputation(curve_name=curve.name, use_naf=use_naf, steps=steps)


# ---------------------------------------------------------------------------
# The batched pairing
# ---------------------------------------------------------------------------

def validate_accumulator_count(accumulators) -> int:
    """Check an accumulator-group count at entry; returns it as an ``int``.

    Group counts must be integral (bools are rejected: ``True`` silently
    meaning "one group" would mask caller bugs) and at least 1.
    """
    return positive_int(accumulators, "accumulator count", PairingError)


def partition_into_groups(items, n_groups: int) -> list:
    """Deterministic contiguous balanced partition of ``items``.

    The first ``len(items) % n_groups`` groups receive one extra element, so
    sizes differ by at most one; groups beyond ``len(items)`` are empty.  Both
    the software split accumulator and the compiled split kernel use this one
    function, which is what keeps their group membership -- and therefore
    their bit-exactness by construction -- in lock step.
    """
    n_groups = validate_accumulator_count(n_groups)
    items = list(items)
    base, extra = divmod(len(items), n_groups)
    groups = []
    cursor = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(items[cursor:cursor + size])
        cursor += size
    return groups


def split_batched_miller_loop(ctx, sources, n_groups: int, use_naf: bool = True,
                              group_scope=None):
    """Split-accumulator Miller loop: one independent chain per group.

    Partitions ``sources`` into ``n_groups`` contiguous groups
    (:func:`partition_into_groups`), runs the whole walk once per non-empty
    group -- per-group squarings, sign conjugation and BN Frobenius tail -- and
    multiplies the per-group accumulators once at the end.  The result equals
    the shared single-accumulator product exactly (field multiplication is
    exact; the grouped product re-associates the same line factors), while the
    group chains share no values and can execute concurrently.

    ``group_scope``, when given, is a context-manager factory called with each
    group index around that group's chain; the compiler passes
    ``IRBuilder.lane`` here so every traced group chain carries its
    accumulator-group tag through lowering and IROpt, and only the final merge
    (and the caller's final exponentiation) stays on the shared lane.
    """
    scope = group_scope if group_scope is not None else (lambda g: nullcontext())
    partials = []
    for g, members in enumerate(partition_into_groups(sources, n_groups)):
        if not members:
            continue
        with scope(g):
            partials.append(miller_walk(ctx, members, use_naf))
    if not partials:
        return ctx.full_one()
    # The cross-group merge: g - 1 extension-field multiplications, shared.
    f = partials[0]
    for partial in partials[1:]:
        f = f * partial
    return f


def batched_miller_loop(ctx, sources, use_naf: bool = True, accumulators: int = 1):
    """The fused Miller loop: one shared accumulator over many line sources.

    This is :func:`repro.pairing.miller.miller_walk` over all of ``sources``:
    with a :class:`~repro.pairing.context.ConcretePairingContext` and concrete
    sources it computes the golden product (pre final exponentiation); with
    the compiler's tracing context and lane-scoped sources it records the
    batched accelerator kernel.

    ``accumulators > 1`` switches to the partitioned mode of
    :func:`split_batched_miller_loop`: one independent chain per group of
    sources, merged once at the end.
    """
    if validate_accumulator_count(accumulators) > 1:
        return split_batched_miller_loop(ctx, sources, accumulators, use_naf=use_naf)
    return miller_walk(ctx, sources, use_naf)


def _make_sources(ctx, pairs, use_naf: bool) -> list:
    sources = []
    for index, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise PairingError(f"pairs[{index}] must be a (P, Q) pair")
        P, Q = pair
        label = f"pairs[{index}]."
        p_affine = as_affine_pair(P, role=f"{label}P (G1 point)")
        if isinstance(Q, G2Precomputation):
            if Q.curve_name != ctx.curve.name:
                raise PairingError(
                    f"pairs[{index}]: precomputation is for curve {Q.curve_name!r}, "
                    f"not {ctx.curve.name!r}"
                )
            if Q.use_naf != use_naf:
                raise PairingError(
                    f"pairs[{index}]: precomputation digit form (use_naf={Q.use_naf}) "
                    "does not match this call"
                )
            if p_affine is not None:
                sources.append(_PrecomputedSource(ctx, Q, p_affine, label))
            continue
        q_affine = as_affine_pair(Q, role=f"{label}Q (G2 point)")
        if p_affine is not None and q_affine is not None:
            sources.append(LivePair(ctx, p_affine, q_affine, label))
    return sources


def multi_pairing(curve, pairs, use_naf: bool = True, accumulators: int = 1,
                  final_exp_mode: str = "compressed"):
    """Compute the pairing product ``Pi e(P_i, Q_i)`` with one shared pipeline.

    Equivalent to the product of :func:`repro.pairing.ate.optimal_ate_pairing`
    over ``pairs``, but with one accumulator squaring per loop iteration and a
    single final exponentiation.  ``Q_i`` entries may be
    :class:`G2Precomputation` objects from :func:`precompute_g2`.  An empty
    product, and pairs whose ``P`` or ``Q`` is the point at infinity, yield the
    G_T identity -- exactly as ``optimal_ate_pairing`` treats infinity.

    ``accumulators=g`` runs ``g`` independent Miller chains over contiguous
    groups of the (non-degenerate) pairs and merges them before the one final
    exponentiation -- the split-accumulator mode mirrored by the compiled
    ``compile_multi_pairing(..., split_accumulators=True)`` kernel.  The value
    is identical for every ``g``.

    ``final_exp_mode`` selects the hard-part backend of the single final
    exponentiation ("generic" | "cyclotomic" | "compressed"); all three
    return the identical product.  The default "compressed" is the fastest in
    software: Karabina squaring runs, one batched decompression per chain,
    and Granger-Scott squarings where a Karabina determinant is zero.

    Example -- a pairing-product equation check (the Groth16/BLS verifier
    shape), with the fixed G2 point precomputed::

        import repro
        curve = repro.get_curve("TOY-BN42")
        g1, g2 = curve.g1_generator, curve.g2_generator
        pre = repro.precompute_g2(curve, g2)
        # e(-P, Q) * e(P, Q) == 1
        product = repro.multi_pairing(curve, [(-g1, pre), (g1, pre)])
        assert product.is_one()
    """
    accumulators = validate_accumulator_count(accumulators)
    validate_final_exp_mode(final_exp_mode)     # before the empty-product early return
    try:
        pairs = list(pairs)
    except TypeError as exc:
        raise PairingError(
            f"pairs must be an iterable of (P, Q) pairs, got {type(pairs).__name__}"
        ) from exc
    ctx = ConcretePairingContext(curve)
    loop_schedule(ctx, use_naf)             # validate the loop scalar up front
    sources = _make_sources(ctx, pairs, use_naf)
    if not sources:
        # Empty product (no pairs, or every pair degenerate): the GT identity,
        # consistent with optimal_ate_pairing on the point at infinity.
        return curve.tower.full_field.one()

    f = batched_miller_loop(ctx, sources, use_naf=use_naf, accumulators=accumulators)
    return final_exponentiation(ctx, f, mode=final_exp_mode)


# ---------------------------------------------------------------------------
# Combining products: a batch verifier's algebra, on the G1 side
# ---------------------------------------------------------------------------

def combine_products(curve, products, coefficients) -> list:
    """Pairs whose :func:`multi_pairing` value is
    ``Pi_j multi_pairing(products[j]) ** coefficients[j]``, exactly.

    Pairs are grouped by G2 operand -- the same :class:`G2Precomputation`
    object (what a verifying-key cache hands every request of one key; equal
    content in two objects is not looked for) or an equal G2 point -- and a
    group becomes one pair: ``e(Sum_i c_i P_i, Q)``, its G1 point computed by
    one :meth:`~repro.curves.model.EllipticCurve.multi_scalar_mul` (none when
    the group is a single pair of coefficient 1).  Coefficients of equal G1
    points are added first, as plain integers of any sign: no order is assumed
    of any point.  A group that sums to infinity contributes nothing; the
    others come out in order of first appearance.

    Both identities are bilinearity, which holds for ``P`` in ``E(F_p)`` and
    ``Q`` in G2; neither this function nor :func:`multi_pairing` checks
    subgroup membership.  G1 operands must be affine points (they are
    scaled), not ``(x, y)`` tuples.
    """
    products, coefficients = list(products), list(coefficients)
    if len(products) != len(coefficients):
        raise PairingError(
            f"{len(products)} products for {len(coefficients)} coefficients")
    groups: dict = {}       # G2 operand -> (Q, {P: summed coefficient}); dicts keep first appearance
    for index, (product, coefficient) in enumerate(zip(products, coefficients)):
        for P, Q in product:
            if not hasattr(P, "scalar_mul"):
                raise PairingError(
                    f"products[{index}]: a G1 operand must be an affine point to be "
                    f"scaled, got {type(P).__name__}")
            _, terms = groups.setdefault(id(Q) if isinstance(Q, G2Precomputation) else Q, (Q, {}))
            terms[P] = terms.get(P, 0) + coefficient
    pairs = []
    for Q, terms in groups.values():
        if list(terms.values()) == [1]:
            P, = terms
        else:
            P = curve.curve.multi_scalar_mul(terms.keys(), terms.values())
        if not P.is_infinity():
            pairs.append((P, Q))
    return pairs
