"""CodeGen: trace the optimal Ate pairing into high-level IR.

The tracing context mirrors :class:`repro.pairing.context.ConcretePairingContext`
but returns :class:`~repro.ir.builder.TraceElement` values, so the exact same
Miller-loop and final-exponentiation code that computes the golden value records
the accelerator program.  Loops are fully unrolled (their trip counts are curve
constants), producing the single basic block the rest of the pipeline expects.
"""

from __future__ import annotations

from repro.config import positive_int
from repro.errors import CompilerError
from repro.ir.builder import IRBuilder
from repro.pairing.batch import partition_into_groups, split_batched_miller_loop
from repro.pairing.context import PairingContext
from repro.pairing.final_exp import final_exponentiation, validate_final_exp_mode
from repro.pairing.miller import LivePair, miller_walk


class TracingPairingContext(PairingContext):
    """Pairing context whose values are IR trace elements."""

    def __init__(self, curve, builder: IRBuilder):
        super().__init__(curve)
        self.builder = builder

    def full_one(self):
        return self.builder.constant(self._tower.full_field.one())

    def twist_one(self):
        return self.builder.constant(self._tower.twist_field.one())

    def full_from_w_coeffs(self, coeffs):
        if len(coeffs) != 6:
            raise CompilerError("expected 6 twist-field coefficients")
        zero = None
        parts = []
        for coeff in coeffs:
            if coeff is None:
                if zero is None:
                    zero = self.builder.constant(self._tower.twist_field.zero())
                parts.append(zero)
            else:
                parts.append(coeff)
        return self.builder.pack(parts, self._tower.full_field)

    def twist_frobenius_constants(self, n: int):
        c_x, c_y = self.curve.twist_frobenius_constants(n)
        return (self.builder.constant(c_x), self.builder.constant(c_y))

    def full_w_coeffs(self, value):
        # Coefficient extraction is free in hardware (pure wiring): each "ext"
        # op lowers to a slice of the producer's F_p expansion.
        twist = self._tower.twist_field
        return [self.builder.extract(value, j, twist) for j in range(6)]

    def twist_xi_value(self):
        return self.builder.constant(self._tower.twist_xi)


class _TracedPair(LivePair):
    """One pair of a traced kernel: declares its four inputs and walks its point.

    Everything the pair does on its own (inputs, point updates, line
    coefficients) is emitted under ``lane``, while the accumulator work the
    walk performs on the returned coefficients stays where the walk runs --
    the partition the multi-core scheduler distributes.  ``lane=None`` is the
    shared lane: the single-pairing kernel.
    """

    def __init__(self, ctx, lane: int | None, tag: str):
        self._lane = lane
        tower = ctx.curve.tower
        with ctx.builder.lane(lane):
            with ctx.builder.phase(None):       # inputs belong to no phase
                x_p = ctx.builder.input(tower.fp, f"xP{tag}")
                y_p = ctx.builder.input(tower.fp, f"yP{tag}")
                x_q = ctx.builder.input(tower.twist_field, f"xQ{tag}")
                y_q = ctx.builder.input(tower.twist_field, f"yQ{tag}")
            super().__init__(ctx, (x_p, y_p), (x_q, y_q))

    def step(self, kind: str, addend):
        with self._ctx.builder.lane(self._lane):
            return super().step(kind, addend)

    def negate(self):
        with self._ctx.builder.lane(self._lane):
            super().negate()


def _trace_kernel(curve, name: str, meta: dict, pair_lanes: list, groups: int | None,
                  use_naf: bool, final_exp_mode: str):
    """Trace the one Miller walk over ``pair_lanes`` -- ``(input tag, lane)`` per
    pair -- and the final exponentiation: every kernel shape is this function.
    ``groups`` runs one walk per accumulator group instead of one over all."""
    builder = IRBuilder(name)
    builder.module.meta.update(meta, final_exp_mode=final_exp_mode)
    ctx = TracingPairingContext(curve, builder)
    with builder.phase("miller"):
        sources = [_TracedPair(ctx, lane, tag) for tag, lane in pair_lanes]
        if groups is None:
            f = miller_walk(ctx, sources, use_naf)
        else:
            # The group chains are stamped through the group_scope hook; only
            # the cross-group merge stays on the shared lane.
            f = split_batched_miller_loop(ctx, sources, groups, group_scope=builder.lane)
    with builder.phase("final_exp"):
        f = final_exponentiation(ctx, f, mode=final_exp_mode)
    builder.output(f, "result")
    return builder.module


def generate_pairing_ir(curve, use_naf: bool = True, final_exp_mode: str = "generic"):
    """Trace the full pairing kernel for ``curve`` into a high-level IR module.

    The inputs of the module are the affine coordinates of P (two F_p values) and
    Q (two F_p^{k/6} values); the single output is the G_T result.

    ``final_exp_mode`` selects the hard-part backend traced into the kernel
    (see :data:`repro.pairing.final_exp.FINAL_EXP_MODES`): the generic
    square-and-multiply, the Granger-Scott cyclotomic fast path, or the
    Karabina compressed chains.  Instructions carry a ``phase`` tag
    ("miller"/"final_exp") so the simulators report the final-exp share.
    """
    validate_final_exp_mode(final_exp_mode)
    suffix = "" if final_exp_mode == "generic" else f"-fe-{final_exp_mode}"
    return _trace_kernel(curve, f"pairing-{curve.name}{suffix}", {}, [("", None)],
                         None, use_naf, final_exp_mode)


def validate_batch_size(n_pairs) -> int:
    """Batch sizes must be integral (no bools, no truncating floats) and >= 1."""
    return positive_int(n_pairs, "batch size (pairs per kernel)", CompilerError)


def generate_multi_pairing_ir(curve, n_pairs: int, accumulator_groups: int | None = None,
                              final_exp_mode: str = "generic"):
    """Trace the batched pairing-product kernel ``Pi e(P_i, Q_i)`` into IR.

    The kernel shares one accumulator squaring per Miller iteration and a
    single final exponentiation across all ``n_pairs`` pairs (the Groth16
    verifier shape), by tracing the *same*
    :func:`repro.pairing.miller.miller_walk` the software ``multi_pairing``
    executes -- and the single kernel traces, over one pair -- on trace
    elements instead of field elements.  Per-pair line evaluations are tagged
    with their pair's lane so the multi-core scheduler
    (:func:`repro.sim.cycle.CycleAccurateSimulator.run_multicore`) can dispatch
    them across :attr:`~repro.hw.model.HardwareModel.n_cores`.

    ``accumulator_groups=g`` traces the *split-accumulator* kernel instead
    (:func:`repro.pairing.batch.split_batched_miller_loop`): the pairs are
    partitioned into ``g`` deterministic contiguous groups -- by the same
    ``partition_into_groups`` the software split accumulator uses, so the
    compiled kernel reproduces the software grouping exactly -- and each group
    runs its own complete accumulator chain -- inputs, line evaluations,
    squarings, sign conjugation and BN Frobenius tail -- under that group's
    lane tag; only the final cross-group merge product and the final
    exponentiation stay on the shared lane.  With one group per core the
    multi-core schedule has no cross-core serialisation until the merge, at
    the cost of ``g - 1`` extra squaring chains.

    Inputs are ``xP{i}``/``yP{i}`` (F_p) and ``xQ{i}``/``yQ{i}`` (twist field)
    for each pair ``i``; the single output is the fused G_T product.
    """
    n_pairs = validate_batch_size(n_pairs)
    validate_final_exp_mode(final_exp_mode)
    if accumulator_groups is not None:
        positive_int(accumulator_groups, "accumulator_groups", CompilerError)
    # accumulator_groups=1 degenerates to the shared kernel; don't let the
    # module name claim otherwise.
    groups = accumulator_groups if accumulator_groups not in (None, 1) else None
    suffix = f"-split{groups}" if groups else ""
    if final_exp_mode != "generic":
        suffix += f"-fe-{final_exp_mode}"
    # The kernel shape rides on the module (and through lowering/IROpt): the
    # multi-core scheduler assigns split-kernel group lanes differently from
    # shared-kernel line lanes (the shared lane is a pure merge tail there).
    meta = dict(kernel="multi_pairing", n_pairs=n_pairs, split_accumulators=groups is not None,
                accumulator_groups=groups or 1)
    if groups is None:
        pair_lanes = [(str(i), i) for i in range(n_pairs)]
    else:
        pair_lanes = [(str(i), group)
                      for group, members in enumerate(partition_into_groups(range(n_pairs), groups))
                      for i in members]
    return _trace_kernel(curve, f"multi-pairing-{curve.name}-x{n_pairs}{suffix}", meta,
                         pair_lanes, groups, True, final_exp_mode)
