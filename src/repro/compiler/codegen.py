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
from repro.pairing.batch import (
    LiveSource,
    batched_miller_loop,
    partition_into_groups,
    split_batched_miller_loop,
)
from repro.pairing.context import PairingContext
from repro.pairing.final_exp import final_exponentiation, validate_final_exp_mode
from repro.pairing.miller import miller_loop


class TracingPairingContext(PairingContext):
    """Pairing context whose values are IR trace elements."""

    def __init__(self, curve, builder: IRBuilder):
        self.curve = curve
        self.builder = builder
        self.family = curve.family.name
        self.u = curve.params.u
        self.k = curve.params.k
        self.p = curve.params.p
        self.r = curve.params.r
        self.loop_scalar = curve.family.miller_loop_scalar(curve.params.u)
        self.twist_type = curve.twist_type
        self.final_exp_plan = curve.final_exp_plan
        self._tower = curve.tower

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


def generate_pairing_ir(curve, use_naf: bool = True, include_final_exp: bool = True,
                        name: str | None = None, final_exp_mode: str = "generic"):
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
    builder = IRBuilder(name or f"pairing-{curve.name}{suffix}")
    builder.module.meta.update(final_exp_mode=final_exp_mode)
    ctx = TracingPairingContext(curve, builder)

    x_p = builder.input(curve.tower.fp, "xP")
    y_p = builder.input(curve.tower.fp, "yP")
    x_q = builder.input(curve.tower.twist_field, "xQ")
    y_q = builder.input(curve.tower.twist_field, "yQ")

    with builder.phase("miller"):
        f = miller_loop(ctx, (x_p, y_p), (x_q, y_q), use_naf=use_naf)
    if include_final_exp:
        with builder.phase("final_exp"):
            f = final_exponentiation(ctx, f, mode=final_exp_mode)
    builder.output(f, "result")
    return builder.module


class _LaneScopedSource:
    """Wrap a :class:`~repro.pairing.batch.LiveSource` in a builder lane scope.

    Every Miller-loop step the source performs (point update + line
    coefficients) is emitted under its pair's lane, while the shared
    accumulator work the caller performs on the returned lines stays on the
    shared lane -- the partition the multi-core scheduler distributes.
    """

    __slots__ = ("_builder", "_lane", "_inner")

    def __init__(self, builder: IRBuilder, lane: int, inner: LiveSource):
        self._builder = builder
        self._lane = lane
        self._inner = inner

    def double(self):
        with self._builder.lane(self._lane):
            return self._inner.double()

    def add(self, digit: int):
        with self._builder.lane(self._lane):
            return self._inner.add(digit)

    def negate(self):
        with self._builder.lane(self._lane):
            self._inner.negate()

    def frobenius_add(self, n: int):
        with self._builder.lane(self._lane):
            return self._inner.frobenius_add(n)

    def finish(self):
        self._inner.finish()


def validate_batch_size(n_pairs) -> int:
    """Batch sizes must be integral (no bools, no truncating floats) and >= 1."""
    return positive_int(n_pairs, "batch size (pairs per kernel)", CompilerError)


def generate_multi_pairing_ir(curve, n_pairs: int, use_naf: bool = True,
                              include_final_exp: bool = True,
                              name: str | None = None,
                              accumulator_groups: int | None = None,
                              final_exp_mode: str = "generic"):
    """Trace the batched pairing-product kernel ``Pi e(P_i, Q_i)`` into IR.

    The kernel shares one accumulator squaring per Miller iteration and a
    single final exponentiation across all ``n_pairs`` pairs (the Groth16
    verifier shape), by running the *same*
    :func:`repro.pairing.batch.batched_miller_loop` the software
    ``multi_pairing`` executes -- on trace elements instead of field elements.
    Per-pair line evaluations are tagged with their pair's lane so the
    multi-core scheduler (:func:`repro.sim.cycle.CycleAccurateSimulator.run_multicore`)
    can dispatch them across :attr:`~repro.hw.model.HardwareModel.n_cores`.

    ``accumulator_groups=g`` traces the *split-accumulator* kernel instead
    (:func:`repro.pairing.batch.split_batched_miller_loop`): the pairs are
    partitioned into ``g`` deterministic contiguous groups, each group runs
    its own complete accumulator chain -- line evaluations, squarings, sign
    conjugation and BN Frobenius tail -- under that group's lane tag, and only
    the final cross-group merge product and the final exponentiation stay on
    the shared lane.  With one group per core the multi-core schedule has no
    cross-core serialisation until the merge, at the cost of ``g - 1`` extra
    squaring chains.

    Inputs are ``xP{i}``/``yP{i}`` (F_p) and ``xQ{i}``/``yQ{i}`` (twist field)
    for each pair ``i``; the single output is the fused G_T product.
    """
    n_pairs = validate_batch_size(n_pairs)
    validate_final_exp_mode(final_exp_mode)
    if accumulator_groups is not None:
        positive_int(accumulator_groups, "accumulator_groups", CompilerError)
    split = accumulator_groups is not None and accumulator_groups > 1
    # accumulator_groups=1 degenerates to the shared kernel; don't let the
    # module name claim otherwise.
    suffix = f"-split{accumulator_groups}" if split else ""
    if final_exp_mode != "generic":
        suffix += f"-fe-{final_exp_mode}"
    builder = IRBuilder(name or f"multi-pairing-{curve.name}-x{n_pairs}{suffix}")
    # The kernel shape rides on the module (and through lowering/IROpt): the
    # multi-core scheduler assigns split-kernel group lanes differently from
    # shared-kernel line lanes (the shared lane is a pure merge tail there).
    builder.module.meta.update(
        kernel="multi_pairing",
        n_pairs=n_pairs,
        split_accumulators=split,
        accumulator_groups=accumulator_groups if split else 1,
        final_exp_mode=final_exp_mode,
    )
    ctx = TracingPairingContext(curve, builder)

    with builder.phase("miller"):
        if accumulator_groups is None or accumulator_groups == 1:
            sources = []
            for i in range(n_pairs):
                with builder.lane(i):
                    x_p = builder.input(curve.tower.fp, f"xP{i}")
                    y_p = builder.input(curve.tower.fp, f"yP{i}")
                    x_q = builder.input(curve.tower.twist_field, f"xQ{i}")
                    y_q = builder.input(curve.tower.twist_field, f"yQ{i}")
                    inner = LiveSource(ctx, (x_p, y_p), (x_q, y_q))
                sources.append(_LaneScopedSource(builder, i, inner))
            f = batched_miller_loop(ctx, sources, use_naf=use_naf)
        else:
            # Split mode: the pair -> group map comes from the same
            # partition_into_groups the software split accumulator uses, so the
            # compiled kernel reproduces the software grouping exactly.  A pair's
            # inputs and point walk live on its *group's* lane; the group chain
            # work is stamped by split_batched_miller_loop through the
            # group_scope hook.
            index_groups = partition_into_groups(range(n_pairs), accumulator_groups)
            sources = [None] * n_pairs
            for group, members in enumerate(index_groups):
                for i in members:
                    with builder.lane(group):
                        x_p = builder.input(curve.tower.fp, f"xP{i}")
                        y_p = builder.input(curve.tower.fp, f"yP{i}")
                        x_q = builder.input(curve.tower.twist_field, f"xQ{i}")
                        y_q = builder.input(curve.tower.twist_field, f"yQ{i}")
                        sources[i] = LiveSource(ctx, (x_p, y_p), (x_q, y_q))
            f = split_batched_miller_loop(ctx, sources, accumulator_groups,
                                          use_naf=use_naf, group_scope=builder.lane)
    if include_final_exp:
        with builder.phase("final_exp"):
            f = final_exponentiation(ctx, f, mode=final_exp_mode)
    builder.output(f, "result")
    return builder.module
