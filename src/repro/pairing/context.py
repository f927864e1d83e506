"""Execution context shared by the concrete and the traced pairing implementations.

The Miller loop and final exponentiation in this package are written once,
against the small interface below.  Running them with a
:class:`ConcretePairingContext` produces the golden pairing value; running them
with the compiler's tracing context (:mod:`repro.compiler.codegen`) produces the
high-level IR of the very same computation.  This is the mechanism that keeps
the accelerator code and the reference semantics in lock step.
"""

from __future__ import annotations

from repro.errors import PairingError
from repro.fields.kernels import build_formula_kernel, map_leaves
from repro.fields.tower import W_STORAGE_ORDER, from_w_coeffs, w_coeffs


class PairingContext:
    """Interface required by :mod:`repro.pairing.miller` and ``final_exp``:
    the curve constants below plus the element factory methods."""

    def __init__(self, curve):
        self.curve = curve
        self.family = curve.family.name          # "BN", "BLS12" or "BLS24"
        self.u = curve.params.u                  # curve seed
        self.k = curve.params.k                  # embedding degree
        self.p = curve.params.p
        self.r = curve.params.r
        # 6u + 2 for BN, u for BLS; read by repro.pairing.miller.loop_schedule alone.
        self.loop_scalar = curve.family.miller_loop_scalar(curve.params.u)
        self.twist_type = curve.twist_type       # "D" or "M"
        self.final_exp_plan = curve.final_exp_plan
        self._tower = curve.tower

    # Field/element factory methods ----------------------------------------------
    def full_one(self):
        """Multiplicative identity of F_p^k."""
        raise NotImplementedError

    def twist_one(self):
        """Multiplicative identity of F_p^{k/6}."""
        raise NotImplementedError

    def full_from_w_coeffs(self, coeffs):
        """Assemble an F_p^k element from its 6 coefficients over F_p^{k/6}.

        ``coeffs`` is a length-6 sequence whose entries are twist-field values or
        ``None`` (syntactic zero -- kept explicit so that the compiler's sparsity
        optimisation sees the zeros).
        """
        raise NotImplementedError

    def twist_frobenius_constants(self, n: int):
        """The pair (c_x, c_y) with psi^-1(pi_p^n(psi(Q))) = (frob^n(x) c_x, frob^n(y) c_y)."""
        raise NotImplementedError

    def full_w_coeffs(self, value):
        """Decompose an F_p^k value into its 6 coefficients over F_p^{k/6}.

        The inverse of :meth:`full_from_w_coeffs` (w-power basis, index 0..5).
        Coefficient selection is free: concrete elements expose their tower
        structure and the compiler lowers the extraction to pure wiring.  Used
        by the cyclotomic fast path of the final exponentiation
        (:mod:`repro.fields.cyclotomic`).
        """
        raise NotImplementedError

    def twist_xi_value(self):
        """The sextic non-residue xi (with w^6 = xi) as a twist-field value."""
        raise NotImplementedError

    def run_formula(self, formula, *args):
        """Evaluate one straight-line formula of this package (a Miller step, a
        line product, a cyclotomic squaring) on ``args``.

        The one seam between a formula and its realisations: run as written it
        executes element by element -- which is what records the IR under the
        tracing context -- and :class:`ConcretePairingContext` answers with the
        kernel compiled from it.  A formula that needs the hooks above takes
        the context among its arguments.
        """
        return formula(*args)

    def run_formula_times(self, times: int, formula, *args):
        """``formula`` applied ``times >= 1`` times in a row, each result
        taking the place of the element operands -- the n-times form of
        :meth:`run_formula` for a formula whose result has its operands' shape
        (a squaring run).  Here it is :meth:`run_formula` ``times`` times, so
        tracing records the formula ``times`` times as written;
        :class:`ConcretePairingContext` unwraps once, runs the kernel
        ``times`` times on raw residues and wraps once."""
        for _ in range(times):
            result = self.run_formula(formula, *args)
            outs = iter(result if isinstance(result, tuple) else (result,))
            args = map_leaves(lambda arg: next(outs) if hasattr(arg, "field") else arg, args)
        return result


class SymbolicPairingContext(PairingContext):
    """The structural hooks on :class:`~repro.fields.kernels.SymbolicElement`
    values, as pure slicing: the context a formula sees while its kernel is
    being built."""

    def full_from_w_coeffs(self, coeffs):
        some = next(coeff for coeff in coeffs if coeff is not None)
        vec: tuple = ()
        for index in W_STORAGE_ORDER:
            vec += (some.zero() if coeffs[index] is None else coeffs[index]).vec
        return some.like(self._tower.full_field, vec)

    def full_w_coeffs(self, value):
        if value.field != self._tower.full_field:
            raise PairingError("full_w_coeffs expects an F_p^k element")
        twist = self._tower.twist_field
        chunk = twist.degree
        coeffs: list = [None] * 6
        for slot, index in enumerate(W_STORAGE_ORDER):
            coeffs[index] = value.like(twist, value.vec[slot * chunk:(slot + 1) * chunk])
        return coeffs

    def twist_xi_value(self):
        return self._tower.twist_xi


class ConcretePairingContext(PairingContext):
    """Context backed by a :class:`repro.curves.catalog.PairingCurve`."""

    def full_one(self):
        return self._tower.full_field.one()

    def twist_one(self):
        return self._tower.twist_field.one()

    def full_from_w_coeffs(self, coeffs):
        if len(coeffs) != 6:
            raise PairingError("expected 6 twist-field coefficients")
        return from_w_coeffs(self._tower.full_field, coeffs)

    def twist_frobenius_constants(self, n: int):
        return self.curve.twist_frobenius_constants(n)

    def full_w_coeffs(self, value):
        if value.field != self._tower.full_field:
            raise PairingError("full_w_coeffs expects an F_p^k element")
        return w_coeffs(value)

    def twist_xi_value(self):
        return self._tower.twist_xi

    def _kernel(self, formula, args):
        """The kernel compiled from ``formula`` for arguments like ``args``.
        Kernels are generated on first use and kept on the curve (a context
        lives for one call) by formula, string arguments and operand fields --
        operands inside tuples are checked by the kernel itself.  Filling is
        idempotent, so two threads may both build."""
        key = (formula, *[getattr(arg, "field", arg if isinstance(arg, str) else None)
                          for arg in args])
        kernel = self.curve.formula_kernels.get(key)
        if kernel is None:
            symbolic = SymbolicPairingContext(self.curve)
            fields = map_leaves(
                lambda arg: symbolic if arg is self else getattr(arg, "field", arg), args)
            kernel = self.curve.formula_kernels[key] = build_formula_kernel(
                formula, fields, formula.__name__)
        return kernel

    def run_formula(self, formula, *args):
        """The kernel compiled from ``formula``, on ``args``."""
        return self._kernel(formula, args).on_elements(*args)

    def run_formula_times(self, times: int, formula, *args):
        """The kernel compiled from ``formula``, ``times`` times in a row on
        raw residues: one unwrap, one field check, one re-wrap."""
        repeat = self._kernel(formula, args).repeat_on_elements
        if repeat is None:
            raise PairingError(
                f"{formula.__name__} does not return its operands' shape; it cannot be repeated")
        return repeat(times, *args)
