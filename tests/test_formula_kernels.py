"""Formula kernels: every kernel against the formula it was compiled from.

``build_formula_kernel`` runs a formula once over symbolic elements and renders
one function on raw residues; the concrete pairing context and the scalar
multiplication ladder execute those.  Here each kernel is compared with its
formula executed element by element on concrete values (what the tracing
context runs and what the kernels are generated from), the executed F_p
product counts are pinned, and the builder's folding rules are checked on
their own.  ``scalar_mul`` against the affine double-and-add loop lives in
``tests/test_curves.py``.
"""

from __future__ import annotations

import functools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.catalog import CURVE_SPECS, build_curve, get_curve
from repro.curves.formulas import jacobian_add, jacobian_add_mixed, jacobian_double
from repro.curves.model import ladder_kernels
from repro.errors import FieldError, PairingError
from repro.fields import cyclotomic
from repro.fields.cyclotomic import compressed_square, cyclotomic_square
from repro.fields.kernels import KernelBuilder, build_formula_kernel
from repro.pairing.ate import optimal_ate_pairing
from repro.pairing.batch import multi_pairing, precompute_g2
from repro.pairing.context import (
    ConcretePairingContext,
    PairingContext,
    SymbolicPairingContext,
)
from repro.pairing.final_exp import easy_part
from repro.pairing.lines import add_step, double_step
from repro.pairing.miller import times_line
from test_curve_shapes import SHAPES

TOY_CURVES = ("TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79")
PAPER_CURVES = ("BN254N", "BLS12-381")
#: The catalog toys, then the twelve curve shapes of ``curve_shapes``.
TOYS_AND_SHAPES = TOY_CURVES + tuple(SHAPES)


class ElementwiseContext(ConcretePairingContext):
    """The concrete hooks with the formulas run as written: the reference."""

    run_formula = PairingContext.run_formula


def _pairing_cases(curve) -> list:
    """``(label, formula, operand fields)``: every formula the pairing runs
    through ``run_formula``; ``"ctx"`` stands where the context goes."""
    tower = curve.tower
    fp, twist, full = tower.fp, tower.twist_field, tower.full_field
    point, affine = (twist,) * 3, (twist,) * 2
    cases = [
        ("double_step", double_step, (point, (fp, fp))),
        ("add_step", add_step, (point, affine, (fp, fp))),
        ("cyclotomic_square", cyclotomic_square.formula, ("ctx", full)),
        ("compressed_square", cyclotomic._compressed_square.formula, ("ctx",) + (twist,) * 4),
        ("decompression_system", cyclotomic._decompression_system.formula,
         ("ctx",) + (twist,) * 4),
        ("decompression_solve", cyclotomic._decompression_solve.formula, ("ctx",) + (twist,) * 7),
    ]
    for kind in ("dbl", "add"):
        cases.append((f"times_line[{kind}]", times_line, ("ctx", kind, full) + (twist,) * 3))
        cases.append((f"times_line[{kind}, replayed]", times_line,
                      ("ctx", kind, full) + (twist,) * 3 + (fp, fp)))
    return cases


def _draw(data, shape, ctx, p):
    """Random operands of ``shape``: a field draws an element of it."""
    if isinstance(shape, tuple):
        return tuple(_draw(data, item, ctx, p) for item in shape)
    if shape == "ctx":
        return ctx
    if isinstance(shape, str):
        return shape
    residues = st.lists(st.integers(0, p - 1), min_size=shape.degree, max_size=shape.degree)
    return shape.from_base_coeffs(data.draw(residues))


def _swap(args, old, new):
    return tuple(new if arg is old else arg for arg in args)


def _check_pairing_kernels(curve, data):
    kernel_ctx, reference_ctx = ConcretePairingContext(curve), ElementwiseContext(curve)
    for label, formula, shape in _pairing_cases(curve):
        args = _draw(data, shape, kernel_ctx, curve.p)
        expected = formula(*_swap(args, kernel_ctx, reference_ctx))
        assert kernel_ctx.run_formula(formula, *args) == expected, label


def _check_ladder_kernels(curve, data):
    for group in (curve.curve, curve.twist_curve):
        field = group.field
        double, add_mixed, add = ladder_kernels(group)
        point, other = (_draw(data, (field,) * 3, None, curve.p) for _ in range(2))
        raw, raw_other = (tuple(c.flat for c in value) for value in (point, other))

        def elements(residues):
            return tuple(field.from_flat(flat) for flat in residues)

        assert elements(double(raw)) == jacobian_double(point, group.a)
        assert elements(add_mixed(raw, raw_other[:2])) == jacobian_add_mixed(point, other[:2])
        assert elements(add(raw, raw_other)) == jacobian_add(point, other)


def _toy_or_shape(curve_name, curve_shapes):
    return curve_shapes.get(curve_name) or get_curve(curve_name)


@pytest.mark.parametrize("curve_name", TOYS_AND_SHAPES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_pairing_kernel_equals_its_formula(curve_shapes, curve_name, data):
    _check_pairing_kernels(_toy_or_shape(curve_name, curve_shapes), data)


@pytest.mark.parametrize("curve_name", TOYS_AND_SHAPES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_ladder_kernel_equals_its_formula(curve_shapes, curve_name, data):
    _check_ladder_kernels(_toy_or_shape(curve_name, curve_shapes), data)


@pytest.mark.parametrize("curve_name", PAPER_CURVES)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_paper_curve_kernels_equal_their_formulas(curve_name, data):
    curve = get_curve(curve_name)
    _check_pairing_kernels(curve, data)
    _check_ladder_kernels(curve, data)


def test_the_public_squarings_run_the_kernels(toy_curve):
    """``cyclotomic_square`` / ``compressed_square`` called with a concrete
    context are the kernels, and agree with the formulas run as written."""
    rng = random.Random(0x5EED)
    full = toy_curve.tower.full_field
    ctx, reference = ConcretePairingContext(toy_curve), ElementwiseContext(toy_curve)
    f = full.random(rng)
    assert cyclotomic_square(ctx, f) == cyclotomic_square(reference, f)
    comp = cyclotomic.compress(ctx, f)
    assert compressed_square(ctx, comp).coords() == compressed_square(reference, comp).coords()
    assert {key[0].__name__ for key in toy_curve.formula_kernels} >= {
        "cyclotomic_square", "_compressed_square"}


# ---------------------------------------------------------------------------
# The n-times form: one unwrap, n kernel runs, one re-wrap
# ---------------------------------------------------------------------------

REPEAT_TIMES = (1, 2, 32)


def _squaring_cases(curve) -> list:
    """``(formula, operand fields)`` of the two squarings run in runs."""
    tower = curve.tower
    return [(cyclotomic_square, ("ctx", tower.full_field)),
            (cyclotomic._compressed_square, ("ctx",) + (tower.twist_field,) * 4)]


def _applied(formula, ctx, operands: tuple, times: int):
    """``formula`` run ``times`` times as written, each result the next operands."""
    for _ in range(times):
        result = formula(ctx, *operands)
        operands = result if isinstance(result, tuple) else (result,)
    return result


def _check_repeat(curve, data):
    kernel_ctx, reference_ctx = ConcretePairingContext(curve), ElementwiseContext(curve)
    for wrapped, shape in _squaring_cases(curve):
        args = _draw(data, shape, kernel_ctx, curve.p)
        for times in REPEAT_TIMES:
            expected = _applied(wrapped.formula, reference_ctx, args[1:], times)
            label = f"{wrapped.__name__} x{times}"
            assert kernel_ctx.run_formula_times(times, wrapped.formula, *args) == expected, label
            assert wrapped.repeat(kernel_ctx, times, *args[1:]) == expected, label
            # The default form -- what the tracing context runs -- agrees too.
            assert PairingContext.run_formula_times(
                reference_ctx, times, wrapped.formula, reference_ctx, *args[1:]) == expected, label


@pytest.mark.parametrize("curve_name", TOY_CURVES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_the_n_times_call_equals_the_formula_run_n_times(curve_name, data):
    _check_repeat(get_curve(curve_name), data)


@pytest.mark.parametrize("curve_name", PAPER_CURVES)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_the_n_times_call_equals_the_formula_run_n_times_on_paper_curves(curve_name, data):
    _check_repeat(get_curve(curve_name), data)


def test_the_n_times_call_runs_one_kernel_n_times(toy_bn, toy_bls12):
    """The per-iteration products are the pinned kernel's: the n-times entry
    calls that one kernel ``n`` times.  An operand of another tower fails
    loudly, and a formula whose result is not its operands' shape has no
    n-times form."""
    ctx = ConcretePairingContext(toy_bn)
    f = easy_part(ctx, toy_bn.tower.full_field.random(random.Random(5)))
    cyclotomic_square(ctx, f)
    kernel = toy_bn.formula_kernels[(cyclotomic_square.formula, None, toy_bn.tower.full_field)]
    namespace = kernel.repeat_on_elements.__globals__
    calls = []
    namespace["kernel"] = lambda *args: calls.append(1) or kernel(*args)
    try:
        value = cyclotomic_square.repeat(ctx, 32, f)
    finally:
        namespace["kernel"] = kernel
    assert len(calls) == 32 and kernel.fp_muls == SQUARING_PRODUCT_COUNTS[12]["cyclotomic_square"][0]
    assert value == f ** (2 ** 32)
    with pytest.raises(PairingError, match="F_p\\^k"):
        cyclotomic_square.repeat(ctx, 2, toy_bls12.tower.full_field.one())
    twist = toy_bn.tower.twist_field
    with pytest.raises(PairingError, match="cannot be repeated"):
        ctx.run_formula_times(2, cyclotomic._decompression_system.formula, ctx,
                              *[twist.one()] * 4)


# ---------------------------------------------------------------------------
# Executed F_p products: the numbers an op-count table reads
# ---------------------------------------------------------------------------

#: curve -> {kernel: (fp_muls, fp_sqrs)}; the default variants square F_p2
#: "complex", so no kernel executes an F_p squaring.  TOY-BN42 / TOY-BLS12-54
#: have D-type twists, TOY-BLS24-79 and BLS12-381 M-type ones.
PRODUCT_COUNTS = {
    "TOY-BN42": {"cyclotomic_square": (18, 0), "double_step": (34, 0), "add_step": (43, 0),
                 "times_line[dbl]": (39, 0), "times_line[add]": (39, 0)},
    "TOY-BLS12-54": {"cyclotomic_square": (18, 0), "double_step": (34, 0), "add_step": (43, 0),
                     "times_line[dbl]": (39, 0), "times_line[add]": (39, 0)},
    "BLS12-381": {"cyclotomic_square": (18, 0), "double_step": (34, 0), "add_step": (43, 0),
                  "times_line[dbl]": (39, 0), "times_line[add]": (42, 0)},
    "TOY-BLS24-79": {"cyclotomic_square": (54, 0), "double_step": (98, 0), "add_step": (125, 0),
                     "times_line[dbl]": (117, 0), "times_line[add]": (126, 0)},
}

#: The hard part's kernels, by embedding degree: F_p products per iteration
#: of the two squarings (an n-times call executes n iterations), and per
#: element of the Karabina decompression (the (g0, g3) system and its solve).
SQUARING_PRODUCT_COUNTS = {
    12: {"cyclotomic_square": (18, 0), "compressed_square": (12, 0),
         "decompression_system": (14, 0), "decompression_solve": (18, 0)},
    24: {"cyclotomic_square": (54, 0), "compressed_square": (36, 0),
         "decompression_system": (42, 0), "decompression_solve": (54, 0)},
}


@pytest.mark.parametrize("curve_name", sorted(PRODUCT_COUNTS))
def test_kernels_execute_the_pinned_product_counts(curve_name):
    curve = get_curve(curve_name)
    counts = {}
    for label, formula, shape in _pairing_cases(curve):
        fields = tuple(SymbolicPairingContext(curve) if item == "ctx" else item for item in shape)
        kernel = build_formula_kernel(formula, fields, "probe")
        counts[label] = (kernel.fp_muls, kernel.fp_sqrs)
    pinned = PRODUCT_COUNTS[curve_name]
    assert {label: counts[label] for label in pinned} == pinned
    squarings = SQUARING_PRODUCT_COUNTS[curve.k]
    assert {label: counts[label] for label in squarings} == squarings
    # A replayed line pays its two F_p scalings inside the same kernel; the
    # dense product all of them specialise is the tower's.
    scalings = 2 * curve.tower.twist_field.degree
    for kind in ("dbl", "add"):
        assert counts[f"times_line[{kind}, replayed]"] == (
            pinned[f"times_line[{kind}]"][0] + scalings, 0)
    assert curve.tower.full_field._mul.fp_muls == (54 if curve.k == 12 else 162)


# ---------------------------------------------------------------------------
# The builder's three rules
# ---------------------------------------------------------------------------

def test_a_literal_zero_folds_out_of_sums_and_products():
    builder = KernelBuilder(10007)
    x, y = builder.inputs("x", 2)
    zero = builder.zero()
    assert builder.mul(x, zero) == zero and builder.mul(zero, y) == zero
    assert builder.add(x, zero) == x and builder.add(zero, y) == y
    assert builder.sub(x, zero) == x
    assert builder.nodes[builder.sub(zero, y)] == ("-{}", (y,))
    assert builder.scale(zero, 3) == zero and builder.neg(zero) == zero
    assert builder.nodes[builder.sub(x, x)][0] == "0"
    out = builder.add(builder.mul(x, zero), builder.mul(x, y))
    source = builder.source("probe", [("a", (x, y))], (builder.settle(out),))
    assert source.count("*") == 1 and (builder.fp_muls, builder.fp_sqrs) == (1, 0)


def test_a_node_is_settled_once():
    builder = KernelBuilder(10007)
    x, y = builder.inputs("x", 2)
    product = builder.mul(x, y)
    first, second = builder.settle(product), builder.settle(product)
    assert first == second and builder.settle(first) == first and builder.settle(x) == x
    source = builder.source("probe", [("a", (x, y))], (first, builder.add(second, x)))
    assert source.count("% p") == 1


def test_a_product_is_settled_before_it_enters_another_product(toy_bn):
    """The width rule, on the F_p ladder kernel: ``(X^2 * 3)`` is reduced
    before it is squared, and nothing is reduced twice."""
    fp = toy_bn.tower.fp
    kernel = build_formula_kernel(
        functools.partial(jacobian_double, a=fp.zero()), ((fp,) * 3,), "probe")
    # Three outputs, and Y^2, X + Y^2, 3 X^2 and D - X3 on their way into a product.
    assert kernel.source.count("% p") == 7
    builder = KernelBuilder(fp.p)
    x, y = builder.inputs("x", 2)
    wide = builder.mul(x, y)
    assert builder.narrow(x) == x
    assert builder.nodes[builder.narrow(wide)] == ("{} % p", (wide,))
    assert builder.narrow(builder.add(wide, x)) != builder.add(wide, x)     # sums inherit
    assert builder.narrow(builder.settle(wide)) == builder.settle(wide)
    assert (kernel.fp_muls, kernel.fp_sqrs) == (2, 5)       # a = 0: the a Z^4 term is gone


def test_operands_of_the_wrong_field_fail_loudly(toy_bn, toy_bls12):
    ctx = ConcretePairingContext(toy_bn)
    full, twist = toy_bn.tower.full_field, toy_bn.tower.twist_field
    with pytest.raises(PairingError):
        cyclotomic_square(ctx, twist.one())
    with pytest.raises(PairingError):
        cyclotomic_square(ctx, toy_bls12.tower.full_field.one())   # same degree, other tower
    assert cyclotomic_square(ctx, full.one()) == full.one()        # nothing took its place
    # Operands inside tuples are checked by the kernel itself.
    P, Q = toy_bn.g1_generator, toy_bn.g2_generator
    ctx.run_formula(double_step, (Q.x, Q.y, twist.one()), (P.x, P.y))
    other = toy_bls12.tower.twist_field.one()
    with pytest.raises(FieldError, match="double_step"):
        ctx.run_formula(double_step, (other, other, other), (P.x, P.y))


def test_points_pickle_after_the_ladder_kernels_were_generated(toy_bn):
    """A field that has multiplied a point holds exec-compiled kernels; they
    stay behind when one of its points is pickled (F_p and the twist field)."""
    for generator in (toy_bn.g1_generator, toy_bn.g2_generator):
        point = generator.scalar_mul(12345)
        assert generator.curve.field._formula_kernels
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point and clone.x.field is not point.x.field
        assert clone.scalar_mul(-7) == point.scalar_mul(-7)


# ---------------------------------------------------------------------------
# First use from two threads
# ---------------------------------------------------------------------------

def test_two_threads_racing_the_first_use_agree():
    """Kernel caches are filled on first use, idempotently: the service hashes
    to G1 on the event loop while the verify thread multiplies and pairs."""
    curve = build_curve(CURVE_SPECS["TOY-BLS12-54"])          # fresh: nothing generated yet
    curve.tower.fp._formula_kernels.clear()
    curve.tower.twist_field._formula_kernels.clear()
    assert not curve.formula_kernels
    g1, g2 = curve.g1_generator, curve.g2_generator
    barrier = threading.Barrier(2)
    results: list = [None, None]

    def work(slot):
        barrier.wait(timeout=30)
        fixed = precompute_g2(curve, g2.scalar_mul(7))
        results[slot] = (g1.scalar_mul(12345), g2.scalar_mul(54321),
                         optimal_ate_pairing(curve, g1, g2, final_exp_mode="compressed"),
                         multi_pairing(curve, [(g1, g2), (g1.scalar_mul(3), fixed)]))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] is not None and results[0] == results[1]
    reference = get_curve("TOY-BLS12-54")
    assert results[0][0] == reference.g1_generator.scalar_mul(12345)
    assert results[0][2] == optimal_ate_pairing(reference, reference.g1_generator,
                                                reference.g2_generator)
