"""Differential oracle over every (field, op, variant): the two leaves of the
tower scalariser against each other and against element arithmetic.

For one operation on one tower level under one variant selection, three things
must agree coefficient for coefficient:

* the exec'd Python kernel (``build_kernel(..., variants=...)``: the
  scalariser over ``KernelBuilder``),
* ``interpret_low_level`` of the one-op module traced with ``IRBuilder`` and
  lowered with ``lower_module`` (the scalariser over the IR leaf),
* the element-level result (the field's own default-variant arithmetic, which
  ``tests/test_fields.py`` checks against a schoolbook oracle sharing no code
  with either -- all three sides here share the recursion, so a bug *in* it
  that every variant reproduces alike is common-mode and is that oracle's to
  catch; breaking the wrap condition ``i + j < m`` of ``mul_const`` fails this
  file through both leaves under the non-default quadratic squarings).

``manual`` overrides variants per *absolute* degree, which ``build_kernel``'s
step-keyed ``variants`` deliberately cannot express: there the lowered IR is
checked against element arithmetic alone.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.catalog import get_curve
from repro.fields.kernels import build_kernel
from repro.fields.variants import (
    DEFAULT_VARIANTS,
    SCHOOLBOOK_VARIANTS,
    VariantConfig,
    list_variants,
)
from repro.ir.builder import IRBuilder, TraceElement
from repro.ir.interp import interpret_low_level
from repro.ir.lowering import lower_module

CURVES = ("TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79", "BLS12-381", "BN254N")

#: ``mul_small`` constants walking every arm of the IR leaf's dbl/tpl/add chains.
SMALL = (0, 1, -1, 2, 3, 6, 7, 9, -10)

#: Step-keyed selections: the two named ones, then every other registered
#: variant substituted at its own (op, step degree).
SELECTIONS = {"default": DEFAULT_VARIANTS, "schoolbook": SCHOOLBOOK_VARIANTS}
for _variant in list_variants():
    _key = (_variant.op, _variant.step_degree)
    if DEFAULT_VARIANTS[_key] != _variant.name:
        SELECTIONS[f"{_variant.op}{_variant.step_degree}={_variant.name}"] = {
            **DEFAULT_VARIANTS, _key: _variant.name}
SELECTIONS["manual"] = None


def _config(levels, variants) -> VariantConfig:
    if variants is None:
        return VariantConfig.manual()
    return VariantConfig({(op, field.degree): variants[(op, field.m)]
                          for field in levels.values() if field.degree > 1
                          for op in ("mul", "sqr")})


def _adj(x):
    if isinstance(x, TraceElement):         # no tracer emits "adj"; lowering accepts it
        return TraceElement(x.builder, x.builder.emit("adj", (x.vid,), x.field.degree), x.field)
    return x.mul_by_nonresidue()


def _cases(field, levels):
    """``(label, fn, field of the second operand or None, kernel op, kernel args)``
    for every operation of ``field``; ``fn`` runs on elements and on traces
    alike, ``kernel args`` picks the kernel's arguments from ``(x, y)``."""
    def flat(x, y):
        return (x.flat,)

    cases = [
        ("mul", lambda x, y: x * y, field, ("mul", 1), lambda x, y: (x.flat, y.flat)),
        ("sqr", lambda x: x.square(), None, ("sqr", 1), flat),
        ("inverse", lambda x: x.inverse(), None, ("inverse", 1), flat),
        ("mul_by_nonresidue", _adj, None, ("mul_by_nonresidue", 1), flat),
    ]
    if field.m == 2:
        cases.append(("conjugate", lambda x: x.conjugate(), None, ("conjugate", 1), flat))
    for n in (1, 2, 3):
        cases.append((f"frobenius({n})", lambda x, n=n: x.frobenius(n), None,
                      ("frobenius", n), flat))
    for k in SMALL:
        cases.append((f"mul_small({k})", lambda x, k=k: x.mul_small(k), None,
                      ("mul_small", 1), lambda x, y, k=k: (x.flat, k)))
    for degree, sub in sorted(levels.items()):
        if degree < field.degree:
            cases.append((f"mul by F_p{degree}", lambda x, y: x * y, sub, None, None))
            cases.append((f"F_p{degree} mul", lambda x, y: y * x, sub, None, None))
    return cases


@functools.lru_cache(maxsize=None)
def _artefacts(curve_name: str, selection: str) -> list:
    """Per (field, op): the lowered one-op module and the kernel, built once."""
    levels = get_curve(curve_name).tower.levels
    variants, config = SELECTIONS[selection], _config(levels, SELECTIONS[selection])
    built = []
    for degree, field in sorted(levels.items()):
        if degree == 1:
            continue
        for label, fn, second, kernel_op, kernel_args in _cases(field, levels):
            builder = IRBuilder(label)
            operands = [builder.input(field, "x")]
            if second is not None:
                operands.append(builder.input(second, "y"))
            builder.output(fn(*operands), "out")
            module = lower_module(builder.module, levels, config)
            kernel = None
            if variants is not None and kernel_op is not None:
                kernel = build_kernel(field, kernel_op[0], power=kernel_op[1], variants=variants)
            elif variants is not None and second.degree > 1:
                # Sub-level scaling is the sub-level's ``mul`` kernel per coefficient.
                kernel, kernel_args = build_kernel(second, "mul", variants=variants), None
            built.append((f"F_p{degree} {label}", field, fn, second, module, kernel, kernel_args))
    return built


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("curve_name", CURVES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_python_kernel_lowered_ir_and_elements_agree(curve_name, selection, data):
    levels = get_curve(curve_name).tower.levels
    p = levels[1].p
    drawn: dict = {}

    def operand(field, name):
        # One operand per (level, role) and example; non-zero so it inverts.
        if (field.degree, name) not in drawn:
            residues = st.lists(st.integers(0, p - 1), min_size=field.degree,
                                max_size=field.degree).filter(any)
            drawn[field.degree, name] = field.from_base_coeffs(data.draw(residues))
        return drawn[field.degree, name]

    for label, field, fn, second, module, kernel, kernel_args in _artefacts(curve_name, selection):
        x = operand(field, "x")
        y = None if second is None else operand(second, "y")
        operands = (x,) if y is None else (x, y)
        expected = fn(*operands).to_base_coeffs()
        inputs = {(name, j): c for name, value in zip("xy", operands)
                  for j, c in enumerate(value.to_base_coeffs())}
        outputs = interpret_low_level(module, p, inputs)
        assert [outputs["out", j] for j in range(field.degree)] == expected, f"IR: {label}"
        if kernel is None:
            continue
        if kernel_args is not None:
            result = kernel(*kernel_args(x, y))
        else:
            chunk = second.degree
            result = sum((kernel(x.flat[i:i + chunk], y.flat)
                          for i in range(0, field.degree, chunk)), ())
        assert [int(c) for c in result] == expected, f"kernel: {label}"


def test_every_registered_variant_is_selected_somewhere():
    selected = {(key, name) for variants in SELECTIONS.values() if variants
                for key, name in variants.items()}
    assert selected == {((v.op, v.step_degree), v.name) for v in list_variants()}
