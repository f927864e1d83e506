"""Straight-line residue kernels generated from the operator-variant formulas.

An element of a tower level is a flat tuple of ``degree`` canonical residues
(:mod:`repro.fields.extension`).  Its arithmetic is one Python function per
(field, operation), generated here the first time the operation is used: the
*same* formulas of :mod:`repro.fields.variants` that the compiler lowers to
F_p-level IR are run recursively down the tower through a source-emitting
:class:`~repro.fields.variants.StepOps` adapter, and the resulting source is
``exec``-compiled.  Inside a kernel every value is an unreduced Python integer
-- sums, differences and double-width products are never reduced -- and each
output coefficient pays exactly one ``% p``, the lazy reduction a hardware
datapath performs.  Multiplication by a tower constant (the adjunction ``xi``,
a Frobenius constant) is specialised from the constant's value: zero
coefficients vanish, ``+-1`` and small integers become sign flips and small
multiples, the adjoined generator becomes a coefficient rotation with one
lower-level adjunction, and only a genuinely large residue costs a product.
"""

from __future__ import annotations

from repro.errors import FieldError
from repro.fields.variants import DEFAULT_VARIANTS, StepOps, get_variant

#: Kernel signatures: ``a`` / ``b`` are flat operand tuples, ``k`` an integer.
_PARAMS = {"mul": ("a", "b"), "add": ("a", "b"), "sub": ("a", "b"), "mul_small": ("a", "k")}

#: Coefficient-wise kernels, as the expression computed per coefficient.
_ELEMENTWISE = {"add": "{} + {}", "sub": "{} - {}", "neg": "-{}", "mul_small": "{} * k"}


class _SourceStepOps(StepOps):
    """Adapter emitting source for one extension step.

    Operands are tuples of ``field.base.degree`` node ids of the builder, each
    an unreduced integer expression.
    """

    __slots__ = ("builder", "field")

    def __init__(self, builder: "KernelBuilder", field):
        self.builder = builder
        self.field = field

    def add(self, a, b):
        return tuple(map(self.builder.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.builder.sub, a, b))

    def neg(self, a):
        return tuple(map(self.builder.neg, a))

    def mul(self, a, b):
        return self.builder.mul(self.field.base, a, b)

    def sqr(self, a):
        return self.builder.sqr(self.field.base, a)

    def adj(self, a):
        return self.builder.mul_const(
            self.field.base, a, self.field.non_residue.to_base_coeffs())

    def muli(self, k, a):
        return tuple(self.builder.scale(x, k) for x in a)


class KernelBuilder:
    """Integer expressions in SSA form, rendered once into a Python function.

    A node is ``(template, operand ids)``; named inputs have no operands.
    :meth:`source` binds a node to a local only when it is used more than
    once, so single-use sums and products nest into one expression.
    """

    def __init__(self, variants: dict | None = None):
        self.variants = variants or DEFAULT_VARIANTS
        self.nodes: list = []
        self.fp_muls = 0           # F_p products of two variables
        self.fp_sqrs = 0           # F_p squarings

    # -- F_p-level nodes ---------------------------------------------------------
    def node(self, template: str, *args: int) -> int:
        self.nodes.append((template, args))
        return len(self.nodes) - 1

    def inputs(self, name: str, count: int) -> tuple:
        return tuple(self.node(f"{name}{i}") for i in range(count))

    def _negated(self, x: int):
        template, args = self.nodes[x]
        return args[0] if template == "-{}" else None

    def add(self, x: int, y: int) -> int:
        negated = self._negated(y)
        if negated is not None:
            return self.node("{} - {}", x, negated)
        return self.node("{} + {}", x, y)

    def sub(self, x: int, y: int) -> int:
        negated = self._negated(y)
        if negated is not None:
            return self.node("{} + {}", x, negated)
        return self.node("{} - {}", x, y)

    def neg(self, x: int) -> int:
        negated = self._negated(x)
        return self.node("-{}", x) if negated is None else negated

    def scale(self, x: int, k: int) -> int:
        """``x`` times the integer constant ``k``."""
        negated = self._negated(x)
        if negated is not None:
            x, k = negated, -k
        if k == 1:
            return x
        if k == -1:
            return self.neg(x)
        return self.node(f"{{}} * {k}", x)

    def reduce(self, vec) -> tuple:
        """Canonical residues of ``vec``; inputs pass through, they already are."""
        return tuple(self.node("{} % p", x) if self.nodes[x][1] else x for x in vec)

    # -- recursive tower formulas ----------------------------------------------------
    @staticmethod
    def _split(field, vec) -> list:
        chunk = field.base.degree
        return [tuple(vec[i:i + chunk]) for i in range(0, len(vec), chunk)]

    def _variant(self, op: str, field):
        return get_variant(op, field.m, self.variants[(op, field.m)])

    def mul(self, field, a, b) -> tuple:
        if field.degree == 1:
            self.fp_muls += 1
            return (self.node("{} * {}", a[0], b[0]),)
        chunks = self._variant("mul", field).apply(
            _SourceStepOps(self, field), self._split(field, a), self._split(field, b))
        return tuple(x for chunk in chunks for x in chunk)

    def sqr(self, field, a) -> tuple:
        if field.degree == 1:
            self.fp_sqrs += 1
            return (self.node("{} * {}", a[0], a[0]),)
        chunks = self._variant("sqr", field).apply(
            _SourceStepOps(self, field), self._split(field, a))
        return tuple(x for chunk in chunks for x in chunk)

    def mul_const(self, field, a, constant) -> tuple:
        """``a`` times a non-zero constant of ``field`` (its ``to_base_coeffs()``).

        Schoolbook over the constant's non-zero coefficients, wrapping with
        the step's own adjunction; at F_p the constant is taken as the signed
        representative of least magnitude.
        """
        if field.degree == 1:
            k = constant[0]
            return (self.scale(a[0], k - field.p if k > field.p // 2 else k),)
        base, m = field.base, field.m
        xi = field.non_residue.to_base_coeffs()
        coeffs = self._split(field, constant)
        out: list = [None] * m
        for i, chunk in enumerate(self._split(field, a)):
            for j, coeff in enumerate(coeffs):
                if not any(coeff):
                    continue
                term = self.mul_const(base, chunk, coeff)
                if i + j >= m:
                    term = self.mul_const(base, term, xi)
                k = (i + j) % m
                out[k] = term if out[k] is None else tuple(map(self.add, out[k], term))
        return tuple(x for chunk in out for x in chunk)

    def frobenius(self, field, a, n: int) -> tuple:
        if field.degree == 1:
            return a
        out: list = [None] * field.m
        for chunk, (dest, constant) in zip(self._split(field, a), field.frobenius_data(n)):
            image = self.frobenius(field.base, chunk, n)
            if not constant.is_one():
                image = self.mul_const(field.base, image, constant.to_base_coeffs())
            out[dest] = image
        return tuple(x for chunk in out for x in chunk)

    def inverse(self, field, a) -> tuple:
        """Norm-descent inversion; the norm and the result are reduced at each
        level so operand widths do not compound down and back up the tower."""
        if field.degree == 1:
            return (self.node("pow({}, -1, p)", a[0]),)
        ops = _SourceStepOps(self, field)
        base = field.base
        if field.m == 2:
            a0, a1 = self._split(field, a)
            norm = ops.sub(ops.sqr(a0), ops.adj(ops.sqr(a1)))
            inv = self.inverse(base, self.reduce(norm))
            return self.reduce(ops.mul(a0, inv) + ops.neg(ops.mul(a1, inv)))
        a0, a1, a2 = self._split(field, a)
        c0 = ops.sub(ops.sqr(a0), ops.adj(ops.mul(a1, a2)))
        c1 = ops.sub(ops.adj(ops.sqr(a2)), ops.mul(a0, a1))
        c2 = ops.sub(ops.sqr(a1), ops.mul(a0, a2))
        c0, c1, c2 = self.reduce(c0), self.reduce(c1), self.reduce(c2)
        norm = ops.add(ops.mul(a0, c0), ops.adj(ops.add(ops.mul(a2, c1), ops.mul(a1, c2))))
        inv = self.inverse(base, self.reduce(norm))
        return self.reduce(ops.mul(c0, inv) + ops.mul(c1, inv) + ops.mul(c2, inv))

    # -- rendering ---------------------------------------------------------------------
    def source(self, name: str, params: tuple, degree: int, outputs) -> str:
        """Python source of ``name(*params)`` returning the ``outputs`` tuple.

        Parameters named ``a`` / ``b`` are flat operand tuples and are unpacked
        into the ``a0 .. a{degree-1}`` inputs; any other parameter is a scalar.
        """
        nodes = self.nodes
        uses = [0] * len(nodes)
        for out in outputs:
            uses[out] += 1
        for index in range(len(nodes) - 1, -1, -1):      # users precede operands
            if uses[index]:
                for arg in nodes[index][1]:
                    uses[arg] += 1
        lines = [f"def {name}({', '.join(params)}):"]
        for vector in params:
            if vector in ("a", "b"):
                names = ", ".join(f"{vector}{i}" for i in range(degree))
                lines.append(f"    {names} = {vector}")
        text: dict = {}
        for index, (template, args) in enumerate(nodes):
            if not uses[index]:
                continue
            expr = template.format(*(text[arg] for arg in args))
            if not args:
                text[index] = expr
            elif uses[index] == 1:
                text[index] = f"({expr})"
            else:
                lines.append(f"    t{index} = {expr}")
                text[index] = f"t{index}"
        lines.append(f"    return ({', '.join(text[out] for out in outputs)})")
        return "\n".join(lines) + "\n"


def build_kernel(field, op: str, power: int = 1, variants: dict | None = None):
    """Generate and compile the flat-tuple kernel of ``op`` for ``field``.

    ``op`` is ``mul`` | ``sqr`` | ``add`` | ``sub`` | ``neg`` | ``mul_small``
    (second argument: the integer) | ``mul_by_nonresidue`` | ``conjugate`` |
    ``inverse`` | ``frobenius`` (the ``p**power`` map).  Operands and results
    are tuples of ``field.degree`` residues in ``[0, p)``.  The function
    carries its ``source`` and the ``fp_muls`` / ``fp_sqrs`` it executes, so
    tests can check the executed operation count against the variant cost
    table.  ``variants`` maps ``(op, step_degree)`` to a variant name for every
    step of the tower (default: :data:`~repro.fields.variants.DEFAULT_VARIANTS`).
    """
    builder = KernelBuilder(variants)
    degree = field.degree
    params = _PARAMS.get(op, ("a",))
    a = builder.inputs("a", degree)
    b = builder.inputs("b", degree) if "b" in params else None
    if op in _ELEMENTWISE:
        operands = zip(a, b) if b else zip(a)
        outputs = builder.reduce(builder.node(_ELEMENTWISE[op], *xs) for xs in operands)
    elif op == "mul":
        outputs = builder.reduce(builder.mul(field, a, b))
    elif op == "sqr":
        outputs = builder.reduce(builder.sqr(field, a))
    elif op == "mul_by_nonresidue":
        chunk = field.base.degree
        wrapped = builder.mul_const(
            field.base, a[-chunk:], field.non_residue.to_base_coeffs())
        outputs = builder.reduce(wrapped) + a[:-chunk]
    elif op == "conjugate":
        half = degree // 2
        outputs = a[:half] + builder.reduce(map(builder.neg, a[half:]))
    elif op == "inverse":
        outputs = builder.inverse(field, a)
    elif op == "frobenius":
        outputs = builder.reduce(builder.frobenius(field, a, power))
    else:
        raise FieldError(f"no kernel for operation {op!r}")
    name = f"fp{degree}_{op}"
    source = builder.source(name, params, degree, outputs)
    namespace = {"p": field._m}
    exec(compile(source, f"<kernel {name}>", "exec"), namespace)
    kernel = namespace[name]
    kernel.source = source
    kernel.fp_muls = builder.fp_muls
    kernel.fp_sqrs = builder.fp_sqrs
    return kernel
