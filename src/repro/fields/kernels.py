"""Straight-line residue kernels: the Python leaf of the tower scalariser.

An element of a tower level is a flat tuple of ``degree`` canonical residues
(:mod:`repro.fields.extension`).  Its arithmetic is one Python function per
(field, operation), generated here the first time the operation is used:
:class:`~repro.fields.scalarise.TowerScalariser` -- the one recursion that
applies the formulas of :mod:`repro.fields.variants` down the tower, the same
one the compiler lowers to F_p-level IR through -- runs over
:class:`KernelBuilder`, whose F_p-level values are integer expressions, and
the resulting source is ``exec``-compiled.  Inside a kernel every value is an
unreduced Python integer -- sums, differences and double-width products are
never reduced -- and each output coefficient pays exactly one ``% p``, the
lazy reduction a hardware datapath performs.  A constant residue (a
coefficient of the adjunction ``xi`` or of a Frobenius constant) is applied as
the signed integer literal of least magnitude, so ``+-1`` and small values
become sign flips and small multiples and only a genuinely large residue costs
a product.
"""

from __future__ import annotations

from repro.errors import FieldError
from repro.fields.scalarise import TowerScalariser
from repro.fields.variants import DEFAULT_VARIANTS, get_variant

#: Kernel signatures: ``a`` / ``b`` are flat operand tuples, ``k`` an integer.
_PARAMS = {"mul": ("a", "b"), "add": ("a", "b"), "sub": ("a", "b"), "mul_small": ("a", "k")}

#: Coefficient-wise kernels, as the expression computed per coefficient.
_ELEMENTWISE = {"add": "{} + {}", "sub": "{} - {}", "neg": "-{}", "mul_small": "{} * k"}

#: Kernels that are one scalariser method of the same name.
_TOWER_OPS = ("mul", "sqr", "mul_by_nonresidue", "conjugate", "inverse")


class KernelBuilder:
    """Integer expressions over F_p ``p`` in SSA form, rendered once into a
    Python function: the scalariser's leaf (:mod:`repro.fields.scalarise`).

    A node is ``(template, operand ids)``; named inputs have no operands.
    :meth:`source` binds a node to a local only when it is used more than
    once, so single-use sums and products nest into one expression.
    """

    def __init__(self, p: int):
        self.p = p
        self.nodes: list = []
        self.fp_muls = 0           # F_p products of two variables
        self.fp_sqrs = 0           # F_p squarings

    def node(self, template: str, *args: int) -> int:
        self.nodes.append((template, args))
        return len(self.nodes) - 1

    def inputs(self, name: str, count: int) -> tuple:
        return tuple(self.node(f"{name}{i}") for i in range(count))

    def _negated(self, x: int):
        template, args = self.nodes[x]
        return args[0] if template == "-{}" else None

    # -- the leaf protocol ---------------------------------------------------------
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

    def mul(self, x: int, y: int) -> int:
        self.fp_muls += 1
        return self.node("{} * {}", x, y)

    def sqr(self, x: int) -> int:
        self.fp_sqrs += 1
        return self.node("{} * {}", x, x)

    def inv(self, x: int) -> int:
        return self.node("pow({}, -1, p)", x)

    def scale(self, x: int, k: int) -> int:
        negated = self._negated(x)
        if negated is not None:
            x, k = negated, -k
        if k == 1:
            return x
        if k == -1:
            return self.neg(x)
        return self.node(f"{{}} * {k}", x)

    def mul_residue(self, x: int, value: int) -> int:
        return self.scale(x, value - self.p if value > self.p // 2 else value)

    def zero(self) -> int:
        return self.node("0")

    def settle(self, x: int) -> int:
        """One ``% p``; inputs, literals and settled values pass through."""
        template, args = self.nodes[x]
        return x if not args or template == "{} % p" else self.node("{} % p", x)

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
    variants = variants or DEFAULT_VARIANTS
    builder = KernelBuilder(field.p)
    tower = TowerScalariser(
        builder, lambda kind, degree, m: get_variant(kind, m, variants[(kind, m)]))
    degree = field.degree
    params = _PARAMS.get(op, ("a",))
    operands = [builder.inputs(vector, degree) for vector in params if vector != "k"]
    if op in _ELEMENTWISE:
        outputs = [builder.node(_ELEMENTWISE[op], *xs) for xs in zip(*operands)]
    elif op == "frobenius":
        outputs = tower.frobenius(field, *operands, power)
    elif op in _TOWER_OPS:
        outputs = getattr(tower, op)(field, *operands)
    else:
        raise FieldError(f"no kernel for operation {op!r}")
    outputs = tower.settle(outputs)
    name = f"fp{degree}_{op}"
    source = builder.source(name, params, degree, outputs)
    namespace = {"p": field._m}
    exec(compile(source, f"<kernel {name}>", "exec"), namespace)
    kernel = namespace[name]
    kernel.source = source
    kernel.fp_muls = builder.fp_muls
    kernel.fp_sqrs = builder.fp_sqrs
    return kernel
