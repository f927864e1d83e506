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

The same builder and renderer compile whole *formulas*
(:func:`build_formula_kernel`): a Miller step, a line product, a cyclotomic
squaring or a Jacobian group law, written once against the element interface,
is run over :class:`SymbolicElement` operands and comes out as one function on
raw residues.  Literal zeros fold away, so a sparse operand specialises the
dense formula, and a value that already carries a product is settled before it
enters another one (:meth:`KernelBuilder.narrow`), so operands stay near ``p``
and products near ``p**2`` -- a matter of speed only: residues are unbounded
integers.
"""

from __future__ import annotations

import itertools

from repro.errors import FieldError
from repro.fields.scalarise import TowerScalariser
from repro.fields.variants import DEFAULT_VARIANTS, get_variant

#: Kernel signatures: ``a`` / ``b`` are flat operand tuples, ``k`` an integer.
_PARAMS = {"mul": ("a", "b"), "add": ("a", "b"), "sub": ("a", "b"), "mul_small": ("a", "k")}

#: Coefficient-wise kernels, as the expression computed per coefficient.
_ELEMENTWISE = {"add": "{} + {}", "sub": "{} - {}", "neg": "-{}", "mul_small": "{} * k"}

#: Kernels that are one scalariser method of the same name.
_TOWER_OPS = ("mul", "sqr", "mul_by_nonresidue", "conjugate", "inverse")


def map_leaves(fn, value):
    """``fn`` over the leaves of a nested tuple / list; the nesting comes back
    as tuples."""
    if isinstance(value, (tuple, list)):
        return tuple(map_leaves(fn, item) for item in value)
    return fn(value)


def _leaves(value) -> list:
    """The leaves of a nested tuple / list, in order."""
    leaves: list = []
    map_leaves(leaves.append, value)
    return leaves


def _numbered(prefix: str, value, keep=lambda leaf: True):
    """``value`` with its leaves named ``prefix0, prefix1, ...`` in order
    (``"_"`` for the ones not kept)."""
    index = itertools.count()
    return map_leaves(lambda leaf: f"{prefix}{next(index)}" if keep(leaf) else "_", value)


def _display(value, text) -> str:
    """Nested tuples of leaves as a tuple display (or unpacking target)."""
    if not isinstance(value, tuple):
        return text(value)
    items = [_display(item, text) for item in value]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


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
        self.fp_muls = 0           # F_p products of two variables, as rendered
        self.fp_sqrs = 0           # F_p squarings, as rendered
        self._wide: set = set()    # nodes carrying a product not yet reduced
        self._settled: dict = {}   # node -> its one "% p"

    def node(self, template: str, *args: int, wide=None) -> int:
        """Append a node; by default it is as wide as its widest operand."""
        self.nodes.append((template, args))
        index = len(self.nodes) - 1
        if wide is None:
            wide = any(arg in self._wide for arg in args)
        if wide:
            self._wide.add(index)
        return index

    def inputs(self, name: str, count: int) -> tuple:
        return tuple(self.node(f"{name}{i}") for i in range(count))

    def _negated(self, x: int):
        template, args = self.nodes[x]
        return args[0] if template == "-{}" else None

    def _is_zero(self, x: int) -> bool:
        return self.nodes[x][0] == "0"

    # -- the leaf protocol ---------------------------------------------------------
    def add(self, x: int, y: int) -> int:
        if self._is_zero(x) or self._is_zero(y):
            return y if self._is_zero(x) else x
        negated = self._negated(y)
        if negated is not None:
            return self.sub(x, negated)
        return self.node("{} + {}", x, y)

    def sub(self, x: int, y: int) -> int:
        if x == y:
            return self.zero()
        if self._is_zero(x) or self._is_zero(y):
            return self.neg(y) if self._is_zero(x) else x
        negated = self._negated(y)
        if negated is not None:
            return self.add(x, negated)
        return self.node("{} - {}", x, y)

    def neg(self, x: int) -> int:
        if self._is_zero(x):
            return x
        negated = self._negated(x)
        return self.node("-{}", x) if negated is None else negated

    def mul(self, x: int, y: int) -> int:
        if self._is_zero(x) or self._is_zero(y):
            return x if self._is_zero(x) else y
        return self.node("{} * {}", x, y, wide=True)

    def sqr(self, x: int) -> int:
        return self.mul(x, x)

    def inv(self, x: int) -> int:
        return self.node("pow({}, -1, p)", x, wide=False)

    def scale(self, x: int, k: int) -> int:
        negated = self._negated(x)
        if negated is not None:
            x, k = negated, -k
        if k == 1 or self._is_zero(x):
            return x
        if k == -1:
            return self.neg(x)
        # A small multiple widens nothing; a residue-sized one is a product.
        return self.node(f"{{}} * {k}", x, wide=True if abs(k) >> 16 else None)

    def mul_residue(self, x: int, value: int) -> int:
        return self.scale(x, value - self.p if value > self.p // 2 else value)

    def zero(self) -> int:
        return self.node("0")

    def settle(self, x: int) -> int:
        """One ``% p`` per node, however often it is asked for; inputs,
        literals and settled values pass through."""
        template, args = self.nodes[x]
        if not args or template == "{} % p":
            return x
        if x not in self._settled:
            self._settled[x] = self.node("{} % p", x, wide=False)
        return self._settled[x]

    def narrow(self, x: int) -> int:
        """The width rule: a value that already carries a product is settled
        before it enters another product."""
        return self.settle(x) if x in self._wide else x

    # -- rendering ---------------------------------------------------------------------
    def source(self, name: str, params: list, outputs) -> str:
        """Python source of ``name(*params)`` returning the ``outputs`` nodes
        (a nested tuple).

        ``params`` pairs each parameter name with the nested tuple of input
        nodes it is unpacked into; any other pattern (``"_"``) leaves the
        parameter a plain name -- the scalar ``k``, an ignored argument.
        """
        nodes = self.nodes
        uses = [0] * len(nodes)
        self.fp_muls = self.fp_sqrs = 0
        for out in _leaves(outputs):
            uses[out] += 1
        for index in range(len(nodes) - 1, -1, -1):      # users precede operands
            if uses[index]:
                for arg in nodes[index][1]:
                    uses[arg] += 1
        lines = [f"def {name}({', '.join(param for param, _ in params)}):"]
        for param, pattern in params:
            if isinstance(pattern, tuple):
                target = _display(pattern, lambda x: x if isinstance(x, str) else nodes[x][0])
                lines.append(f"    {target} = {param}")
        text: dict = {}
        for index, (template, args) in enumerate(nodes):
            if not uses[index]:
                continue
            if template == "{} * {}":
                if args[0] == args[1]:
                    self.fp_sqrs += 1
                else:
                    self.fp_muls += 1
            expr = template.format(*(text[arg] for arg in args))
            if not args:
                text[index] = expr
            elif uses[index] == 1:
                text[index] = f"({expr})"
            else:
                lines.append(f"    t{index} = {expr}")
                text[index] = f"t{index}"
        lines.append(f"    return {_display(outputs, text.__getitem__)}")
        return "\n".join(lines) + "\n"

    def compile(self, name: str, params: list, outputs, modulus):
        """The rendered function, carrying its ``source`` and the ``fp_muls``
        / ``fp_sqrs`` it executes."""
        source = self.source(name, params, outputs)
        namespace = {"p": modulus}
        exec(compile(source, f"<kernel {name}>", "exec"), namespace)
        kernel = namespace[name]
        kernel.source = source
        kernel.fp_muls = self.fp_muls
        kernel.fp_sqrs = self.fp_sqrs
        return kernel


def _scalariser(builder: KernelBuilder, variants: dict) -> TowerScalariser:
    return TowerScalariser(
        builder, lambda kind, degree, m: get_variant(kind, m, variants[(kind, m)]))


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
    builder = KernelBuilder(field.p)
    tower = _scalariser(builder, variants or DEFAULT_VARIANTS)
    degree = field.degree
    params = [(vector, "_" if vector == "k" else builder.inputs(vector, degree))
              for vector in _PARAMS.get(op, ("a",))]
    operands = [nodes for _, nodes in params if nodes != "_"]
    if op in _ELEMENTWISE:
        outputs = [builder.node(_ELEMENTWISE[op], *xs) for xs in zip(*operands)]
    elif op == "frobenius":
        outputs = tower.frobenius(field, *operands, power)
    elif op in _TOWER_OPS:
        outputs = getattr(tower, op)(field, *operands)
    else:
        raise FieldError(f"no kernel for operation {op!r}")
    return builder.compile(f"fp{degree}_{op}", params, tower.settle(outputs), field._m)


class SymbolicElement:
    """A tower element whose residues are :class:`KernelBuilder` nodes: the
    element interface the formulas are written against (``+ - *``, ``square``,
    ``mul_small`` / ``double`` / ``triple``, products with an element of a
    lower level or with a constant of its own), executed once to record a
    kernel."""

    __slots__ = ("tower", "field", "vec")

    def __init__(self, tower: TowerScalariser, field, vec):
        self.tower = tower
        self.field = field
        self.vec = tuple(vec)

    def like(self, field, vec) -> "SymbolicElement":
        return SymbolicElement(self.tower, field, vec)

    def zero(self) -> "SymbolicElement":
        return self.like(self.field, (self.tower.leaf.zero() for _ in self.vec))

    def _linear(self, op, *others) -> "SymbolicElement":
        for other in others:
            if not isinstance(other, SymbolicElement) or other.field != self.field:
                raise FieldError(f"cannot combine a symbolic element of {self.field!r} with {other!r}")
        return self.like(self.field, map(op, self.vec, *(other.vec for other in others)))

    def _operand(self) -> tuple:
        return tuple(map(self.tower.leaf.narrow, self.vec))

    def __add__(self, other):
        return self._linear(self.tower.leaf.add, other)

    def __sub__(self, other):
        return self._linear(self.tower.leaf.sub, other)

    def __neg__(self):
        return self._linear(self.tower.leaf.neg)

    def mul_small(self, k: int):
        return self._linear(lambda x: self.tower.leaf.scale(x, k))

    def double(self):
        return self.mul_small(2)

    def triple(self):
        return self.mul_small(3)

    def square(self):
        return self.like(self.field, self.tower.sqr(self.field, self._operand()))

    def __mul__(self, other):
        tower = self.tower
        if not isinstance(other, SymbolicElement):      # a constant of this level
            if getattr(other, "field", None) != self.field:
                raise FieldError(f"cannot scale a symbolic element of {self.field!r} by {other!r}")
            return self.like(self.field, tower.mul_const(self.field, self.vec, other))
        big, small = (self, other) if self.field.degree >= other.field.degree else (other, self)
        if big.field == small.field:
            product = tower.mul(big.field, big._operand(), small._operand())
        elif getattr(big.field, "_levels", {}).get(small.field.degree) == small.field:
            product = tower.mul_sublevel(small.field, big._operand(), small._operand())
        else:
            raise FieldError("mixed multiplication requires a sub-tower operand")
        return self.like(big.field, product)

    __rmul__ = __mul__


def build_formula_kernel(formula, operand_fields, name: str):
    """Compile ``formula`` -- a straight-line function written against the
    element interface -- into one kernel on raw residues.

    ``operand_fields`` mirrors the formula's arguments: a field where it takes
    an element of that field, a (nested) tuple where it takes one, and anything
    else -- a constant element, a context, a string -- is handed to the formula
    as it is.  The kernel takes the same arguments with the flat residue tuple
    of every element in its place (what stands where a non-field argument stood
    is ignored) and returns the formula's result the same way.  Its
    ``on_elements`` takes and returns the elements themselves, checking their
    fields: the formula's drop-in replacement.  When the result has the
    shape of the element operands (one element per operand, field for field:
    a squaring), ``repeat_on_elements(times, *args)`` applies the formula
    ``times`` times, each result taking the operands' place -- unpacked and
    checked once, the kernel run ``times`` times on raw residues, re-wrapped
    once; otherwise it is ``None``.
    """
    fields = [leaf for leaf in _leaves(operand_fields) if hasattr(leaf, "degree")]
    builder = KernelBuilder(fields[0].p)
    tower = _scalariser(builder, DEFAULT_VARIANTS)
    index = itertools.count()

    def operand(leaf):
        if not hasattr(leaf, "degree"):
            return leaf
        return SymbolicElement(tower, leaf, builder.inputs(f"x{next(index)}_", leaf.degree))

    def is_operand(leaf) -> bool:
        return isinstance(leaf, SymbolicElement)

    args = map_leaves(operand, operand_fields)
    result = formula(*args)
    params = [(f"a{i}", map_leaves(lambda leaf: leaf.vec if is_operand(leaf) else "_", arg))
              for i, arg in enumerate(args)]
    outputs = map_leaves(lambda element: tower.settle(element.vec), result)
    kernel = builder.compile(name, params, outputs, fields[0]._m)

    # The same call on elements: unpack, check the fields, run, re-wrap.  The
    # repeated call feeds result r<i> back where operand e<i> stood.
    ins, outs = _numbered("e", args, is_operand), _numbered("r", result)
    signature = ", ".join(param for param, _ in params)
    results = _leaves(result)
    head = [
        f"    {_display(ins, str)} = ({signature},)",
        f"    if ({''.join(f'e{i}.field, ' for i in range(len(fields)))}) != fields:",
        f"        raise FieldError('{name} takes operands of ' + repr(fields))",
    ]
    rewrap = f"    return {_display(outs, lambda r: f'w{r[1:]}({r})')}"

    def call(operand) -> str:
        """The kernel call with ``operand(e<i>)`` where operand ``i`` stood."""
        return f"{_display(outs, str)} = kernel" + _display(
            ins, lambda e: "None" if e == "_" else operand(e))

    source = "\n".join([
        f"def on_elements({signature}):", *head,
        f"    {call(lambda e: e + '.flat')}",
        rewrap,
    ]) + "\n"
    repeatable = [element.field for element in results] == fields
    if repeatable:
        carried = ", ".join(f"r{i}" for i in range(len(results)))
        source += "\n".join([
            f"def repeat_on_elements(times, {signature}):", *head,
            f"    ({carried},) = ({''.join(f'e{i}.flat, ' for i in range(len(fields)))})",
            "    for _ in range(times):",
            f"        {call(lambda e: 'r' + e[1:])}",
            rewrap,
        ]) + "\n"
    namespace = {"kernel": kernel, "fields": tuple(fields), "FieldError": FieldError,
                 **{f"w{i}": element.field.from_flat for i, element in enumerate(results)}}
    exec(compile(source, f"<kernel {name} on elements>", "exec"), namespace)
    kernel.on_elements = namespace["on_elements"]
    kernel.repeat_on_elements = namespace["repeat_on_elements"] if repeatable else None
    return kernel
