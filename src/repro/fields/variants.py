"""Operator variants for extension-field arithmetic.

A *variant* is one concrete formula for a tower-level operation (multiplication or
squaring of one extension step of degree 2 or 3).  The formulas are written once,
against a tiny arithmetic adapter (:class:`StepOps`), and so is the recursion
that applies them down the tower (:mod:`repro.fields.scalarise`), which is
realised by two F_p-level leaves and priced by one counter:

* the Python leaf (:mod:`repro.fields.kernels`) writes the straight-line
  residue kernel that concrete tower arithmetic
  (:mod:`repro.fields.extension`) executes;
* the IR leaf (:mod:`repro.ir.lowering`) generates the compiler's F_p-level IR;
* :class:`CountingStepOps` tallies M/S/A/B for the cost model, reproducing
  Table 3.

This is the single-source-of-truth design the paper's abstraction system relies on
(Figure 4: the same ``map_lowering[op, variant]`` rule drives both the reference
semantics and the hardware mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FieldError


class StepOps:
    """Arithmetic adapter for one extension step ``K[t]/(t^m - xi)``.

    Subclasses provide the coefficient-level operations.  ``adj`` multiplies by the
    adjoined element's defining constant ``xi`` (the paper's ``B`` operation).
    """

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sqr(self, a):
        raise NotImplementedError

    def adj(self, a):
        raise NotImplementedError

    def muli(self, k: int, a):
        raise NotImplementedError

    def double(self, a):
        return self.muli(2, a)


class CountingStepOps(StepOps):
    """Adapter that only counts sub-level operations (used for the Table 3 costs)."""

    __slots__ = ("muls", "sqrs", "adds", "adjs", "mulis")

    def __init__(self):
        self.muls = 0
        self.sqrs = 0
        self.adds = 0
        self.adjs = 0
        self.mulis = 0

    def add(self, a, b):
        self.adds += 1
        return 0

    def sub(self, a, b):
        self.adds += 1
        return 0

    def neg(self, a):
        self.adds += 1
        return 0

    def mul(self, a, b):
        self.muls += 1
        return 0

    def sqr(self, a):
        self.sqrs += 1
        return 0

    def adj(self, a):
        self.adjs += 1
        return 0

    def muli(self, k, a):
        self.mulis += 1
        return 0


@dataclass(frozen=True)
class VariantCost:
    """Cost of a variant in sub-level operations (the paper's M/S/A/B notation)."""

    mul: int
    sqr: int
    add: int
    adj: int
    muli: int = 0

    def weighted(self, mul_weight: float = 1.0, linear_weight: float = 1.0) -> float:
        """A scalar cost where squarings count as multiplications."""
        return (self.mul + self.sqr) * mul_weight + (self.add + self.adj + self.muli) * linear_weight

    def __str__(self) -> str:  # e.g. "3M 5A 1B"
        parts = []
        if self.mul:
            parts.append(f"{self.mul}M")
        if self.sqr:
            parts.append(f"{self.sqr}S")
        if self.add + self.muli:
            parts.append(f"{self.add + self.muli}A")
        if self.adj:
            parts.append(f"{self.adj}B")
        return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# Degree-2 multiplication variants
# ---------------------------------------------------------------------------

def mul2_schoolbook(ops: StepOps, a, b):
    """(a0 + a1 t)(b0 + b1 t) with 4 sub-multiplications."""
    a0, a1 = a
    b0, b1 = b
    c0 = ops.add(ops.mul(a0, b0), ops.adj(ops.mul(a1, b1)))
    c1 = ops.add(ops.mul(a0, b1), ops.mul(a1, b0))
    return (c0, c1)


def mul2_karatsuba(ops: StepOps, a, b):
    """Karatsuba: 3 sub-multiplications, 5 linear ops, 1 adjunction (Table 3)."""
    a0, a1 = a
    b0, b1 = b
    v0 = ops.mul(a0, b0)
    v1 = ops.mul(a1, b1)
    c0 = ops.add(v0, ops.adj(v1))
    c1 = ops.sub(ops.mul(ops.add(a0, a1), ops.add(b0, b1)), ops.add(v0, v1))
    return (c0, c1)


# ---------------------------------------------------------------------------
# Degree-2 squaring variants
# ---------------------------------------------------------------------------

def sqr2_schoolbook(ops: StepOps, a):
    """c0 = a0^2 + xi a1^2, c1 = 2 a0 a1."""
    a0, a1 = a
    c0 = ops.add(ops.sqr(a0), ops.adj(ops.sqr(a1)))
    c1 = ops.double(ops.mul(a0, a1))
    return (c0, c1)


def sqr2_complex(ops: StepOps, a):
    """Complex-style squaring: 2 sub-multiplications."""
    a0, a1 = a
    v = ops.mul(a0, a1)
    c0 = ops.sub(ops.mul(ops.add(a0, a1), ops.add(a0, ops.adj(a1))), ops.add(v, ops.adj(v)))
    c1 = ops.double(v)
    return (c0, c1)


def sqr2_karatsuba(ops: StepOps, a):
    """Karatsuba-flavoured squaring: 3 sub-squarings, no multiplication."""
    a0, a1 = a
    v0 = ops.sqr(a0)
    v1 = ops.sqr(a1)
    c0 = ops.add(v0, ops.adj(v1))
    c1 = ops.sub(ops.sqr(ops.add(a0, a1)), ops.add(v0, v1))
    return (c0, c1)


# ---------------------------------------------------------------------------
# Degree-3 multiplication variants
# ---------------------------------------------------------------------------

def mul3_schoolbook(ops: StepOps, a, b):
    """Schoolbook cubic multiplication: 9 sub-multiplications."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = ops.add(ops.mul(a0, b0), ops.adj(ops.add(ops.mul(a1, b2), ops.mul(a2, b1))))
    c1 = ops.add(ops.add(ops.mul(a0, b1), ops.mul(a1, b0)), ops.adj(ops.mul(a2, b2)))
    c2 = ops.add(ops.add(ops.mul(a0, b2), ops.mul(a1, b1)), ops.mul(a2, b0))
    return (c0, c1, c2)


def mul3_karatsuba(ops: StepOps, a, b):
    """Karatsuba-style cubic multiplication: 6 sub-multiplications."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    v0 = ops.mul(a0, b0)
    v1 = ops.mul(a1, b1)
    v2 = ops.mul(a2, b2)
    t12 = ops.sub(ops.mul(ops.add(a1, a2), ops.add(b1, b2)), ops.add(v1, v2))
    t01 = ops.sub(ops.mul(ops.add(a0, a1), ops.add(b0, b1)), ops.add(v0, v1))
    t02 = ops.sub(ops.mul(ops.add(a0, a2), ops.add(b0, b2)), ops.add(v0, v2))
    c0 = ops.add(v0, ops.adj(t12))
    c1 = ops.add(t01, ops.adj(v2))
    c2 = ops.add(t02, v1)
    return (c0, c1, c2)


# ---------------------------------------------------------------------------
# Degree-3 squaring variants
# ---------------------------------------------------------------------------

def sqr3_schoolbook(ops: StepOps, a):
    """Schoolbook cubic squaring: 3 squarings + 3 multiplications."""
    a0, a1, a2 = a
    c0 = ops.add(ops.sqr(a0), ops.adj(ops.double(ops.mul(a1, a2))))
    c1 = ops.add(ops.double(ops.mul(a0, a1)), ops.adj(ops.sqr(a2)))
    c2 = ops.add(ops.double(ops.mul(a0, a2)), ops.sqr(a1))
    return (c0, c1, c2)


def sqr3_ch1(ops: StepOps, a):
    """Chung-Hasan SQR1: schoolbook structure with shared doublings."""
    a0, a1, a2 = a
    d01 = ops.double(ops.mul(a0, a1))
    d02 = ops.double(ops.mul(a0, a2))
    d12 = ops.double(ops.mul(a1, a2))
    c0 = ops.add(ops.sqr(a0), ops.adj(d12))
    c1 = ops.add(d01, ops.adj(ops.sqr(a2)))
    c2 = ops.add(d02, ops.sqr(a1))
    return (c0, c1, c2)


def sqr3_ch2(ops: StepOps, a):
    """Chung-Hasan SQR2: 3 squarings + 2 multiplications."""
    a0, a1, a2 = a
    s0 = ops.sqr(a0)
    s1 = ops.double(ops.mul(a0, a1))
    s2 = ops.sqr(ops.add(ops.sub(a0, a1), a2))
    s3 = ops.double(ops.mul(a1, a2))
    s4 = ops.sqr(a2)
    c0 = ops.add(s0, ops.adj(s3))
    c1 = ops.add(s1, ops.adj(s4))
    c2 = ops.sub(ops.add(ops.add(s1, s2), s3), ops.add(s0, s4))
    return (c0, c1, c2)


def sqr3_ch3(ops: StepOps, a):
    """Chung-Hasan SQR3: 6 squarings, no multiplication."""
    a0, a1, a2 = a
    v0 = ops.sqr(a0)
    v1 = ops.sqr(a1)
    v2 = ops.sqr(a2)
    t12 = ops.sub(ops.sqr(ops.add(a1, a2)), ops.add(v1, v2))
    t01 = ops.sub(ops.sqr(ops.add(a0, a1)), ops.add(v0, v1))
    t02 = ops.sub(ops.sqr(ops.add(a0, a2)), ops.add(v0, v2))
    c0 = ops.add(v0, ops.adj(t12))
    c1 = ops.add(t01, ops.adj(v2))
    c2 = ops.add(t02, v1)
    return (c0, c1, c2)


def sqr3_complex(ops: StepOps, a):
    """Alias of CH-SQR2 under the "Complex" name used in the paper's Table 5."""
    return sqr3_ch2(ops, a)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """One named operator variant for a single extension step."""

    name: str
    op: str            # "mul" or "sqr"
    step_degree: int   # 2 or 3
    func: object = field(repr=False)

    def apply(self, ops: StepOps, *operands):
        return self.func(ops, *operands)

    def cost(self) -> VariantCost:
        """Cost in sub-level operations, obtained by running a counting adapter."""
        counter = CountingStepOps()
        dummy = tuple(0 for _ in range(self.step_degree))
        if self.op == "mul":
            self.func(counter, dummy, dummy)
        else:
            self.func(counter, dummy)
        return VariantCost(
            mul=counter.muls,
            sqr=counter.sqrs,
            add=counter.adds,
            adj=counter.adjs,
            muli=counter.mulis,
        )


def _registry() -> dict:
    variants = [
        Variant("schoolbook", "mul", 2, mul2_schoolbook),
        Variant("karatsuba", "mul", 2, mul2_karatsuba),
        Variant("schoolbook", "sqr", 2, sqr2_schoolbook),
        Variant("complex", "sqr", 2, sqr2_complex),
        Variant("karatsuba", "sqr", 2, sqr2_karatsuba),
        Variant("schoolbook", "mul", 3, mul3_schoolbook),
        Variant("karatsuba", "mul", 3, mul3_karatsuba),
        Variant("schoolbook", "sqr", 3, sqr3_schoolbook),
        Variant("ch-sqr1", "sqr", 3, sqr3_ch1),
        Variant("ch-sqr2", "sqr", 3, sqr3_ch2),
        Variant("ch-sqr3", "sqr", 3, sqr3_ch3),
        Variant("complex", "sqr", 3, sqr3_complex),
    ]
    registry: dict = {}
    for variant in variants:
        registry.setdefault((variant.op, variant.step_degree), {})[variant.name] = variant
    return registry


VARIANT_REGISTRY = _registry()

#: The variant used when a configuration does not name one explicitly.
DEFAULT_VARIANTS = {
    ("mul", 2): "karatsuba",
    ("sqr", 2): "complex",
    ("mul", 3): "karatsuba",
    ("sqr", 3): "ch-sqr2",
}

#: The plain variants used by the "schoolbook everywhere" baseline.
SCHOOLBOOK_VARIANTS = {
    ("mul", 2): "schoolbook",
    ("sqr", 2): "schoolbook",
    ("mul", 3): "schoolbook",
    ("sqr", 3): "schoolbook",
}


def get_variant(op: str, step_degree: int, name: str) -> Variant:
    try:
        return VARIANT_REGISTRY[(op, step_degree)][name]
    except KeyError as exc:
        raise FieldError(f"unknown variant {name!r} for {op} of degree {step_degree}") from exc


def list_variants(op: str | None = None, step_degree: int | None = None) -> list:
    """List registered variants, optionally filtered by op kind and step degree."""
    result = []
    for (kind, degree), named in sorted(VARIANT_REGISTRY.items()):
        if op is not None and kind != op:
            continue
        if step_degree is not None and degree != step_degree:
            continue
        result.extend(named.values())
    return result


class VariantConfig:
    """Selection of operator variants per absolute extension degree.

    The design space of Figure 2 / Figure 10 is spanned by objects of this class:
    a mapping ``(op, absolute_degree) -> variant name``.  Degrees not present fall
    back to ``DEFAULT_VARIANTS`` keyed by the step degree.
    """

    def __init__(self, overrides: dict | None = None, name: str = "custom"):
        self.overrides = dict(overrides or {})
        self.name = name

    # -- constructors matching the paper's named baselines ----------------------
    @classmethod
    def all_karatsuba(cls) -> "VariantConfig":
        """Karatsuba / fast-squaring variants at every level (the conventional choice)."""
        return cls({}, name="all-karatsuba")

    @classmethod
    def all_schoolbook(cls) -> "VariantConfig":
        """Schoolbook variants at every level."""
        config = cls({}, name="all-schoolbook")
        config._fallback = SCHOOLBOOK_VARIANTS
        return config

    @classmethod
    def manual(cls) -> "VariantConfig":
        """The paper's manually-tuned single-issue heuristic.

        Karatsuba is disabled on the lowest extension steps (degree 2 and 4) where
        the extra linear operations hurt a memory-bound single-issue pipeline, and
        kept on the higher levels where it removes many multiplications (Section
        2.2 of the paper).
        """
        overrides = {
            ("mul", 2): "schoolbook",
            ("sqr", 2): "schoolbook",
            ("mul", 4): "schoolbook",
            ("sqr", 4): "schoolbook",
        }
        return cls(overrides, name="manual")

    @classmethod
    def schoolbook_below(cls, degree_threshold: int) -> "VariantConfig":
        """Schoolbook for absolute degrees <= threshold, Karatsuba above.

        This family of configurations reproduces the per-level sweep of Figure 2
        ("karat. w/o p2", "karat. w/o p4", ...).
        """
        overrides = {}
        for deg in (2, 4, 6, 8, 12, 24):
            if deg <= degree_threshold:
                overrides[("mul", deg)] = "schoolbook"
                overrides[("sqr", deg)] = "schoolbook"
        return cls(overrides, name=f"schoolbook<= {degree_threshold}")

    _fallback = DEFAULT_VARIANTS

    # -- lookup ------------------------------------------------------------------
    def variant_for(self, op: str, absolute_degree: int, step_degree: int) -> Variant:
        """Variant to use when lowering an op at a given absolute tower degree."""
        name = self.overrides.get((op, absolute_degree))
        if name is None:
            name = self._fallback.get((op, step_degree), DEFAULT_VARIANTS[(op, step_degree)])
        return get_variant(op, step_degree, name)

    def with_override(self, op: str, absolute_degree: int, name: str) -> "VariantConfig":
        overrides = dict(self.overrides)
        overrides[(op, absolute_degree)] = name
        config = VariantConfig(overrides, name=self.name)
        config._fallback = self._fallback
        return config

    def describe(self) -> dict:
        """A JSON-friendly description (used in DSE reports and cache keys)."""
        return {
            "name": self.name,
            "point_style": "jacobian",    # a retired knob, kept so reports and digests do not move
            "overrides": {f"{op}@{deg}": variant for (op, deg), variant in sorted(self.overrides.items())},
            "fallback": {f"{op}@step{deg}": variant for (op, deg), variant in sorted(self._fallback.items())},
        }

    def cache_key(self) -> tuple:
        return (
            "jacobian",                # the retired point_style knob: pinned digests hash it
            tuple(sorted(self.overrides.items())),
            tuple(sorted(self._fallback.items())),
        )

    def __repr__(self) -> str:
        return f"VariantConfig({self.name!r})"
