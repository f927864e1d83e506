"""Catalog of pairing curves (Table 2) and full curve instantiation.

``get_curve(name)`` assembles everything a pairing (and the compiler) needs:
the field tower, the base curve and its correct sextic twist, validated G1/G2
generators, Frobenius-twist constants and the final-exponentiation plan.
Instantiation is deterministic and cached per process.

Seeds: well-known published seeds are used where applicable (BN254N, BN254S,
BN462, BLS12-381, BLS12-446); the remaining Table 2 entries and the small "toy"
test curves were re-derived with :mod:`repro.curves.search` so that every entry
is validated locally (primality, bit-widths, subgroup orders) at load time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.curves.families import CurveFamily, FamilyParams, get_family
from repro.curves.model import AffinePoint, EllipticCurve
from repro.curves.orders import sextic_twist_orders
from repro.curves.security import estimate_security_bits
from repro.errors import CurveError
from repro.fields.backends import resolve_backend
from repro.fields.tower import PairingTower, build_pairing_tower


@dataclass(frozen=True)
class CurveSpec:
    """A catalog entry: family name, seed and provenance of the seed.

    ``fp_backend`` is the entry's *default* F_p arithmetic backend hint
    (see :mod:`repro.fields.backends`): the paper-scale curves default to
    ``fast`` (gmpy2 when installed) so they are benchmarkable, the toy test
    curves to the pure-Python reference.  The ``FINESSE_FP_BACKEND``
    environment variable overrides the hint for a whole process; an explicit
    ``get_curve(..., fp_backend=...)`` argument overrides everything.
    """

    name: str
    family: str
    u: int
    seed_origin: str
    toy: bool = False
    fp_backend: str | None = None


#: The seven curves of Table 2 plus extra aliases and small test curves.
CURVE_SPECS = {
    "BN254N": CurveSpec("BN254N", "BN", -(2**62 + 2**55 + 1), "published (Nogami et al.)",
                        fp_backend="fast"),
    "BN254S": CurveSpec("BN254S", "BN", 4965661367192848881, "published (SNARK / Ethereum BN254)",
                        fp_backend="fast"),
    "BN462": CurveSpec("BN462", "BN", 2**114 + 2**101 - 2**14 - 1, "published (ISO / Barbulescu-Duquesne)",
                       fp_backend="fast"),
    "BN638": CurveSpec("BN638", "BN", 2**158 - 2**133 + 2**56, "derived with repro.curves.search",
                       fp_backend="fast"),
    "BLS12-381": CurveSpec(
        "BLS12-381", "BLS12", -(2**63 + 2**62 + 2**60 + 2**57 + 2**48 + 2**16), "published (Zcash)",
        fp_backend="fast",
    ),
    "BLS12-446": CurveSpec(
        "BLS12-446", "BLS12", -(2**74 + 2**73 + 2**63 + 2**57 + 2**50 + 2**17 + 1),
        "published (Barbulescu-Duquesne)", fp_backend="fast",
    ),
    "BLS12-638": CurveSpec(
        "BLS12-638", "BLS12", 2**106 + 2**105 - 2**84 - 2**22, "derived with repro.curves.search",
        fp_backend="fast",
    ),
    "BLS24-509": CurveSpec(
        "BLS24-509", "BLS24", 2**51 - 2**45 + 2**39 + 2**15, "derived with repro.curves.search",
        fp_backend="fast",
    ),
    # Small curves for fast end-to-end testing of the full pipeline.
    "TOY-BN42": CurveSpec("TOY-BN42", "BN", 543, "derived with repro.curves.search", toy=True),
    "TOY-BLS12-54": CurveSpec("TOY-BLS12-54", "BLS12", 559, "derived with repro.curves.search", toy=True),
    "TOY-BLS24-79": CurveSpec("TOY-BLS24-79", "BLS24", 259, "derived with repro.curves.search", toy=True),
}

#: The curves evaluated by the paper (Figure 8 / Table 7 order).
PAPER_CURVES = ("BN254N", "BN462", "BN638", "BLS12-381", "BLS12-446", "BLS12-638", "BLS24-509")


@dataclass
class PairingCurve:
    """A fully-instantiated pairing-friendly curve."""

    name: str
    family: CurveFamily
    params: FamilyParams
    tower: PairingTower
    curve: EllipticCurve            # E / F_p
    twist_curve: EllipticCurve      # E' / F_p^{k/6}
    twist_type: str                 # "D" or "M"
    cofactor_g1: int
    cofactor_g2: int
    g1_generator: AffinePoint
    g2_generator: AffinePoint
    final_exp_plan: object
    security_bits: int
    seed_origin: str
    #: The endomorphism phi(x, y) = (beta x, y) of E acts on G1 as [lambda]:
    #: beta is a primitive cube root of unity in F_p, lambda the root of
    #: x^2 + x + 1 mod r paired with it (checked on the generator at load).
    endo_beta: int
    endo_lambda: int
    toy: bool = False
    _frob_consts: dict = field(default_factory=dict, repr=False)
    #: Compiled pairing formulas; filled and keyed by
    #: :meth:`repro.pairing.context.ConcretePairingContext.run_formula`.
    formula_kernels: dict = field(default_factory=dict, repr=False, compare=False)

    # -- convenience accessors -------------------------------------------------
    @property
    def p(self) -> int:
        return self.params.p

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def u(self) -> int:
        return self.params.u

    @property
    def fp_backend(self) -> str:
        """Name of the F_p arithmetic backend this instance's tower runs on."""
        return self.tower.fp_backend

    def describe(self) -> dict:
        """Table 2 style description."""
        return {
            "name": self.name,
            "family": self.family.name,
            "log_u": abs(self.params.u).bit_length(),
            "log_p": self.params.p.bit_length(),
            "log_r": self.params.r.bit_length(),
            "k": self.params.k,
            "k_log_p": self.params.k * self.params.p.bit_length(),
            "security_bits": self.security_bits,
            "twist_type": self.twist_type,
            "seed_origin": self.seed_origin,
        }

    # -- group sampling -----------------------------------------------------------
    def random_g1(self, rng: random.Random) -> AffinePoint:
        scalar = rng.randrange(1, self.params.r)
        return self.g1_generator.scalar_mul(scalar)

    def random_g2(self, rng: random.Random) -> AffinePoint:
        scalar = rng.randrange(1, self.params.r)
        return self.g2_generator.scalar_mul(scalar)

    def is_in_g1(self, point: AffinePoint) -> bool:
        return point.is_on_curve() and point.scalar_mul(self.params.r).is_infinity()

    def is_in_g2(self, point: AffinePoint) -> bool:
        return point.is_on_curve() and point.scalar_mul(self.params.r).is_infinity()

    # -- pairing helpers ------------------------------------------------------------
    def gt_one(self):
        return self.tower.full_field.one()

    def is_valid_gt(self, value) -> bool:
        """Membership test for G_T (r-th roots of unity in F_p^k)."""
        return (value ** self.params.r).is_one() and not value.is_zero()

    def twist_frobenius_constants(self, n: int):
        """Constants (c_x, c_y) of the twisted Frobenius endomorphism psi^-1 pi^n psi."""
        if n not in self._frob_consts:
            xi = self.tower.twist_xi
            p = self.params.p
            exp_x = (p**n - 1) // 3
            exp_y = (p**n - 1) // 2
            c_x = xi ** exp_x
            c_y = xi ** exp_y
            if self.twist_type == "M":
                c_x = c_x.inverse()
                c_y = c_y.inverse()
            self._frob_consts[n] = (c_x, c_y)
        return self._frob_consts[n]


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------

def _find_curve_b(fp_field, params: FamilyParams, rng: random.Random) -> tuple:
    """Find the smallest b such that E: y^2 = x^3 + b has order h1 * r, plus a generator."""
    h1 = params.cofactor_g1
    for b in range(1, 64):
        curve = EllipticCurve(fp_field, 0, b, name="E")
        generator = None
        consistent = True
        for _ in range(2):
            point = curve.random_point(rng)
            candidate = point.scalar_mul(h1)
            if candidate.is_infinity():
                continue
            if not candidate.scalar_mul(params.r).is_infinity():
                consistent = False
                break
            generator = candidate
        if consistent and generator is not None:
            return curve, generator
    raise CurveError("could not find a curve coefficient b with the correct order")


def _cube_root_of_unity(q: int) -> int:
    """The primitive cube root of unity mod the prime ``q`` that the bases
    2, 3, ... reach first (``q`` must be 1 mod 3)."""
    if q % 3 != 1:
        raise CurveError(f"{q} is not 1 mod 3, so it has no primitive cube root of unity")
    exponent = (q - 1) // 3
    return next(root for root in (pow(base, exponent, q) for base in range(2, q)) if root != 1)


def _endomorphism(curve: EllipticCurve, generator: AffinePoint, params: FamilyParams) -> tuple:
    """``(beta, lambda)`` with phi(x, y) = (beta x, y) = [lambda] on G1.

    phi acts on the order-r subgroup as one of the two roots of
    x^2 + x + 1 mod r; one multiplication of the generator tells which,
    because [lambda^2] G = -G - [lambda] G.
    """
    beta = _cube_root_of_unity(params.p)
    lam = _cube_root_of_unity(params.r)
    image = AffinePoint(curve, generator.x * curve.field(beta), generator.y)
    multiple = generator.scalar_mul(lam)
    if image != multiple:
        if image != -(generator + multiple):
            raise CurveError("phi(x, y) = (beta x, y) maps the G1 generator to neither "
                             "[lambda] G nor [lambda^2] G")
        lam = params.r - 1 - lam
    return beta, lam


def _find_twist(tower: PairingTower, params: FamilyParams, b: int, rng: random.Random) -> tuple:
    """Select the correct sextic twist (D or M type) and a G2 generator."""
    twist_field = tower.twist_field
    xi = tower.twist_xi
    n = params.k // 6
    order_candidates = sextic_twist_orders(params.p, params.t, n)
    b_full = twist_field(b)

    for twist_type, b_twist in (("D", b_full * xi.inverse()), ("M", b_full * xi)):
        curve = EllipticCurve(twist_field, twist_field(0), b_twist, name=f"E'({twist_type})")
        for order in order_candidates:
            if order % params.r != 0:
                continue
            cofactor = order // params.r
            point = curve.random_point(rng)
            candidate = point.scalar_mul(cofactor)
            if candidate.is_infinity():
                point = curve.random_point(rng)
                candidate = point.scalar_mul(cofactor)
                if candidate.is_infinity():
                    continue
            if candidate.scalar_mul(params.r).is_infinity():
                return curve, twist_type, cofactor, candidate
    raise CurveError("could not identify the correct sextic twist")


def build_curve(spec: CurveSpec, fp_backend: str | None = None) -> PairingCurve:
    """Instantiate a catalog entry (deterministic; moderately expensive).

    ``fp_backend`` names the resolved F_p backend for the curve's whole field
    tower; ``None`` falls back to the spec's hint / the process default.  The
    backend changes the arithmetic *representation* only -- generators, twist
    selection and every derived constant are bit-identical across backends
    because the construction RNG is seeded from the modulus alone and field
    semantics are backend-invariant.
    """
    family = get_family(spec.family)
    if spec.u is None:
        raise CurveError(
            f"curve {spec.name} has no seed registered; run repro.curves.search and "
            "update CURVE_SPECS"
        )
    params = family.instantiate(spec.u)
    if fp_backend is None:
        fp_backend = resolve_backend(hint=spec.fp_backend)
    tower = build_pairing_tower(params.p, params.k, fp_backend=fp_backend)
    rng = random.Random(0xF1E55E ^ (params.p & 0xFFFFFFFF))

    # Imported lazily to avoid a circular import through repro.pairing.
    from repro.pairing.exponent import solve_final_exp_plan

    curve, g1 = _find_curve_b(tower.fp, params, rng)
    twist_curve, twist_type, cofactor_g2, g2 = _find_twist(tower, params, int(curve.b.value), rng)
    beta, lam = _endomorphism(curve, g1, params)
    plan = solve_final_exp_plan(family, params)
    security = estimate_security_bits(family.name, params.k, params.p, params.r)

    return PairingCurve(
        name=spec.name,
        family=family,
        params=params,
        tower=tower,
        curve=curve,
        twist_curve=twist_curve,
        twist_type=twist_type,
        cofactor_g1=params.cofactor_g1,
        cofactor_g2=cofactor_g2,
        g1_generator=g1,
        g2_generator=g2,
        final_exp_plan=plan,
        security_bits=security,
        seed_origin=spec.seed_origin,
        endo_beta=beta,
        endo_lambda=lam,
        toy=spec.toy,
    )


_CURVE_CACHE: dict = {}


def get_curve(name: str, fp_backend: str | None = None) -> PairingCurve:
    """Return the named curve, building and caching it on first use.

    ``fp_backend`` overrides the F_p arithmetic backend for this curve
    (resolution order: this argument, then the ``FINESSE_FP_BACKEND``
    environment variable, then the catalog entry's own
    hint -- paper-scale curves default to the ``fast`` backend).  Curves are
    cached per (name, resolved backend): the same name under two backends
    yields two independent instances with bit-identical parameters.
    """
    key = name.upper()
    aliases = {"BN254": "BN254N"}
    key = aliases.get(key, key)
    spec = CURVE_SPECS.get(key)
    if spec is None:
        raise CurveError(f"unknown curve {name!r}; known: {sorted(CURVE_SPECS)}")
    backend = resolve_backend(explicit=fp_backend, hint=spec.fp_backend)
    cache_key = (key, backend)
    if cache_key not in _CURVE_CACHE:
        _CURVE_CACHE[cache_key] = build_curve(spec, fp_backend=backend)
    return _CURVE_CACHE[cache_key]


def list_curves(include_toy: bool = True) -> list:
    """Names of all catalog curves."""
    return [
        spec.name
        for spec in CURVE_SPECS.values()
        if include_toy or not spec.toy
    ]
