"""Pluggable fast-F_p backends.

Every :class:`~repro.fields.fp.PrimeField` delegates its ring, inversion and
exponentiation operations to one *backend*: a per-field context object created
once per (backend, modulus) pair and shared by every element of the field.
Three backends ship:

``python``
    The pure-Python big-integer reference (the seed implementation, bit-exact
    by definition).  Always available; the default.

``montgomery``
    Montgomery-form fixed-limb arithmetic: residues are kept in Montgomery
    form (``x * R mod p`` with ``R = 2^(64*s)``) and multiplication/reduction
    run the classic CIOS (Coarsely Integrated Operand Scanning) word loop over
    64-bit limbs with the per-field precomputed ``n' = -p^{-1} mod 2^64`` and
    ``R^2 mod p``.  Conversion in/out of Montgomery form happens lazily -- only
    at ``encode``/``decode`` (i.e. at the tower boundary, when the compiler or
    a caller asks for canonical coefficients) -- so the extension-tower,
    cyclotomic and pairing layers run entirely on Montgomery residues without
    ever knowing it.  This is the software twin of the fixed-limb datapath the
    hardware model simulates, useful as a second bit-exact reference; being
    interpreted Python it is *not* faster than the native-int backend.

``gmpy2``
    GMP-backed ``mpz`` arithmetic, auto-detected at import.  The fast path for
    paper-scale curves (BLS12-381 and friends); an optional extra
    (``pip install .[fast]``), never a hard dependency.

Selection order (first match wins):

1. an explicit ``backend=`` argument (``PrimeField``, ``get_curve``),
2. the process-wide pin set by :func:`configure_fp_backend`,
3. the ``FINESSE_FP_BACKEND`` environment variable,
4. the caller's *hint* (the curve catalog marks paper-scale entries ``fast``),
5. ``python``.

The pseudo-name ``fast`` resolves to ``gmpy2`` when it is installed and
degrades to ``python`` otherwise.  Backends are *representations*, not
semantics: every backend is bit-exact against ``python`` (the test-suite
asserts it on every catalog family), so the backend name never enters the
compile-cache digests -- only benchmark records carry it.
"""

from __future__ import annotations

from repro.config import BACKEND_ENV, env_str
from repro.errors import FieldError

#: Default limb width of the Montgomery backend (bits per CIOS word).
MONTGOMERY_LIMB_BITS = 64


def gmpy2_available() -> bool:
    """``True`` when the optional :mod:`gmpy2` package can be imported."""
    global _GMPY2_AVAILABLE
    if _GMPY2_AVAILABLE is None:
        try:
            import gmpy2  # noqa: F401
            _GMPY2_AVAILABLE = True
        except ImportError:
            _GMPY2_AVAILABLE = False
    return _GMPY2_AVAILABLE


_GMPY2_AVAILABLE: bool | None = None


# ---------------------------------------------------------------------------
# Backend contexts
# ---------------------------------------------------------------------------

class FpOps:
    """Per-field backend context: arithmetic on backend-native representations.

    One instance serves one ``(backend, p)`` pair.  ``encode`` maps a Python
    integer to the backend representation, ``decode`` maps back to the
    canonical integer in ``[0, p)``; everything in between operates on raw
    representations only, which is what makes lazy Montgomery-form residency
    possible.  The base class provides the representation-agnostic linear
    operations (Montgomery form is closed under them).
    """

    __slots__ = ("p",)
    name = "abstract"

    def __init__(self, p: int):
        self.p = p

    # -- conversions -------------------------------------------------------------
    def encode(self, value: int):
        raise NotImplementedError

    def decode(self, raw) -> int:
        raise NotImplementedError

    # -- linear ops (valid for canonical *and* Montgomery residues) ---------------
    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul_small(self, a, k: int):
        """Multiply by a small plain-integer constant (not a field element)."""
        return (a * k) % self.p

    # -- multiplicative ops -------------------------------------------------------
    def mul(self, a, b):
        raise NotImplementedError

    def sqr(self, a):
        return self.mul(a, a)

    def inv(self, a):
        raise NotImplementedError

    def pow_int(self, a, exponent: int):
        raise NotImplementedError

    # -- predicates ---------------------------------------------------------------
    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        raise NotImplementedError


class PythonOps(FpOps):
    """The pure-Python big-integer reference backend (canonical residues)."""

    __slots__ = ()
    name = "python"

    def encode(self, value: int) -> int:
        return value % self.p

    def decode(self, raw) -> int:
        return raw

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def pow_int(self, a, exponent: int):
        return pow(a, exponent, self.p)

    def is_one(self, a) -> bool:
        return a == 1


class MontgomeryOps(FpOps):
    """Montgomery-form fixed-limb backend (CIOS multiply/reduce).

    Residues are stored as Python integers *in Montgomery form*
    (``raw = x * R mod p``); the multiplier materialises the fixed 64-bit limb
    vectors on entry and runs the word-by-word CIOS loop, exactly as a
    fixed-width hardware datapath would.  Addition, subtraction and negation
    act on Montgomery residues unchanged (the form is linear), so elements
    stay in Montgomery form across the whole tower and convert back only at
    ``decode`` -- the lazy tower-boundary conversion the paper-scale refactor
    requires.
    """

    __slots__ = ("limb_bits", "limb_mask", "n_limbs", "p_limbs", "n0", "r1", "r2")
    name = "montgomery"

    def __init__(self, p: int, limb_bits: int = MONTGOMERY_LIMB_BITS):
        super().__init__(p)
        self.limb_bits = limb_bits
        self.limb_mask = (1 << limb_bits) - 1
        self.n_limbs = max(1, -(-p.bit_length() // limb_bits))
        self.p_limbs = tuple(
            (p >> (limb_bits * i)) & self.limb_mask for i in range(self.n_limbs)
        )
        word = 1 << limb_bits
        self.n0 = (-pow(p, -1, word)) % word          # n' = -p^{-1} mod 2^W
        r = 1 << (limb_bits * self.n_limbs)
        self.r1 = r % p                               # R mod p  == encode(1)
        self.r2 = (r * r) % p                         # R^2 mod p (encode constant)

    # -- CIOS multiply/reduce -----------------------------------------------------
    def _mont_mul(self, a: int, b: int) -> int:
        """CIOS Montgomery product ``a * b * R^-1 mod p`` over fixed limbs."""
        width = self.limb_bits
        mask = self.limb_mask
        s = self.n_limbs
        p_limbs = self.p_limbs
        n0 = self.n0
        a_limbs = [(a >> (width * j)) & mask for j in range(s)]
        t = [0] * (s + 2)
        for i in range(s):
            b_i = (b >> (width * i)) & mask
            carry = 0
            for j in range(s):
                acc = t[j] + a_limbs[j] * b_i + carry
                t[j] = acc & mask
                carry = acc >> width
            acc = t[s] + carry
            t[s] = acc & mask
            t[s + 1] = acc >> width
            m = (t[0] * n0) & mask
            acc = t[0] + m * p_limbs[0]
            carry = acc >> width
            for j in range(1, s):
                acc = t[j] + m * p_limbs[j] + carry
                t[j - 1] = acc & mask
                carry = acc >> width
            acc = t[s] + carry
            t[s - 1] = acc & mask
            t[s] = t[s + 1] + (acc >> width)
            t[s + 1] = 0
        result = t[s]
        for j in range(s - 1, -1, -1):
            result = (result << width) | t[j]
        if result >= self.p:
            result -= self.p
        return result

    # -- conversions --------------------------------------------------------------
    def encode(self, value: int) -> int:
        return self._mont_mul(value % self.p, self.r2)

    def decode(self, raw) -> int:
        return self._mont_mul(raw, 1)

    # -- multiplicative ops -------------------------------------------------------
    def mul(self, a, b):
        return self._mont_mul(a, b)

    def inv(self, a):
        # x^-1 via the canonical domain; re-encoding restores Montgomery form.
        return self.encode(pow(self.decode(a), -1, self.p))

    def pow_int(self, a, exponent: int):
        result = self.r1
        if exponent == 0:
            return result
        mont_mul = self._mont_mul
        for bit in bin(exponent)[2:]:
            result = mont_mul(result, result)
            if bit == "1":
                result = mont_mul(result, a)
        return result

    def is_one(self, a) -> bool:
        return a == self.r1


class Gmpy2Ops(FpOps):
    """GMP-backed ``mpz`` backend (canonical residues, native big-int kernels)."""

    __slots__ = ("_gmpy2", "_mpz")
    name = "gmpy2"

    def __init__(self, p: int):
        import gmpy2

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        super().__init__(p)
        self.p = gmpy2.mpz(p)

    def encode(self, value: int):
        return self._mpz(value) % self.p

    def decode(self, raw) -> int:
        return int(raw)

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return self._gmpy2.invert(a, self.p)

    def pow_int(self, a, exponent: int):
        return self._gmpy2.powmod(a, exponent, self.p)

    def is_one(self, a) -> bool:
        return a == 1


# ---------------------------------------------------------------------------
# Registry, selection and configuration
# ---------------------------------------------------------------------------

_BACKENDS = {
    "python": PythonOps,
    "montgomery": MontgomeryOps,
    "gmpy2": Gmpy2Ops,
}

#: Explicit process-wide pin (``configure_fp_backend``); ``None`` = follow env.
_CONFIGURED: str | None = None

#: Context memo: one :class:`FpOps` per (backend name, modulus).
_OPS_CACHE: dict = {}


def available_backends() -> list:
    """Names of the backends usable in this process (auto-detects gmpy2)."""
    names = ["python", "montgomery"]
    if gmpy2_available():
        names.append("gmpy2")
    return names


def normalise_backend(name: str) -> str:
    """Validate a backend name; resolve the ``fast`` pseudo-backend."""
    key = str(name).strip().lower()
    if key == "fast":
        return "gmpy2" if gmpy2_available() else "python"
    if key not in _BACKENDS:
        raise FieldError(
            f"unknown Fp backend {name!r}; known: {sorted(_BACKENDS)} (+ 'fast')"
        )
    if key == "gmpy2" and not gmpy2_available():
        raise FieldError(
            "the 'gmpy2' Fp backend was requested but gmpy2 is not installed; "
            "install the optional extra (pip install .[fast]) or pick "
            "'python'/'montgomery'/'fast'"
        )
    return key


def configure_fp_backend(name: str | None) -> str:
    """Pin the process-wide default backend (mirrors ``configure_store``).

    Passing ``None`` drops the pin so selection follows ``FINESSE_FP_BACKEND``
    again.  Returns the active default after the change.  Fields constructed
    *before* the call keep their backend: the pin affects new ``PrimeField``
    (and therefore new ``get_curve``) constructions only.
    """
    global _CONFIGURED
    _CONFIGURED = None if name is None else normalise_backend(name)
    return active_fp_backend()


def active_fp_backend() -> str:
    """The backend a plain ``PrimeField(p)`` would get right now."""
    return resolve_backend()


def resolve_backend(explicit: str | None = None, hint: str | None = None) -> str:
    """Resolve a backend name: explicit arg > pin > env var > hint > python."""
    if explicit is not None:
        return normalise_backend(explicit)
    if _CONFIGURED is not None:
        return _CONFIGURED
    env = env_str(BACKEND_ENV)
    if env:
        return normalise_backend(env)
    if hint is not None:
        return normalise_backend(hint)
    return "python"


def get_ops(name: str, p: int) -> FpOps:
    """The (memoised) backend context for modulus ``p``."""
    key = (name, p)
    ops = _OPS_CACHE.get(key)
    if ops is None:
        ops = _OPS_CACHE[key] = _BACKENDS[name](p)
    return ops
