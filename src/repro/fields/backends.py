"""F_p residue types and their selection.

Every :class:`~repro.fields.fp.FpElement` holds the *canonical* residue in
``[0, p)`` and does its arithmetic inline (``(a + b) % m``, ``pow(a, -1, m)``
...).  A backend is only the integer type those expressions run on:

``python``
    Python's built-in big integers.  Always available; the default.

``gmpy2``
    GMP-backed ``mpz`` residues, auto-detected at import.  The fast path for
    paper-scale curves (BLS12-381 and friends); an optional extra
    (``pip install .[fast]``), never a hard dependency.

Selection order (first match wins):

1. an explicit ``backend=`` argument (``PrimeField``, ``get_curve``),
2. the ``FINESSE_FP_BACKEND`` environment variable,
3. the caller's *hint* (the curve catalog marks paper-scale entries ``fast``),
4. ``python``.

The pseudo-name ``fast`` resolves to ``gmpy2`` when it is installed and
degrades to ``python`` otherwise.  Both types run the same expressions on the
same residues, so the backend name never enters the compile-cache digests --
only benchmark records carry it.
"""

from __future__ import annotations

from repro.config import BACKEND_ENV, env_str
from repro.errors import FieldError

_BACKENDS = ("python", "gmpy2")


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


def available_backends() -> list:
    """Names of the backends usable in this process (auto-detects gmpy2)."""
    return [name for name in _BACKENDS if name != "gmpy2" or gmpy2_available()]


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
            "'python'/'fast'"
        )
    return key


def active_fp_backend() -> str:
    """The backend a plain ``PrimeField(p)`` would get right now."""
    return resolve_backend()


def resolve_backend(explicit: str | None = None, hint: str | None = None) -> str:
    """Resolve a backend name: explicit arg > env var > hint > python."""
    if explicit is not None:
        return normalise_backend(explicit)
    env = env_str(BACKEND_ENV)
    if env:
        return normalise_backend(env)
    if hint is not None:
        return normalise_backend(hint)
    return "python"
