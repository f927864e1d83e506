"""Group orders of curves over extension fields and of their sextic twists.

The machinery uses the standard trace recurrences:

* ``t_1 = t``, ``t_{n+1} = t * t_n - p * t_{n-1}`` with ``t_0 = 2`` gives the
  Frobenius trace over F_{p^n}; the curve order over F_{p^n} is ``p^n + 1 - t_n``.
* For j = 0 curves (CM discriminant -3), ``t_n^2 - 4 p^n = -3 y_n^2`` for an
  integer ``y_n``, and the two sextic twists have orders
  ``p^n + 1 - (t_n +- 3 y_n) / 2``.

The correct twist (the one whose order is divisible by r) is selected by trial
scalar multiplication in :mod:`repro.curves.catalog`.
"""

from __future__ import annotations

from math import isqrt

from repro.errors import CurveError


def frobenius_trace(t: int, p: int, n: int) -> int:
    """Trace of Frobenius of E over F_{p^n} given the trace ``t`` over F_p."""
    if n < 1:
        raise CurveError("extension degree must be >= 1")
    prev, curr = 2, t
    for _ in range(n - 1):
        prev, curr = curr, t * curr - p * prev
    return curr


def curve_order(p: int, t: int, n: int = 1) -> int:
    """Order of E(F_{p^n})."""
    return p**n + 1 - frobenius_trace(t, p, n)


def cm_y(p: int, t: int, n: int = 1) -> int:
    """The integer y with t_n^2 - 4 p^n = -3 y^2 (CM discriminant -3 curves)."""
    tn = frobenius_trace(t, p, n)
    value = 4 * p**n - tn * tn
    if value < 0 or value % 3 != 0:
        raise CurveError("curve does not have CM discriminant -3")
    y = isqrt(value // 3)
    if 3 * y * y != value:
        raise CurveError("curve does not have CM discriminant -3 (non-square)")
    return y


def sextic_twist_orders(p: int, t: int, n: int) -> tuple:
    """The two possible orders of a sextic twist of E over F_{p^n}."""
    tn = frobenius_trace(t, p, n)
    yn = cm_y(p, t, n)
    first = p**n + 1 - (tn + 3 * yn) // 2
    second = p**n + 1 - (tn - 3 * yn) // 2
    if (tn + 3 * yn) % 2 != 0:
        raise CurveError("twist trace is not an integer")
    return first, second
