"""Primality testing.

A deterministic Miller-Rabin variant is used for small inputs and a strong
probabilistic test (fixed witnesses + random witnesses) for cryptographic sizes.
The curve-parameter search in :mod:`repro.curves.search` relies on these tests.
"""

from __future__ import annotations

import random

# Witnesses that make Miller-Rabin deterministic for n < 3.3 * 10^24.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
    239, 241, 251,
)

# Random witnesses tried above the deterministic range.
_RANDOM_ROUNDS = 16


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """Return ``True`` if ``n`` passes one Miller-Rabin round with witness ``a``."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Return ``True`` if ``n`` is (very probably) prime.

    For ``n`` below 3.3e24 the answer is deterministic.  Above that, fixed
    witnesses are complemented by 16 witnesses drawn from a generator seeded
    by ``n``, so the answer is reproducible; the error probability is below
    ``4**-16``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    for a in _SMALL_WITNESSES:
        if not _miller_rabin_round(n, a, d, s):
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True

    rng = random.Random(0xF1E55E ^ (n & 0xFFFFFFFF))
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 2)
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


def next_probable_prime(n: int) -> int:
    """Return the smallest probable prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate
