"""Number-theory helpers: primality, modular square roots, symbols, recoding."""

from repro.nt.primes import is_probable_prime, next_probable_prime
from repro.nt.recoding import signed_windows
from repro.nt.residues import jacobi_symbol, legendre_symbol, sqrt_mod_prime, is_square_mod_prime

__all__ = [
    "is_probable_prime",
    "next_probable_prime",
    "jacobi_symbol",
    "legendre_symbol",
    "sqrt_mod_prime",
    "is_square_mod_prime",
    "signed_windows",
]
