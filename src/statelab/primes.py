"""Exact primality below 2^64 and small number-theoretic searches.

The membership oracle for the primes language calls is_prime on the
integer value of a binary word, so it has to be fast and exact. Values
below 2^16 are looked up in a byte table that `sieve` builds once at
import (64 KB). Larger values first go through one gcd with the product
of the twelve primes up to 37, then through the Miller-Rabin test with
fixed witness sets, which is a proven deterministic test below 2^64; the
thresholds used are the classical ones, so smaller inputs get away with
fewer witness rounds.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Optional

from .errors import StatelabError, UnsupportedError

TWO_64 = 1 << 64

# (bound, witnesses): the witness set decides primality exactly for all
# n < bound. The final set covers everything below 2^64.
_MR_LADDER = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (TWO_64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

# every prime up to 37; one gcd with their product tests them all
_SMALL_PRIMES_PRODUCT = prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if not isinstance(n, int):
        raise StatelabError(f"primality is defined for integers, not {n!r}")
    if n < _TABLE_SIZE:
        if n < 0:
            raise StatelabError("primality is defined for naturals")
        return _TABLE[n] == 1
    if n >= TWO_64:
        raise UnsupportedError(f"{n} >= 2^64; witness set not exact there")
    # n is above every small prime, so any common factor makes it composite
    if gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, witnesses in _MR_LADDER:
        if n < bound:
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit: int) -> bytearray:
    """Byte table t with t[k] = 1 iff k is prime, for 0 <= k <= limit."""
    if not isinstance(limit, int) or limit < 0:
        raise StatelabError(f"sieve limit must be an integer >= 0, not {limit!r}")
    table = bytearray([1]) * (limit + 1)
    for k in (0, 1):
        if k <= limit:
            table[k] = 0
    for p in range(2, int(limit**0.5) + 1):
        if table[p]:
            table[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return table


# primality of every n below the table size, read by is_prime
_TABLE_SIZE = 1 << 16
_TABLE = sieve(_TABLE_SIZE - 1)


def find_isolated_prime(a: int, n_bits: int, limit: int) -> Optional[int]:
    """Smallest k in [1, limit] making p = a + 2^n * k an isolated prime.

    Isolated means p is the only prime in the closed interval
    [p - 2^n, p + 2^n]. a must be odd and below 2^n. Returns None when
    the search range is exhausted (limit = 0 searches nothing).
    """
    if n_bits < 0:
        raise StatelabError(f"n = {n_bits} is negative")
    if a < 1 or a % 2 == 0:
        raise StatelabError(f"a = {a} is not a positive odd residue")
    step = 1 << n_bits
    if a >= step:
        raise StatelabError(f"a = {a} is not below 2^{n_bits}")
    for k in range(1, limit + 1):
        p = a + step * k
        if is_prime(p) and _isolated(p, step):
            return k
    return None


def _isolated(p: int, radius: int) -> bool:
    """No prime other than p in [p - radius, p + radius]."""
    lo, hi = p - radius, p + radius
    if lo <= 2 <= hi and p != 2:
        return False
    # 2 is the only even prime, so the odd q are all that is left to test
    for q in range(max(lo, 3) | 1, hi + 1, 2):
        if q != p and is_prime(q):
            return False
    return True
