"""Exact primality below 2^64 and small number-theoretic searches.

Values below 2^16 are looked up in a byte table that `sieve` builds
once at import (64 KB); the membership oracle for the primes language
reads that table itself and calls is_prime only above it. Larger values
first go through one gcd with the product of the twelve primes up to
37, then through the Miller-Rabin test with those twelve primes as
witnesses, which is a proven deterministic test below 2^64.
The isolated-prime search does not call is_prime: it sieves its range
segment by segment, once for all the residues it is asked about.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod
from typing import Dict, Optional

from .errors import StatelabError, UnsupportedError

TWO_64 = 1 << 64

# every prime up to 37, tested as divisors by one gcd with their product;
# as Miller-Rabin witnesses they decide every n below 318665857834031151167461
# (the smallest strong pseudoprime to all twelve), far above 2^64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES_PRODUCT = prod(_SMALL_PRIMES)


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
    for a in _SMALL_PRIMES:
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
    # below 4 there is nothing to strike out
    return _segment(0, limit, sieve(isqrt(limit)) if limit >= 4 else b"")


# bytes per sieved segment of the isolated-prime search
_SEGMENT_BYTES = 1 << 17
# above this shift one window [p - 2^n, p + 2^n] outgrows a segment
_MAX_ISOLATION_BITS = 16


def find_isolated_prime(a: int, n_bits: int, limit: int) -> Optional[int]:
    """Smallest k in [1, limit] making p = a + 2^n * k an isolated prime.

    Isolated means p is the only prime in the closed interval
    [p - 2^n, p + 2^n]. a must be odd and below 2^n, and n at most 16.
    Returns None when the search range is exhausted (limit = 0 searches
    nothing); a search that would read a number at or above 2^64 is
    refused. This is the one-residue view of `find_isolated_primes`: the
    same search, stopped as soon as a has its k.
    """
    step = _window(n_bits)
    if a < 1 or a % 2 == 0:
        raise StatelabError(f"a = {a} is not a positive odd residue")
    if a >= step:
        raise StatelabError(f"a = {a} is not below 2^{n_bits}")
    return _isolated(step, limit, (a,))[a]


def find_isolated_primes(n_bits: int, limit: int) -> Dict[int, Optional[int]]:
    """`find_isolated_prime(a, n_bits, limit)` for every odd a below 2^n.

    Maps each odd residue, in increasing order, to its k or None, from
    one search: the range is sieved once for all residues, and only as
    far as the last residue still without an isolated prime needs.
    """
    step = _window(n_bits)
    return _isolated(step, limit, range(1, step, 2))


def _window(n_bits: int) -> int:
    """2^n, the isolation radius, for a valid shift n."""
    if n_bits < 0:
        raise StatelabError(f"n = {n_bits} is negative")
    if n_bits > _MAX_ISOLATION_BITS:
        raise UnsupportedError(
            f"n = {n_bits} is above {_MAX_ISOLATION_BITS}; a window of "
            f"2^(n+1) numbers would not fit in one sieved segment"
        )
    return 1 << n_bits


def _isolated(step: int, limit: int, residues) -> Dict[int, Optional[int]]:
    """The isolated-prime search over the odd `residues` below step = 2^n.

    The range is sieved one segment at a time: a segment holds a run of
    consecutive k together with their windows, so no window straddles
    two segments and the memory used is about _SEGMENT_BYTES whatever
    the limit. An isolated prime is a 1 between two runs of 2^n zeros
    in the segment's table, found by one substring search.
    """
    found: Dict[int, Optional[int]] = dict.fromkeys(residues)
    missing = set(found)
    per_segment = max(1, _SEGMENT_BYTES // step - 2)
    # the window of k ends at a + 2^n * (k + 1), which must stay below 2^64
    last = min(limit, (TWO_64 - 1 - max(found, default=0)) // step - 1)
    end = step * (last + 2) - 1
    lonely = bytes(step) + b"\1" + bytes(step)
    base = _TABLE
    k0 = 1
    while k0 <= last and missing:
        k1 = min(last, k0 + per_segment - 1)
        lo, hi = step * (k0 - 1), step * (k1 + 2) - 1
        if isqrt(hi) >= len(base):
            # base primes grow with the search, not its limit: up to the root of
            # a number 16 times further on (or of the end), a few sieves a search
            base = sieve(min(4 * isqrt(hi), isqrt(end)))
        table = _segment(lo, hi, base)
        # a match at i puts p = lo + i + 2^n, with k = p // 2^n in [k0, k1]
        i = table.find(lonely)
        while i != -1:
            k, a = divmod(lo + i + step, step)
            if a in missing:
                found[a] = k
                missing.discard(a)
                if not missing:
                    break
            i = table.find(lonely, i + 1)
        k0 = k1 + 1
    if missing and last < limit:
        raise UnsupportedError(
            f"the window of k = {last + 1} reaches 2^64; primality is not exact there"
        )
    return found


def _segment(lo: int, hi: int, base: bytes) -> bytearray:
    """Byte table t with t[i] = 1 iff lo + i is prime, for 0 <= lo <= hi.

    `base` is a prime table (as from `sieve`) that reaches isqrt(hi).
    """
    table = bytearray([1]) * (hi - lo + 1)
    for k in range(lo, min(hi, 1) + 1):  # 0 and 1
        table[k - lo] = 0
    size = len(table)
    for q in compress(range(isqrt(hi) + 1), base):
        # multiples below q*q have a smaller prime factor
        start = max(q * q, -(-lo // q) * q) - lo
        table[start::q] = bytes(len(range(start, size, q)))
    return table


# primality of every n below the table size, read by is_prime
_TABLE_SIZE = 1 << 16
_TABLE = sieve(_TABLE_SIZE - 1)
