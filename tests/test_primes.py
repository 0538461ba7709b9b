from math import isqrt

import pytest

from statelab import (
    StatelabError,
    UnsupportedError,
    find_isolated_prime,
    find_isolated_primes,
    is_prime,
    primes,
    sieve,
)


def test_small_values():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(97)
    assert not is_prime(1001)


def test_negative_input_is_an_error():
    with pytest.raises(StatelabError):
        is_prime(-7)


@pytest.mark.parametrize("value", [7.0, 9.0, 7.5, "7", None])
def test_non_integer_input_is_an_error(value):
    with pytest.raises(StatelabError):
        is_prime(value)


def test_carmichael_numbers_are_composite():
    for n in (561, 1105, 1729, 2465, 6601):
        assert not is_prime(n)


# the smallest strong pseudoprimes to the first 2, 3, 4, 5, 6, 8 and 11
# primes: each passes those Miller-Rabin witnesses, and the last one is
# caught only by the twelfth, 37
@pytest.mark.parametrize("n", [
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_large_values_below_the_supported_ceiling():
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_values_at_and_above_two_to_the_64_are_refused():
    with pytest.raises(UnsupportedError):
        is_prime(2**64)
    with pytest.raises(UnsupportedError):
        is_prime(2**64 + 13)


def test_sieve_edges():
    assert list(sieve(0)) == [0]
    assert list(sieve(1)) == [0, 0]
    assert list(sieve(2)) == [0, 0, 1]
    flagged = [k for k, flag in enumerate(sieve(30)) if flag]
    assert flagged == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def plain_sieve(limit):
    """Sieve of Eratosthenes over a list of flags, one multiple at a time."""
    flags = [k >= 2 for k in range(limit + 1)]
    for p in range(2, limit + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return bytearray(flags)


def test_sieve_equals_a_plain_sieve():
    # a prefix of a sieve is the sieve of the shorter limit
    want = plain_sieve((1 << 16) - 1)
    for limit in [*range(2001), (1 << 16) - 1]:
        assert sieve(limit) == want[: limit + 1], limit


@pytest.mark.parametrize("limit", [-1, -10, 2.5, "9"])
def test_sieve_rejects_a_bad_limit(limit):
    with pytest.raises(StatelabError):
        sieve(limit)


def test_sieve_and_deterministic_test_agree_across_the_table_edge():
    # is_prime reads a table below 2^16 and runs the gcd filter and
    # Miller-Rabin above it
    table = sieve(1 << 20)
    assert [n for n, flag in enumerate(table) if is_prime(n) != bool(flag)] == []


def test_sieve_and_deterministic_test_agree():
    table = sieve(100_000)
    for n, flag in enumerate(table):
        assert is_prime(n) == bool(flag)


def test_find_isolated_prime_frozen_answers():
    # smallest k with 1 + 4k prime and no other prime within distance 4:
    # k = 13 gives p = 53; 49, 50, 51, 52, 54, 55, 56, 57 are all composite
    assert find_isolated_prime(1, 2, 10**6) == 13
    assert find_isolated_prime(1, 1, 10**6) == 11
    p = 1 + 4 * 13
    assert is_prime(p)
    assert all(not is_prime(q) for q in range(p - 4, p + 5) if q != p)


def test_find_isolated_prime_respects_the_search_limit():
    assert find_isolated_prime(3, 2, 0) is None
    # k = 52 is the answer for residue 3 mod 4, so a tiny limit misses it
    assert find_isolated_prime(3, 2, 10) is None
    assert find_isolated_prime(3, 2, 10**6) == 52


def test_find_isolated_prime_input_validation():
    with pytest.raises(StatelabError):
        find_isolated_prime(2, 2, 100)  # even residue
    with pytest.raises(StatelabError):
        find_isolated_prime(5, 2, 100)  # residue at least 2^n
    with pytest.raises(StatelabError):
        find_isolated_prime(-1, 2, 100)


def test_find_isolated_prime_rejects_a_negative_shift():
    with pytest.raises(StatelabError, match="negative"):
        find_isolated_prime(1, -1, 5)
    with pytest.raises(StatelabError, match="negative"):
        find_isolated_primes(-1, 5)


def test_find_isolated_prime_refuses_a_shift_above_sixteen():
    with pytest.raises(UnsupportedError):
        find_isolated_prime(1, 17, 5)
    with pytest.raises(UnsupportedError):
        find_isolated_primes(17, 5)


def test_find_isolated_primes_has_no_residue_at_shift_zero():
    # the only residue below 2^0 is 0, which is even
    assert find_isolated_primes(0, 10) == {}


@pytest.fixture(scope="module")
def one_residue():
    """find_isolated_prime on every odd residue, n = 1..8, three limits."""
    return {
        (n_bits, limit): {a: find_isolated_prime(a, n_bits, limit)
                          for a in range(1, 1 << n_bits, 2)}
        for n_bits in range(1, 9)
        for limit in (1, 50, 10**4)
    }


@pytest.mark.parametrize("segment_bytes", [primes._SEGMENT_BYTES, 1 << 9])
def test_find_isolated_primes_is_every_one_residue_search(monkeypatch, one_residue,
                                                          segment_bytes):
    monkeypatch.setattr(primes, "_SEGMENT_BYTES", segment_bytes)
    for (n_bits, limit), want in one_residue.items():
        shared = find_isolated_primes(n_bits, limit)
        # the same residues in the same order, each with the same answer
        assert list(shared.items()) == list(want.items()), (n_bits, limit)


def test_find_isolated_primes_refuses_a_search_that_reaches_the_ceiling(monkeypatch):
    # residue 1 is done at k = 13 and residue 3 at k = 52, whose window ends at 215
    monkeypatch.setattr(primes, "TWO_64", 216)
    assert find_isolated_primes(2, 10**6) == {1: 13, 3: 52}
    monkeypatch.setattr(primes, "TWO_64", 215)
    with pytest.raises(UnsupportedError):
        find_isolated_primes(2, 10**6)


def test_find_isolated_prime_takes_a_limit_far_past_the_answer():
    assert find_isolated_prime(1, 2, 10**30) == 13


def test_find_isolated_prime_refuses_a_search_that_reaches_the_ceiling(monkeypatch):
    # k = 52 gives p = 211 with window [207, 215]
    monkeypatch.setattr(primes, "TWO_64", 216)
    assert find_isolated_prime(3, 2, 10**6) == 52
    monkeypatch.setattr(primes, "TWO_64", 215)
    with pytest.raises(UnsupportedError):
        find_isolated_prime(3, 2, 10**6)


def test_segment_marks_exactly_the_primes():
    table = sieve(300)
    for lo in range(40):
        for hi in (lo, lo + 1, 300):
            assert primes._segment(lo, hi, table) == table[lo : hi + 1], (lo, hi)
    # past 2^32 the base primes must reach beyond the 2^16 table; 65537
    # is the first prime above it, so 65537^2 must be struck out
    lo = 65537**2 - 1000
    segment = primes._segment(lo, lo + 3000, sieve(isqrt(lo + 3000)))
    assert [i for i, flag in enumerate(segment) if flag] == [
        i for i in range(3001) if is_prime(lo + i)
    ]


def per_number_isolated_prime(a, n_bits, limit):
    """The search restated one number at a time: is_prime on p and on
    every other number in [p - 2^n, p + 2^n]."""
    step = 1 << n_bits
    for k in range(1, limit + 1):
        p = a + step * k
        if is_prime(p) and not any(
            is_prime(q) for q in range(p - step, p + step + 1) if q != p
        ):
            return k
    return None


@pytest.fixture(scope="module")
def reference():
    """First isolated k of every odd residue below 2^n, n = 1..5."""
    return {
        (a, n_bits): per_number_isolated_prime(a, n_bits, 10**5)
        for n_bits in range(1, 6)
        for a in range(1, 1 << n_bits, 2)
    }


def assert_agrees_with_the_per_number_search(cases):
    for (a, n_bits), k in cases:
        for limit in (0, 1, k - 1, k, k + 1):
            want = k if limit >= k else None
            assert find_isolated_prime(a, n_bits, limit) == want, (a, n_bits, limit)


def test_find_isolated_prime_agrees_with_the_per_number_search(reference):
    assert None not in reference.values()
    assert_agrees_with_the_per_number_search(reference.items())


@pytest.mark.parametrize("segment_bytes", [1, 7, 40, 200])
def test_find_isolated_prime_agrees_across_segment_edges(monkeypatch, reference, segment_bytes):
    # tiny segments put candidates and windows on every segment edge
    monkeypatch.setattr(primes, "_SEGMENT_BYTES", segment_bytes)
    small = [(key, k) for key, k in reference.items() if key[1] <= 4]
    assert_agrees_with_the_per_number_search(small)


def test_find_isolated_prime_agrees_while_its_base_primes_grow(monkeypatch, reference):
    # a 4-entry table and tiny segments make the search sieve new base
    # primes again and again as it climbs
    monkeypatch.setattr(primes, "_TABLE_SIZE", 4)
    monkeypatch.setattr(primes, "_TABLE", primes._TABLE[:4])
    monkeypatch.setattr(primes, "_SEGMENT_BYTES", 7)
    assert_agrees_with_the_per_number_search(
        [(key, k) for key, k in reference.items() if key[1] <= 4])


@pytest.mark.parametrize("limit", [10**6, 10**30])
def test_find_isolated_prime_sieves_its_base_primes_once_per_search(monkeypatch, limit):
    # with the table cut to 4 entries the base primes of every segment
    # come from sieve; tiny segments make the search span six of them
    monkeypatch.setattr(primes, "_TABLE_SIZE", 4)
    monkeypatch.setattr(primes, "_TABLE", primes._TABLE[:4])
    monkeypatch.setattr(primes, "_SEGMENT_BYTES", 40)
    real, outer, active = primes.sieve, [], []

    def counted(limit):
        # sieve recurses through the module name; count outermost calls only
        if not active:
            outer.append(limit)
        active.append(limit)
        try:
            return real(limit)
        finally:
            active.pop()

    monkeypatch.setattr(primes, "sieve", counted)
    assert find_isolated_prime(3, 2, limit) == 52
    # one sieve, sized by the segments searched, whatever the limit
    assert len(outer) == 1 and outer[0] < 100, outer
