import pytest

from statelab import StatelabError, UnsupportedError, find_isolated_prime, is_prime, sieve
from statelab.primes import _isolated


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


def full_scan_isolated(table, p, radius):
    return all(q == p or not table[q] for q in range(max(p - radius, 2), p + radius + 1))


def test_odd_only_isolation_scan_matches_the_full_scan():
    table = sieve(20_000 + 64)
    for radius in range(2, 65):
        for p in range(20_000):
            assert _isolated(p, radius) == full_scan_isolated(table, p, radius), (p, radius)
