"""Reachable sets of the small gallery automata, derived from their delta.

For each of maj2, count-eq3, not-eq and lex, `least_depth(q)` is the
length of the shortest word whose run reaches q, read off the automaton's
transitions, and reachable(n) = {q : least_depth(q) <= n}. That set is
checked equal to the BFS at every depth to 64. Its size is a closed form
in n, so each declared ceiling `constant * bound(n) >= count(n)` is then
proved for every n >= 1 by comparing polynomials, not by sampling depths.
"""

from fractions import Fraction

import pytest

from statelab import AlternatingAutomaton, Atom, get_language
from statelab.gallery import _count_eq3_delta
from statelab.profiler import bound_function

DEPTH = 64
BITS = "01"


def maj2_depth(k):
    # each letter moves the counter k by one
    return abs(k)


def maj2_shapes(n):
    return range(-n, n + 1)


def count_eq3_depth(q):
    # x = #a - #b and y = #a - #c, so #a >= max(0, x, y) and the length
    # #a + #b + #c = 3#a - x - y is least at #a = max(0, x, y)
    x, y = q
    return 3 * max(0, x, y) - x - y


def count_eq3_shapes(n):
    return [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]


def not_eq_depth(q):
    # read p after p letters; '#' there claims a length difference, need p
    # and most p; a letter there holds p; hold p meets '#' and counts down
    # chk from p, so chk k is least at p = k; bin follows need 0
    tag = q[0]
    if tag == "bin":
        return 2
    least = {"read": 0, "hold": 1, "need": 1, "most": 1, "chk": 2}
    return q[1] + least[tag]


def not_eq_shapes(n):
    return ([("bin",)]
            + [(tag, i) for tag in ("read", "need", "most") for i in range(n + 1)]
            + [(tag, i, b) for tag in ("hold", "chk") for i in range(n + 1) for b in BITS])


def lex_depth(q):
    # u i after i letters; '#' there gives need i, a letter wait i b;
    # wait i b meets '#' and counts down skip from i; ok follows need 0
    tag = q[0]
    if tag == "ok":
        return 2
    least = {"u": 0, "wait": 1, "need": 1, "skip": 2}
    return q[1] + least[tag]


def lex_shapes(n):
    return ([("ok",)]
            + [(tag, i) for tag in ("u", "need") for i in range(n + 1)]
            + [(tag, i, b) for tag in ("wait", "skip") for i in range(n + 1) for b in BITS])


# name: (least depth, a superset of reachable(n), count(n) as polynomial
# coefficients from the constant term up, the least n the polynomial
# holds at, and count(n) below that)
DERIVED = {
    "maj2": (maj2_depth, maj2_shapes, [1, 2], 0, {}),
    "count-eq3": (count_eq3_depth, count_eq3_shapes,
                  [1, Fraction(3, 2), Fraction(3, 2)], 0, {}),
    "not-eq": (not_eq_depth, not_eq_shapes, [0, 7], 2, {0: 1, 1: 6}),
    "lex": (lex_depth, lex_shapes, [0, 6], 2, {0: 1, 1: 5}),
}


def value(poly, n):
    return sum(c * n**i for i, c in enumerate(poly))


def shifted(poly, start):
    """Coefficients of m -> poly(m + start), by Horner's rule."""
    out = []
    for c in reversed(poly):
        # out(m) * (m + start) + c
        out = [a + start * b for a, b in zip([0, *out], [*out, 0])]
        out[0] += c
    return out


def nonnegative_from(poly, start) -> bool:
    """poly(n) >= 0 for every integer n >= start: true when poly(m + start)
    has no negative coefficient (a sufficient test, exact in rationals)."""
    return all(c >= 0 for c in shifted(poly, start))


def bound_poly(cls):
    """The ceiling shape as a polynomial for n >= 1: 'n' or 'n^<k>'."""
    degree = 1 if cls == "n" else int(cls[2:])
    return [0] * degree + [1]


def derived_mismatches(A: AlternatingAutomaton, least_depth, shapes) -> list:
    """The depths at which {q : least_depth(q) <= n} differs from reachable(n)."""
    order, counts = A._search(DEPTH)
    return [n for n in range(DEPTH + 1)
            if {q for q in shapes(n) if least_depth(q) <= n} != set(order[:counts[n]])]


@pytest.mark.parametrize("name", DERIVED)
def test_the_derived_reachable_set_is_the_bfs_at_every_depth(name):
    least_depth, shapes, poly, start, below = DERIVED[name]
    A = get_language(name).automaton
    assert derived_mismatches(A, least_depth, shapes) == []
    counts = A.reachable_counts(DEPTH)
    assert counts == [below[n] if n < start else value(poly, n) for n in range(DEPTH + 1)]


@pytest.mark.parametrize("name", DERIVED)
def test_the_declared_ceiling_holds_at_every_depth(name):
    _, _, poly, start, below = DERIVED[name]
    cls, constant = get_language(name).declared_class
    bound = bound_poly(cls)
    assert [value(bound, n) for n in range(1, DEPTH + 1)] == list(
        map(bound_function(cls), range(1, DEPTH + 1)))
    assert all(constant * value(bound, n) >= count for n, count in below.items() if n >= 1)
    size = max(len(bound), len(poly))
    bound, poly = (p + [0] * (size - len(p)) for p in (bound, poly))
    gap = [constant * b - c for b, c in zip(bound, poly)]
    assert nonnegative_from(gap, max(start, 1))


def test_the_polynomial_check_on_known_polynomials():
    # (m + 2)^2 = m^2 + 4m + 4
    assert shifted([0, 0, 1], 2) == [4, 4, 1]
    # n^2 - 3n + 2 = (n - 1)(n - 2) is nonnegative at every integer but
    # the shift from 1 leaves m^2 - m: the test is sufficient, not exact
    assert nonnegative_from([2, -3, 1], 2)
    assert not nonnegative_from([2, -3, 1], 1)
    assert not nonnegative_from([-1, 1], 0)
    assert nonnegative_from([Fraction(-1, 2), 1], 1)


def test_a_mutated_delta_breaks_the_derived_set():
    # c moves y up instead of down
    def delta(q, a):
        x, y = q
        return Atom((x, y + 1)) if a == "c" else _count_eq3_delta(q, a)

    A = AlternatingAutomaton("abc", (0, 0), delta, lambda q: q == (0, 0))
    assert derived_mismatches(A, count_eq3_depth, count_eq3_shapes) != []
