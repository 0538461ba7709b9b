"""The lattice bounds that turn quotient and profile counts into state counts.

Quotients: every left quotient u^-1 L with |u| <= N is a positive Boolean
combination of the languages of the k = |reachable(N)| states, so an
automaton has at most M(k) distinct quotients of order N, where M(k),
the Dedekind number, counts the monotone Boolean functions of k
variables, constants included.

Profiles: a row's profile over the columns of length <= N depends only
on the set of states of reachable(N) that accept the row, so a profile
count p needs at least ceil(log2 p) states in reachable(N).

No report reads these bounds yet, so they are computed here.
"""

import random
from itertools import product

import pytest

from statelab import count_quotients, from_automaton, get_language, run_experiment
from statelab.experiments import random_automaton

WITNESS_BOUND = 6


def monotone_tables(k: int) -> list:
    """Truth tables (bit x of the int is f(x)) of the monotone Boolean
    functions of k variables, by the pair recursion: f is monotone iff
    f = h on x_k = 0 and g on x_k = 1 with h <= g, both monotone."""
    tables = [0b0, 0b1]
    for i in range(k):
        half = 1 << i
        tables = [h | g << half for g in tables for h in tables if h & ~g == 0]
    return tables


def dedekind(k: int) -> int:
    return len(monotone_tables(k))


def brute_force_monotone_tables(k: int) -> set:
    """Every truth table of k variables that no single raised bit lowers."""
    points = range(1 << k)
    found = set()
    for values in product((0, 1), repeat=1 << k):
        if all(values[x] <= values[x | 1 << i]
               for x in points for i in range(k)):
            found.add(sum(bit << x for x, bit in enumerate(values)))
    return found


def test_the_pair_recursion_gives_the_dedekind_numbers():
    assert [dedekind(k) for k in range(6)] == [2, 3, 6, 20, 168, 7581]


@pytest.mark.parametrize("k", range(4))
def test_the_pair_recursion_matches_brute_force(k):
    tables = monotone_tables(k)
    assert len(set(tables)) == len(tables)
    assert set(tables) == brute_force_monotone_tables(k)


@pytest.fixture(scope="module")
def automata():
    rng = random.Random(0)
    return [random_automaton(rng) for _ in range(300)]


@pytest.mark.parametrize("N", range(4))
def test_quotients_of_order_n_are_at_most_the_dedekind_number_of_reachable_n(automata, N):
    bound = [dedekind(k) for k in range(6)]
    over = {}
    for i, A in enumerate(automata):
        k = len(A.reachable(N))
        count = count_quotients(from_automaton(A), N, WITNESS_BOUND).count
        if count > bound[k]:
            over[i] = (count, k)
    assert over == {}


@pytest.mark.parametrize("n", [2, 4])
def test_hierarchy_profiles_need_no_more_states_than_its_automaton_reaches(n):
    report = run_experiment("hierarchy:2", n=n)
    order = report.parameters["order"]
    profiles = report.measured["profiles"]
    lower = (profiles - 1).bit_length()  # ceil(log2 profiles)
    upper = len(get_language("l-hier:2").automaton.reachable(order))
    # 4 <= 82 at n = 2 (order 4) and 16 <= 891 at n = 4 (order 8)
    assert lower <= upper
