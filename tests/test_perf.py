"""Timings of hot primitives, through pytest-benchmark.

Each case runs one round (`benchmark.pedantic`), so the suite pays for
one call and still checks its result. To keep the timings, run

    PYTHONPATH=src python -m pytest tests/test_perf.py --benchmark-autosave

which adds one run to `.benchmarks/`; `--benchmark-compare` sets a later
run against the last one saved.
"""

import random

import pytest

pytest.importorskip("pytest_benchmark")

from statelab import (  # noqa: E402
    Alphabet,
    Atom,
    Budget,
    RowSpec,
    backward_accepts,
    count_quotients,
    find_isolated_primes,
    game_tree_accepts,
    get_language,
    query_table,
    split_depth,
)
from statelab.experiments import _subset_rows, random_automaton  # noqa: E402

ATOMS = 100_000


def _build_atoms():
    return [Atom(i) for i in range(ATOMS)]


def test_atom_construction(benchmark):
    built = benchmark.pedantic(_build_atoms, rounds=1, iterations=1)
    assert len(built) == ATOMS and built[-1] == Atom(ATOMS - 1)


def test_reachable_counts_of_l_hier_2_to_depth_30(benchmark):
    # a fresh automaton, so the search starts from an empty transition memo
    automaton = get_language("l-hier:2").automaton
    counts = benchmark.pedantic(automaton.reachable_counts, args=(30,), rounds=1, iterations=1)
    assert counts[:8] == [1, 2, 9, 31, 82, 177, 333, 566]
    assert counts[-1] == 63_877


def test_count_quotients_of_primes_at_order_10_witness_5(benchmark):
    # the primes-hs sweep at n = 10: 2047 prefixes times 63 witnesses
    primes = get_language("primes").oracle
    report = benchmark.pedantic(count_quotients, args=(primes, 10, 5), rounds=1, iterations=1)
    assert report.count == 1027 and len(report.signatures) == 1027


def test_query_table_of_the_exp_alt_rows_at_order_3(benchmark):
    # exp-alt at n = 3: one row per subset of {0,1}^3, 40 columns each
    rows = RowSpec.explicit(_subset_rows(3, True))
    l_exp = get_language("l-exp").oracle
    report = benchmark.pedantic(query_table, args=(l_exp, 3, rows), rounds=1, iterations=1)
    assert report.count == 256 and len(report.signatures) == 256


def test_split_depth_of_the_odd_words_of_length_10(benchmark):
    # the primes-hs search at its longest length under the benchmark, n = 10
    primes = get_language("primes").oracle
    words = [w for w in Alphabet("01").words_of_length(10) if w[0] == "1"]
    budget = Budget(10**8)
    result = benchmark.pedantic(split_depth, args=(primes, words, 24, budget),
                                rounds=1, iterations=1)
    assert len(words) == 512 and result == (5, 0) and budget.asked == 39_840


def test_find_isolated_primes_at_shift_5(benchmark):
    # the primes-linear search under the benchmark, n = 5 and its default limit
    found = benchmark.pedantic(find_isolated_primes, args=(5, 10**7), rounds=1, iterations=1)
    assert len(found) == 16 and found[1] == 6366 and found[31] == 15165


def _both_routes(automata, words):
    return [(backward_accepts(A, w), game_tree_accepts(A, w)) for A in automata for w in words]


def test_backward_and_game_tree_routes_on_300_random_automata(benchmark):
    # the two per-word routes of core-crosscheck, from empty memos
    rng = random.Random(0)
    automata = [random_automaton(rng) for _ in range(300)]
    words = list(Alphabet("ab").words_up_to(5))
    answers = benchmark.pedantic(_both_routes, args=(automata, words), rounds=1, iterations=1)
    assert len(answers) == 300 * 63
    assert all(b == g for b, g in answers) and sum(b for b, _ in answers) == 10_112
