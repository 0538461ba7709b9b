"""Timings of hot primitives, through pytest-benchmark.

Each case runs one round (`benchmark.pedantic`), so the suite pays for
one call and still checks its result. To keep the timings, run

    PYTHONPATH=src python -m pytest tests/test_perf.py --benchmark-autosave

which adds one run to `.benchmarks/`; `--benchmark-compare` sets a later
run against the last one saved.
"""

import random
from itertools import combinations

import pytest

pytest.importorskip("pytest_benchmark")

from statelab import (  # noqa: E402
    Alphabet,
    AlternatingAutomaton,
    Atom,
    Budget,
    RowSpec,
    backward_accepts,
    count_quotients,
    determinize_finite,
    find_isolated_primes,
    game_tree_accepts,
    get_language,
    query_table,
    run_experiment,
    separate_quotients,
    split_depth,
)
from statelab.experiments import _subset_rows, random_automaton, random_formula  # noqa: E402

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


def _fresh_copies(automata):
    """Declared copies of `automata` with nothing compiled and empty memos."""
    return [AlternatingAutomaton(A.alphabet, A.initial,
                                 {(q, a): A.delta(q, a) for q in A.states for a in A.alphabet},
                                 [q for q in A.states if A.state_accepting(q)], states=A.states)
            for A in automata]


def _fold(automata, words):
    return [A.accepts(w) for A in automata for w in words]


def test_fold_on_300_random_automata(benchmark):
    # accepts on declared automata: one table read and one fold memo per
    # automaton, timed from fresh copies
    rng = random.Random(0)
    automata = [random_automaton(rng) for _ in range(300)]
    words = list(Alphabet("ab").words_up_to(5))
    answers = benchmark.pedantic(_fold, setup=lambda: ((_fresh_copies(automata), words), {}),
                                 rounds=1, iterations=1)
    assert len(answers) == 300 * 63 and sum(answers) == 10_112


def _determinize_all(automata):
    return [determinize_finite(A) for A in automata]


def test_determinize_finite_on_300_random_automata(benchmark):
    rng = random.Random(0)
    automata = [random_automaton(rng) for _ in range(300)]
    results = benchmark.pedantic(_determinize_all, args=(automata,), rounds=1, iterations=1)
    assert sum(len(D.states) for D in results) == 1700


def _ten_state_automaton(seed):
    rng = random.Random(seed)
    states = list(range(10))
    trans = {(q, a): random_formula(rng, states, 2) for q in states for a in "ab"}
    accepting = [q for q in states if rng.random() < 0.5]
    return AlternatingAutomaton("ab", 0, trans, accepting, states=states)


def test_determinize_finite_on_20_ten_state_automata(benchmark):
    automata = [_ten_state_automaton(s) for s in range(20)]
    results = benchmark.pedantic(_determinize_all, args=(automata,), rounds=1, iterations=1)
    assert sum(len(D.states) for D in results) == 1718


def test_rabin_claim_at_n_6(benchmark):
    # exact Fraction runs of the probabilistic machine: one prefix run per
    # word and two suffix runs per pair, 2,667 pairs over the six orders
    report = benchmark.pedantic(run_experiment, args=("rabin-claim",), kwargs={"n": 6},
                                rounds=1, iterations=1)
    orders = report.measured["orders"]
    assert orders == {str(n): {"pairs": (1 << n) * ((1 << n) - 1) // 2,
                               "separated": (1 << n) * ((1 << n) - 1) // 2,
                               "distinct_quotients": 1 << n} for n in range(1, 7)}


def _separate_all(pairs):
    return [separate_quotients(u, v) for u, v in pairs]


def test_separate_quotients_over_every_pair_up_to_length_7(benchmark):
    # the separator search of rabin-claim at n = 7, without the machine runs
    pairs = [pair for n in range(1, 8)
             for pair in combinations(Alphabet("01").words_of_length(n), 2)]
    suffixes = benchmark.pedantic(_separate_all, args=(pairs,), rounds=1, iterations=1)
    assert len(suffixes) == 10_795
    assert suffixes[0] == "#11" and max(map(len, suffixes)) == 10
