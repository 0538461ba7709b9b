"""Tests of the benchmark's reference computations on cases with known answers.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import statelab as sl  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def words(letters, max_length):
    for n in range(max_length + 1):
        for t in product(letters, repeat=n):
            yield "".join(t)


def test_sieve_counts_the_primes_below_a_million():
    table = reference.prime_table(10**6)
    assert sum(table) == 78498
    assert [k for k in range(30) if table[k]] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_trial_division_agrees_with_the_sieve():
    table = reference.prime_table(5000)
    assert all(reference.is_prime_trial(k) == bool(table[k]) for k in range(5000))


def test_lsb_value_reads_the_first_letter_as_the_lowest_bit():
    assert reference.lsb_value("") == 0
    assert reference.lsb_value("1011") == 13


def test_block_product_on_hand_computed_words():
    assert reference.rabin_block_product("1") == (1, 1)
    assert reference.rabin_probability("11") == Fraction(3, 4)
    assert reference.rabin_probability("1#1") == Fraction(1, 4)
    assert reference.rabin_probability("01#11") == Fraction(3, 8)
    assert reference.rabin_probability("11#") == 0
    assert not reference.above_half("1")  # exactly 1/2 is not above the cut point
    assert reference.above_half("11")


def test_block_product_matches_the_machine_on_short_words():
    machine = sl.rabin_automaton()
    for w in words("01#", 5):
        assert machine.acceptance_probability(w) == reference.rabin_probability(w), w


def test_formula_evaluator_on_known_values():
    truth = {1: True, 2: False, 3: True}.__getitem__
    f = sl.conj([sl.Atom(1), sl.disj([sl.Atom(2), sl.Atom(3)])])
    assert reference.eval_formula(f, truth, sl)
    assert not reference.eval_formula(sl.conj([sl.Atom(1), sl.Atom(2)]), truth, sl)
    assert reference.eval_formula(sl.TRUE, truth, sl)
    assert not reference.eval_formula(sl.FALSE, truth, sl)
    assert sorted(reference.formula_states(f, sl)) == [1, 2, 3]


def test_backward_acceptance_on_a_small_alternating_automaton():
    # "contains an a and contains a b": the start state splits with an And,
    # and each searching state guesses the position with an Or
    def delta(q, x):
        if q == "s":
            return sl.conj([sl.Atom("T" if x == "a" else "ha"), sl.Atom("T" if x == "b" else "hb")])
        if q in ("ha", "hb"):
            found = x == q[1]
            return sl.disj([sl.Atom(q), sl.Atom("T")]) if found else sl.Atom(q)
        return sl.Atom("T")

    for w in words("ab", 6):
        got = reference.accepts_backward("s", delta, {"T"}.__contains__, w, sl)
        assert got == ("a" in w and "b" in w), w


def test_backward_acceptance_agrees_with_a_predicate_on_a_universal_automaton():
    # all-a words: delta(0, a) = 0, delta(0, b) = FALSE
    trans = {(0, "a"): sl.Atom(0), (0, "b"): sl.FALSE}
    for w in words("ab", 5):
        got = reference.accepts_backward(0, lambda q, a: trans[(q, a)], {0}.__contains__, w, sl)
        assert got == (set(w) <= {"a"}), w


def test_plain_bfs_gives_2n_plus_1_for_maj2():
    A = sl.get_language("maj2").automaton
    counts = reference.bfs_counts(A.initial, A.delta, A.alphabet.letters, 30, sl)
    assert counts == [2 * n + 1 for n in range(31)]


def test_restated_predicates_on_known_words():
    lex, neq = reference.lex_member, reference.not_eq_member
    assert lex("0#1") and lex("#0") and lex("0#01") and lex("01#1")
    assert not lex("1#0") and not lex("0#0") and not lex("01#0") and not lex("0#1#")
    assert neq("0#1") and neq("0#") and neq("01#0")
    assert not neq("01#01") and not neq("#") and not neq("0#1#0")
    assert reference.maj2_member("aab") and not reference.maj2_member("ab")
    assert not reference.maj2_member("")
    assert reference.count_eq3_member("") and reference.count_eq3_member("cab")
    assert not reference.count_eq3_member("aabbc")


def test_restated_predicates_match_the_gallery_on_short_words():
    for name, member in reference.RESTATED.items():
        spec = sl.get_language(name)
        for w in words(spec.alphabet.letters, 6):
            assert member(w) == spec.oracle(w), (name, w)


def test_shortest_witness_and_class_count():
    table = reference.prime_table(1 << 12)
    member = lambda w: bool(table[reference.lsb_value(w)])
    # 1 is not prime, 3 is: the empty word already separates them
    assert reference.shortest_witness(member, "1", "11", "01", 4) == ""
    # 5 = "101" and 7 = "111" are both prime; "1" appended gives 13 and 15
    assert reference.shortest_witness(member, "101", "111", "01", 4) == "1"
    parity = lambda w: w.count("1") % 2 == 0
    prefixes = list(reference.canonical_words("01", 3))
    assert reference.class_count(parity, prefixes, ["", "1"]) == 2


def test_rabin_check_flags_a_wrong_probability():
    inputs = {"pairs": [("0", "1"), ("01", "10")]}
    measured = {"orders": {str(n): {"pairs": (1 << n) * ((1 << n) - 1) // 2,
                                    "separated": (1 << n) * ((1 << n) - 1) // 2,
                                    "distinct_quotients": 1 << n}
                           for n in range(1, workloads.RABIN_N + 1)}}
    outputs = [("rabin-claim", ("pass", measured))]
    for i, (u, v) in enumerate(inputs["pairs"]):
        s = sl.separate_quotients(u, v)
        outputs.append((f"separate[{i}]", (s, reference.rabin_probability(u + "1" + s),
                                           reference.rabin_probability(v + "1" + s))))
    statuses = [st for _, st, _ in workloads.check_rabin(sl, inputs, 0, outputs, {})]
    assert set(statuses) == {workloads.OK}
    op, (s, pu, pv) = outputs[1]
    outputs[1] = (op, (s, pu + Fraction(1, 1 << 20), pv))
    checked = workloads.check_rabin(sl, inputs, 0, outputs, {})
    assert [op for op, st, _ in checked if st != workloads.OK] == ["separate[0]"]
