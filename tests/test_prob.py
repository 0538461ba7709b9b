import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelab import (
    Alphabet,
    ProbAutomaton,
    StatelabError,
    ThresholdLanguage,
    bin_frac,
    bin_int,
    dyadic_witness,
    get_language,
    rabin_automaton,
    separate_quotients,
)

binary_words = st.text(alphabet="01", max_size=12)


def test_bin_int_reads_least_significant_bit_first():
    assert bin_int("") == 0
    assert bin_int("1") == 1
    assert bin_int("01") == 2
    assert bin_int("011") == 6
    assert bin_int("1011") == 13


def test_bin_frac_anchors():
    assert bin_frac("") == 0
    assert bin_frac("1") == Fraction(1, 2)
    assert bin_frac("11") == Fraction(3, 4)
    assert bin_frac("110") == Fraction(3, 8)


def test_bin_rejects_non_binary():
    with pytest.raises(StatelabError):
        bin_int("102")


def letter_loop_bin_int(word):
    """Reference: one letter at a time, least significant first."""
    value = 0
    for i, ch in enumerate(word):
        if ch == "1":
            value += 1 << i
        elif ch != "0":
            raise ValueError(word)
    return value


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="01", max_size=200))
def test_bin_int_matches_the_letter_loop(w):
    assert bin_int(w) == letter_loop_bin_int(w)


def test_bin_int_matches_the_letter_loop_on_the_empty_and_a_long_word():
    long_word = "".join("1" if i % 3 == 0 or i % 7 == 5 else "0" for i in range(10_000))
    for w in ("", long_word, "0" * 10_000, long_word + "1"):
        assert bin_int(w) == letter_loop_bin_int(w)


@pytest.mark.parametrize("word", [
    "2", "1_0", " 1", "1 ", "+1", "-1", "0b1", "\u0661", "\uff11", "1\n",
])
def test_bin_int_rejects_everything_int_would_also_parse(word):
    with pytest.raises(StatelabError, match="not a binary word"):
        bin_int(word)


@pytest.mark.parametrize("word", ["1_0", " 1", "1\n", "+1", "-1", "0b1", "2", "\uff11"])
def test_bin_int_and_the_primes_oracle_refuse_a_non_binary_word(word):
    # int(word, 2) parses every one of these but "2"
    try:
        int(word, 2)
    except ValueError:
        assert word == "2"
    message = "^" + re.escape(f"not a binary word: {word!r}") + "$"
    with pytest.raises(StatelabError, match=message):
        bin_int(word)
    with pytest.raises(StatelabError, match=message):
        get_language("primes").oracle(word)


def test_the_empty_word_is_zero_and_not_prime():
    assert bin_int("") == 0
    assert get_language("primes").oracle("") is False


@settings(derandomize=True, max_examples=200)
@given(binary_words)
def test_bin_frac_is_int_over_power_of_two(w):
    assert bin_frac(w) == Fraction(bin_int(w), 2 ** len(w))
    assert 0 <= bin_frac(w) < 1 or w == "1" * len(w)


def test_acceptance_probability_anchors():
    m = rabin_automaton()
    assert m.acceptance_probability("") == 0
    assert m.acceptance_probability("1") == Fraction(1, 2)
    assert m.acceptance_probability("11") == Fraction(3, 4)
    assert m.acceptance_probability("110") == Fraction(3, 8)
    assert m.acceptance_probability("#") == 0
    assert m.acceptance_probability("11#11") == Fraction(9, 16)


def test_single_block_probability_equals_binary_fraction():
    m = rabin_automaton()
    alpha = Alphabet("01")
    for w in alpha.words_up_to(9):
        assert m.acceptance_probability(w) == bin_frac(w)


def test_multi_block_probability_is_a_product():
    m = rabin_automaton()
    alpha = Alphabet("01#")
    for w in alpha.words_up_to(6):
        expected = Fraction(1)
        for block in w.split("#"):
            expected *= bin_frac(block)
        assert m.acceptance_probability(w) == expected


def test_threshold_is_strict():
    lang = ThresholdLanguage(rabin_automaton())
    assert lang.member("11")       # 3/4 > 1/2
    assert not lang.member("1")    # exactly 1/2
    assert not lang.member("")     # 0
    assert lang("11")


def test_validate_stochastic_flags_problems():
    alpha = "01"
    good_row = {"q": Fraction(1)}
    m = ProbAutomaton(
        alpha,
        ["q"],
        "q",
        {("q", "0"): good_row, ("q", "1"): {"q": Fraction(1, 2)}},
        {"q"},
    )
    problems = m.validate_stochastic()
    assert any("sum" in p for p in problems)

    m2 = ProbAutomaton(
        alpha,
        ["q"],
        "q",
        {("q", "0"): good_row, ("q", "1"): {"ghost": Fraction(1)}},
        {"q"},
    )
    assert any("ghost" in p for p in m2.validate_stochastic())

    m3 = ProbAutomaton(alpha, ["q"], "q", {("q", "0"): good_row}, {"q"})
    assert any("missing" in p for p in m3.validate_stochastic())

    assert rabin_automaton().validate_stochastic() == []


def test_a_row_on_a_letter_outside_the_alphabet_is_named():
    with pytest.raises(StatelabError, match=r"row \('q', 'x'\) reads a letter outside alphabet '01'"):
        ProbAutomaton("01", ["q"], "q", {("q", "x"): {"q": 1}}, [])


def test_rows_and_accepting_states_outside_the_state_list_are_refused():
    rows = {("q", "0"): {"q": 1}, ("q", "1"): {"q": 1}}
    with pytest.raises(StatelabError, match="row source 'z' not in state list"):
        ProbAutomaton("01", ["q"], "q", {**rows, ("z", "0"): {"q": 1}}, ["q"])
    with pytest.raises(StatelabError, match="accepting state 'ghost' not in state list"):
        ProbAutomaton("01", ["q"], "q", rows, ["ghost"])
    with pytest.raises(StatelabError, match="row source 'z'"):
        ProbAutomaton("01", ["q"], "q", {**rows, ("z", "0"): {"q": 1}}, ["ghost"])
    assert ProbAutomaton("01", ["q"], "q", rows, ["q"]).validate_stochastic() == []


@pytest.mark.parametrize("weight", [0.5, Decimal("0.5"), "1/2", None],
                         ids=["float", "decimal", "str", "none"])
def test_a_weight_that_is_not_an_int_or_a_fraction_is_refused(weight):
    rows = {("q", "0"): {"q": 1}, ("q", "1"): {"q": weight, "r": Fraction(1, 2)}}
    with pytest.raises(StatelabError, match=r"row \('q', '1'\) gives 'q' the inexact weight"):
        ProbAutomaton("01", ["q", "r"], "q", rows, ["q"])


def test_an_initial_state_outside_the_state_list_is_refused():
    with pytest.raises(StatelabError, match="initial state 'z' not in state list"):
        ProbAutomaton("01", ["q"], "z", {("q", "0"): {"q": 1}}, [])


def test_a_weight_outside_the_unit_interval_is_flagged():
    rows = {("q", "0"): {"q": Fraction(3, 2), "r": Fraction(-1, 2)},
            ("q", "1"): {"q": 1}, ("r", "0"): {"r": 1}, ("r", "1"): {"r": 1}}
    problems = ProbAutomaton("01", ["q", "r"], "q", rows, []).validate_stochastic()
    assert problems == ["('q', '0') -> 'q' has weight 3/2",
                        "('q', '0') -> 'r' has weight -1/2"]


def test_distribution_names_the_missing_row_it_reaches():
    m = ProbAutomaton("01", ["q", "r"], "q", {("q", "0"): {"r": 1}, ("r", "1"): {"r": 1}}, [])
    assert m.distribution("01") == {"r": 1}
    with pytest.raises(StatelabError, match=r"missing row \('r', '0'\)"):
        m.distribution("00")
    with pytest.raises(StatelabError, match=r"missing row \('q', '1'\)"):
        m.distribution("1")


def test_dyadic_witness_anchors():
    assert dyadic_witness(Fraction(1, 3), Fraction(1, 2)) == "110"
    assert dyadic_witness(Fraction(0), Fraction(1)) == "1"
    w = dyadic_witness(Fraction(1, 4), Fraction(3, 8))
    assert bin_frac(w) == Fraction(5, 16)


def test_dyadic_witness_rejects_bad_intervals():
    with pytest.raises(StatelabError):
        dyadic_witness(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(StatelabError):
        dyadic_witness(Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(StatelabError):
        dyadic_witness(Fraction(-1, 3), Fraction(1, 2))
    with pytest.raises(StatelabError):
        dyadic_witness(Fraction(1, 2), Fraction(3, 2))


@settings(derandomize=True, max_examples=200)
@given(st.fractions(min_value=0, max_value=1, max_denominator=64),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_dyadic_witness_lands_strictly_inside_at_minimal_length(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    w = dyadic_witness(lo, hi)
    assert lo < bin_frac(w) < hi
    for k in range(len(w)):
        assert not any(lo < Fraction(m, 1 << k) < hi for m in range((1 << k) + 1))


def test_minimal_witness_is_unique_and_found():
    # two length-k candidates would bracket an even numerator, i.e. a
    # shorter witness, so at the minimal length the word is forced
    alpha = Alphabet("01")
    cases = [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 8), Fraction(1, 2)),
        (Fraction(3, 8), Fraction(7, 8)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(5, 7), Fraction(6, 7)),
    ]
    for lo, hi in cases:
        w = dyadic_witness(lo, hi)
        inside = [
            u for u in alpha.words_up_to(len(w)) if lo < bin_frac(u) < hi
        ]
        assert inside == [w]


def test_dyadic_witness_matches_brute_force_on_small_denominators():
    # every interval between two fractions in [0, 1] with denominator <= 16;
    # the answer is the first canonical word whose value lies strictly inside
    points = sorted({Fraction(a, d) for d in range(1, 17) for a in range(d + 1)})
    intervals = list(combinations(points, 2))
    assert len(intervals) == 3240
    table = [(w, bin_frac(w)) for w in Alphabet("01").words_up_to(9)]
    for lo, hi in intervals:
        assert dyadic_witness(lo, hi) == next(w for w, x in table if lo < x < hi)


def test_separate_quotients_anchor_and_guarantee():
    lang = ThresholdLanguage(rabin_automaton())
    s = separate_quotients("0", "1")
    assert s == "#11"
    assert lang.member("11" + s) != lang.member("01" + s)


def test_separate_quotients_splits_all_short_pairs():
    lang = ThresholdLanguage(rabin_automaton())
    alpha = Alphabet("01")
    for n in (1, 2, 3, 4):
        words = list(alpha.words_of_length(n))
        for i, u in enumerate(words):
            for v in words[i + 1:]:
                s = separate_quotients(u, v)
                assert lang.member(u + "1" + s) != lang.member(v + "1" + s)


def test_separate_quotients_input_validation():
    with pytest.raises(StatelabError):
        separate_quotients("0", "00")
    with pytest.raises(StatelabError):
        separate_quotients("01", "01")
    # the error names the word as given, in either position
    with pytest.raises(StatelabError, match="not a binary word: '0a'$"):
        separate_quotients("0a", "01")
    with pytest.raises(StatelabError, match="not a binary word: '0a'$"):
        separate_quotients("01", "0a")


def test_distribution_is_a_probability_vector():
    m = rabin_automaton()
    for w in ("", "0", "1", "01#1", "##"):
        dist = m.distribution(w)
        assert sum(dist.values()) == 1
        assert all(0 <= p <= 1 for p in dist.values())
