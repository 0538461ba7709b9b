import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelab import (
    AlternatingAutomaton,
    Atom,
    FormatError,
    ProbAutomaton,
    conj,
    determinize_finite,
    disj,
    load_automaton,
    load_prob_automaton,
    rabin_automaton,
    serialize_automaton,
    serialize_prob_automaton,
)
from statelab.experiments import random_automaton

DOC = """\
# accepts words over {a, b} with at least one b followed only by a's
alphabet: a b
states: q0 q1 q2
initial: q0
accepting: q2
trans q0 a -> q0
trans q0 b -> q1 | q0
trans q1 a -> q1 & (q2 | q1)
trans q1 b -> F
trans q2 a -> q2
trans q2 b -> T
"""


def test_load_reads_headers_and_rows():
    m = load_automaton(DOC)
    assert list(m.alphabet) == ["a", "b"]
    assert m.states == ["q0", "q1", "q2"]
    assert m.initial == "q0"
    assert m.state_accepting("q2")
    assert not m.state_accepting("q0")
    assert m.delta("q0", "b") == disj([Atom("q1"), Atom("q0")])
    assert m.delta("q1", "a") == conj([Atom("q1"), disj([Atom("q2"), Atom("q1")])])


def test_round_trip_is_canonical_and_idempotent():
    once = serialize_automaton(load_automaton(DOC))
    twice = serialize_automaton(load_automaton(once))
    assert once == twice
    # canonical form sorts states and keeps one row per (state, letter)
    assert once.index("states: q0 q1 q2") >= 0
    assert once.count("trans ") == 6


def test_comments_and_blank_lines_are_ignored():
    doc = "# heading\n\nalphabet: a\nstates: q\ninitial: q\naccepting: q\n\n# row\ntrans q a -> q\n"
    m = load_automaton(doc)
    assert m.accepts("aaa")


def test_hash_letter_usable_in_transition_rows():
    doc = (
        "alphabet: 0 #\n"
        "states: q r\n"
        "initial: q\n"
        "accepting: r\n"
        "trans q 0 -> q\n"
        "trans q # -> r\n"
        "trans r 0 -> r\n"
        "trans r # -> r\n"
    )
    m = load_automaton(doc)
    assert m.accepts("00#")
    assert not m.accepts("00")


def test_missing_transition_is_reported():
    doc = "alphabet: a b\nstates: q\ninitial: q\naccepting: q\ntrans q a -> q\n"
    with pytest.raises(FormatError, match=r"missing transition"):
        load_automaton(doc)


def test_duplicate_transition_is_reported():
    doc = (
        "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
        "trans q a -> q\ntrans q a -> q\n"
    )
    with pytest.raises(FormatError, match=r"line 6"):
        load_automaton(doc)


def test_undeclared_names_are_reported():
    base = "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
    with pytest.raises(FormatError):
        load_automaton(base + "trans q b -> q\n")
    with pytest.raises(FormatError):
        load_automaton(base + "trans r a -> q\n")
    with pytest.raises(FormatError):
        load_automaton(base + "trans q a -> r\n")


def test_formula_syntax_errors_carry_positions():
    base = "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
    with pytest.raises(FormatError, match=r"column"):
        load_automaton(base + "trans q a -> q &\n")
    with pytest.raises(FormatError, match=r"column"):
        load_automaton(base + "trans q a -> (q\n")


def test_missing_headers_are_reported():
    with pytest.raises(FormatError):
        load_automaton("alphabet: a\nstates: q\ninitial: q\ntrans q a -> q\n")
    with pytest.raises(FormatError):
        load_automaton("states: q\ninitial: q\naccepting: q\ntrans q a -> q\n")


def test_trans_and_ptrans_rows_do_not_mix():
    doc = (
        "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
        "ptrans q a -> q:1/1\n"
    )
    with pytest.raises(FormatError):
        load_automaton(doc)
    doc2 = "alphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans q a -> q\n"
    with pytest.raises(FormatError):
        load_prob_automaton(doc2)


def test_prob_round_trip_preserves_exact_weights():
    text = serialize_prob_automaton(rabin_automaton())
    m = load_prob_automaton(text)
    assert m.acceptance_probability("11") == Fraction(3, 4)
    assert m.acceptance_probability("11#11") == Fraction(9, 16)
    assert serialize_prob_automaton(m) == text


def test_prob_rows_must_be_stochastic():
    doc = (
        "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
        "ptrans q a -> q:1/2\n"
    )
    with pytest.raises(FormatError, match=r"sum"):
        load_prob_automaton(doc)


def test_prob_weight_parse_errors():
    base = "alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
    with pytest.raises(FormatError):
        load_prob_automaton(base + "ptrans q a -> q\n")
    with pytest.raises(FormatError):
        load_prob_automaton(base + "ptrans q a -> q:one\n")


def test_serialize_renames_non_identifier_states():
    trans = {
        ((0, 0), "a"): Atom((1, 1)),
        ((0, 0), "b"): Atom((0, 0)),
        ((1, 1), "a"): Atom((1, 1)),
        ((1, 1), "b"): Atom((0, 0)),
    }
    m = AlternatingAutomaton(
        "ab", (0, 0), trans, {(1, 1)}, states=[(0, 0), (1, 1)], name="pairs"
    )
    text = serialize_automaton(m)
    reparsed = load_automaton(text)
    for w in m.alphabet.words_up_to(4):
        assert reparsed.accepts(w) == m.accepts(w)
    assert "(" not in text.split("trans")[0]  # headers use renamed states


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_automaton_round_trip(seed):
    m = random_automaton(random.Random(seed))
    text = serialize_automaton(m)
    loaded = load_automaton(text)
    assert serialize_automaton(loaded) == text
    for w in m.alphabet.words_up_to(5):
        assert loaded.accepts(w) == m.accepts(w), w


@pytest.mark.parametrize("build", [
    lambda: load_automaton(DOC),
    lambda: random_automaton(random.Random(3)),
    lambda: determinize_finite(load_automaton(DOC)),
], ids=["loaded", "random", "determinized"])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-runs"])
def test_declared_automata_survive_pickling(build, warm):
    m = build()
    words = list(m.alphabet.words_up_to(5))
    if warm:
        # fills the transition memo and the lattice tables before pickling
        for w in words:
            m.accepts(w)
    clone = pickle.loads(pickle.dumps(m))
    assert clone.name == m.name and clone.states == m.states
    for w in words:
        assert clone.accepts(w) == m.accepts(w), w


def random_dyadic_machine(rng: random.Random) -> ProbAutomaton:
    """Up to four states over {0, 1}; every weight is a multiple of 1/8."""
    states = list(range(rng.randint(1, 4)))
    trans = {}
    for q in states:
        for a in "01":
            row = dict.fromkeys(states, 0)
            for _ in range(8):
                row[rng.choice(states)] += 1
            trans[(q, a)] = {t: Fraction(k, 8) for t, k in row.items()}
    accepting = [q for q in states if rng.random() < 0.5]
    return ProbAutomaton("01", states, 0, trans, accepting, name="random")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_prob_automaton_round_trip(seed):
    m = random_dyadic_machine(random.Random(seed))
    text = serialize_prob_automaton(m)
    loaded = load_prob_automaton(text)
    assert serialize_prob_automaton(loaded) == text
    for w in m.alphabet.words_up_to(5):
        assert loaded.acceptance_probability(w) == m.acceptance_probability(w), w


ALT_DOC = """\
alphabet: a b
states: q0 q1
initial: q0
accepting: q1
trans q0 a -> q1
trans q0 b -> q0
trans q1 a -> q1
trans q1 b -> q1
"""

PROB_DOC = """\
alphabet: a
states: q0 q1
initial: q0
accepting: q1
ptrans q0 a -> q0:1/2 q1:1/2
ptrans q1 a -> q1:1/1
"""

# (id, loader, line as written in the base document, its replacement,
#  text the FormatError must contain)
MALFORMED = [
    ("state-name", load_automaton, "states: q0 q1", "states: q0 T", "invalid state name 'T'"),
    ("empty-formula", load_automaton, "trans q0 a -> q1", "trans q0 a ->", "line 5: empty formula"),
    ("unexpected-token", load_automaton, "trans q0 a -> q1", "trans q0 a -> & q1", "unexpected '&'"),
    ("trailing-input", load_automaton, "trans q0 a -> q1", "trans q0 a -> q1 q0", "trailing input 'q0'"),
    ("long-alphabet-letter", load_automaton, "alphabet: a b", "alphabet: ab",
     "letters are single characters, got 'ab'"),
    ("repeated-letter", load_automaton, "alphabet: a b", "alphabet: a a", "repeated letters"),
    ("empty-alphabet", load_automaton, "alphabet: a b", "alphabet:", "at least one letter"),
    ("duplicate-alphabet", load_automaton, "alphabet: a b", "alphabet: a b\nalphabet: a b",
     "line 2: duplicate alphabet line"),
    ("duplicate-states", load_automaton, "states: q0 q1", "states: q0 q1\nstates: q0 q1",
     "duplicate states line"),
    ("two-initial-states", load_automaton, "initial: q0", "initial: q0 q1",
     "initial: takes exactly one state"),
    ("duplicate-initial", load_automaton, "initial: q0", "initial: q0\ninitial: q0",
     "duplicate initial line"),
    ("duplicate-accepting", load_automaton, "accepting: q1", "accepting: q1\naccepting: q1",
     "duplicate accepting line"),
    ("short-row", load_automaton, "trans q0 a -> q1", "trans q0 a", "expected '<keyword> <state>"),
    ("missing-arrow", load_automaton, "trans q0 a -> q1", "trans q0 a => q1",
     "expected '->' after the letter"),
    ("long-row-letter", load_automaton, "trans q0 a -> q1", "trans q0 ab -> q1",
     "line 5: letters are single characters, got 'ab'"),
    ("unknown-line", load_automaton, "accepting: q1", "accepting: q1\nfinal: q1",
     "unrecognized line 'final: q1'"),
    ("missing-states", load_automaton, "states: q0 q1\n", "", "missing states: line"),
    ("repeated-state", load_automaton, "states: q0 q1", "states: q0 q1 q0", "states: has duplicates"),
    ("undeclared-initial", load_automaton, "initial: q0", "initial: q9",
     "initial state 'q9' not declared"),
    ("undeclared-accepting", load_automaton, "accepting: q1", "accepting: q9",
     "accepting state 'q9' not declared"),
    ("zero-denominator", load_prob_automaton, "q1:1/1", "q1:1/0", "zero denominator in 'q1:1/0'"),
    ("empty-distribution", load_prob_automaton, "ptrans q1 a -> q1:1/1", "ptrans q1 a ->",
     "empty distribution"),
    ("undeclared-ptrans-target", load_prob_automaton, "q1:1/1", "q9:1/1",
     "ptrans (q1, a) targets undeclared state 'q9'"),
    ("ptrans-target-twice", load_prob_automaton, "q0:1/2 q1:1/2", "q1:1/2 q1:1/2",
     "ptrans (q0, a) lists 'q1' twice"),
]


@pytest.mark.parametrize("load,line,replacement,message",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_document_names_its_fault(load, line, replacement, message):
    base = ALT_DOC if load is load_automaton else PROB_DOC
    assert line in base
    assert load(base) is not None
    with pytest.raises(FormatError) as exc:
        load(base.replace(line, replacement, 1))
    assert message in str(exc.value)


def test_serializing_a_lazy_automaton_is_a_format_error():
    lazy = AlternatingAutomaton("a", 0, lambda q, a: Atom(q + 1), lambda q: q > 0)
    with pytest.raises(FormatError, match="declared finite state list"):
        serialize_automaton(lazy)
