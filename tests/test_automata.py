import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelab import (
    FALSE,
    TRUE,
    AlternatingAutomaton,
    And,
    Atom,
    KindError,
    Or,
    StatelabError,
    atoms,
    backward_accepts,
    conj,
    determinize_finite,
    disj,
    game_tree_accepts,
    get_language,
    profile,
)
from statelab import automata
from statelab.automata import DETERMINIZE_STATE_LIMIT, FOLD_STATE_LIMIT
from statelab.experiments import random_automaton


def even_zeros_automaton():
    """Two-state deterministic automaton: even number of '0' letters."""
    trans = {
        ("even", "0"): Atom("odd"),
        ("even", "1"): Atom("even"),
        ("odd", "0"): Atom("even"),
        ("odd", "1"): Atom("odd"),
    }
    return AlternatingAutomaton(
        "01", "even", trans, {"even"}, states=["even", "odd"], name="even-zeros"
    )


def small_alternating_automaton():
    """Accepts words over {a,b} where every position from some point on is
    'a' and at least one 'b' occurred before; built to mix & and |."""
    trans = {
        ("start", "a"): disj([Atom("start"), Atom("tail")]),
        ("start", "b"): conj([Atom("seen"), Atom("start")]),
        ("seen", "a"): Atom("seen"),
        ("seen", "b"): Atom("seen"),
        ("tail", "a"): Atom("tail"),
        ("tail", "b"): Atom("dead"),
        ("dead", "a"): Atom("dead"),
        ("dead", "b"): Atom("dead"),
    }
    return AlternatingAutomaton(
        "ab",
        "start",
        trans,
        {"seen", "tail"},
        states=["start", "seen", "tail", "dead"],
        name="mixed",
    )


def test_deterministic_run_and_acceptance_agree():
    m = even_zeros_automaton()
    assert m.accepts("1001")
    assert not m.accepts("10")


def test_constant_transitions_become_sinks():
    trans = {("q", "a"): TRUE, ("q", "b"): FALSE}
    m = AlternatingAutomaton("ab", "q", trans, {"q"}, states=["q"], name="sinky")
    # TRUE and FALSE decide every continuation
    assert m.accepts("ab")
    assert not m.accepts("ba")


def test_acceptance_routes_agree_on_mixed_automaton():
    m = small_alternating_automaton()
    d = determinize_finite(m)
    alpha = m.alphabet
    for w in alpha.words_up_to(6):
        expected = game_tree_accepts(m, w)
        assert m.accepts(w) == expected
        assert d.accepts(w) == expected


def test_determinization_is_deterministic_and_bounded():
    m = small_alternating_automaton()
    d = determinize_finite(m)
    for g in d.states:
        for a in d.alphabet:
            f = d.delta(g, a)
            assert isinstance(f, Atom) and f.state in d.states
    # doubly exponential ceiling on the subset-of-subsets construction
    assert len(d.states) <= 2 ** (2 ** len(m.states))
    for w in ("", "a", "b", "ba", "baa", "ab"):
        assert d.accepts(w) == m.accepts(w)


def test_reachable_sets_grow_monotonically():
    m = get_language("count-eq3").automaton
    previous = None
    for n in range(6):
        current = m.reachable(n)
        if previous is not None:
            assert previous <= current
        previous = current


def test_reachable_counts_frozen_prefix():
    m = get_language("count-eq3").automaton
    assert m.reachable_counts(7) == [1, 4, 10, 19, 31, 46, 64, 85]


def test_reachable_set_sizes_match_reachable_counts():
    m = get_language("count-eq3").automaton
    assert [len(m.reachable(n)) for n in range(8)] == m.reachable_counts(7)


def test_delta_result_that_is_not_a_formula_is_rejected():
    m = AlternatingAutomaton("ab", 0, lambda q, a: "not a formula", {0})
    with pytest.raises(StatelabError, match=r"delta\(0, 'a'\) is not a formula"):
        m.reachable_counts(3)
    with pytest.raises(StatelabError, match="not a formula"):
        AlternatingAutomaton("ab", 0, lambda q, a: None, {0}).accepts("a")


def test_a_formula_with_a_node_that_is_not_a_formula_is_refused():
    def junk_automaton():
        return AlternatingAutomaton("ab", 0, lambda q, a: And((Atom(1), "junk")), lambda q: False)

    for run in (
        lambda A: A.reachable_counts(3),
        lambda A: profile(A, 2),
        lambda A: A.accepts("ab"),
        lambda A: A.accepts_up_to(1),
    ):
        with pytest.raises(StatelabError, match=r"^not a formula: 'junk'$"):
            run(junk_automaton())


def test_mapping_and_callable_transitions_are_equivalent():
    table = {
        ("q", "a"): Atom("r"),
        ("q", "b"): Atom("q"),
        ("r", "a"): Atom("q"),
        ("r", "b"): Atom("r"),
    }
    from_map = AlternatingAutomaton("ab", "q", table, {"r"}, states=["q", "r"])
    from_fn = AlternatingAutomaton(
        "ab", "q", lambda q, a: table[(q, a)], {"r"}, states=["q", "r"]
    )
    for w in from_map.alphabet.words_up_to(4):
        assert from_map.accepts(w) == from_fn.accepts(w)


def test_accepting_predicate_and_set_are_equivalent():
    m_set = even_zeros_automaton()
    trans = {
        ("even", "0"): Atom("odd"),
        ("even", "1"): Atom("even"),
        ("odd", "0"): Atom("even"),
        ("odd", "1"): Atom("odd"),
    }
    m_fn = AlternatingAutomaton(
        "01", "even", trans, lambda q: q == "even", states=["even", "odd"]
    )
    for w in m_set.alphabet.words_up_to(4):
        assert m_set.accepts(w) == m_fn.accepts(w)


def test_determinize_requires_declared_states():
    m = AlternatingAutomaton(
        "ab", 0, lambda q, a: Atom(0), lambda q: True, states=None
    )
    with pytest.raises(KindError):
        determinize_finite(m)


def _counting(table):
    """A delta callable over `table` and the list of (q, a) it was asked."""
    asked = []

    def delta(q, a):
        asked.append((q, a))
        return table[(q, a)]

    return delta, asked


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([None, TRUE, FALSE]))
def test_fold_backward_and_game_tree_agree(seed, constant):
    A = random_automaton(random.Random(seed))
    trans = {(q, a): A.delta(q, a) for q in A.states for a in "ab"}
    if constant is not None:
        trans[(0, "a")] = constant
    accepting = {q for q in A.states if A.state_accepting(q)}
    m = AlternatingAutomaton("ab", 0, trans, accepting, states=A.states)
    for w in m.alphabet.words_up_to(6):
        expected = game_tree_accepts(m, w)
        assert m.accepts(w) == expected, w
        assert backward_accepts(m, w) == expected, w


def test_fold_compiles_every_transition_once():
    m = small_alternating_automaton()
    table = {(q, a): m.delta(q, a) for q in m.states for a in "ab"}
    delta, asked = _counting(table)
    # the initial state declared last, so its bit is not bit 0
    fold = AlternatingAutomaton("ab", "start", delta, {"seen", "tail"},
                                states=m.states[::-1])
    for w in fold.alphabet.words_up_to(5):
        assert fold.accepts(w) == game_tree_accepts(m, w)
    assert sorted(asked) == sorted(table)


@pytest.mark.parametrize("declared", [False, True], ids=["lazy", "above-cap"])
def test_undeclared_and_large_automata_take_the_backward_route(declared):
    n = FOLD_STATE_LIMIT + 1
    table = {(q, a): Atom((q + 1) % n if a == "a" else q) for q in range(n) for a in "ab"}
    delta, asked = _counting(table)
    m = AlternatingAutomaton("ab", 0, delta, {1}, states=range(n) if declared else None)
    assert m.accepts("a")
    assert not m.accepts("b")
    # only the transitions on the words' runs are ever asked for
    assert asked == [(0, "a"), (0, "b")]
    for w in m.alphabet.words_up_to(4):
        assert m.accepts(w) == backward_accepts(m, w) == game_tree_accepts(m, w)


def test_missing_transition_raises_only_where_the_run_reaches_it():
    trans = {(0, "a"): Atom(1), (0, "b"): Atom(0), (1, "a"): Atom(0)}
    m = AlternatingAutomaton("ab", 0, trans, {1}, states=[0, 1])
    assert m.accepts("a")
    assert m.accepts("ba")
    assert not m.accepts("aab")
    for w in ("ab", "bab", "aaab"):
        with pytest.raises(StatelabError, match=r"no transition declared for \(1, 'b'\)"):
            m.accepts(w)


def test_atom_outside_the_declared_states_raises_only_where_the_run_reaches_it():
    trans = {(0, "a"): Or((Atom(0), Atom(7))), (0, "b"): Atom(0)}
    m = AlternatingAutomaton("ab", 0, trans, {7}, states=[0])
    assert not m.accepts("")
    assert m.accepts("a")
    assert not m.accepts("b")
    assert m.accepts("ba")
    with pytest.raises(StatelabError, match=r"no transition declared for \(7, 'a'\)"):
        m.accepts("aa")


def _run_closure(table, initial, word):
    """The pairs (q, word[i]) for every state q of layer i of word's run,
    layer 0 being {initial} and layer i + 1 the atoms of layer i's formulas."""
    layer, pairs = {initial}, set()
    for a in word:
        pairs |= {(q, a) for q in layer}
        layer = {p for q in layer for p in atoms(table[(q, a)])}
    return pairs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_backward_route_asks_and_faults_on_exactly_the_run_closure(seed, data):
    base = random_automaton(random.Random(seed))
    full = {(q, a): base.delta(q, a) for q in base.states for a in "ab"}
    deleted = data.draw(st.sampled_from(sorted(full)), label="deleted")
    table = {key: f for key, f in full.items() if key != deleted}
    accepting = {q for q in base.states if base.state_accepting(q)}
    word = data.draw(st.text("ab", max_size=6), label="word")
    closure = _run_closure(full, 0, word)
    expected = game_tree_accepts(AlternatingAutomaton("ab", 0, full, accepting), word)
    warm_words = data.draw(st.lists(st.text("ab", max_size=6), max_size=4), label="warm")
    for warm in ([], warm_words):
        asked = []

        def delta(q, a):
            asked.append((q, a))
            return automata._table_lookup(table, q, a)

        m = AlternatingAutomaton("ab", 0, delta, accepting, states=base.states)
        for w in warm:
            try:
                backward_accepts(m, w)
            except StatelabError:
                pass
        # every pair asked and answered is memoized; the deleted one never is
        memoized = set(asked) - {deleted}
        asked.clear()
        if deleted in closure:
            with pytest.raises(StatelabError, match=re.escape(
                    f"no transition declared for {deleted!r}")):
                backward_accepts(m, word)
            assert deleted in asked
            assert sorted(asked) == sorted(set(asked)) and set(asked) <= closure
        else:
            assert backward_accepts(m, word) == expected
            assert sorted(asked) == sorted(closure - memoized)


def test_determinize_refuses_too_many_states_before_any_transition():
    n = DETERMINIZE_STATE_LIMIT + 1
    table = {(q, a): Atom(q) for q in range(n) for a in "ab"}
    delta, asked = _counting(table)
    m = AlternatingAutomaton("ab", 0, delta, {0}, states=range(n))
    with pytest.raises(StatelabError, match=f"limited to {DETERMINIZE_STATE_LIMIT} states"):
        determinize_finite(m)
    assert asked == []


def test_determinize_refuses_more_result_states_than_the_cap(monkeypatch):
    m = small_alternating_automaton()
    assert len(determinize_finite(m).states) == 8
    monkeypatch.setattr(automata, "DETERMINIZE_STATE_CAP", 1)
    with pytest.raises(StatelabError, match=r"determinization exceeded the state cap \(1\)"):
        determinize_finite(m)


# ---------------------------------------------------------------------------
# accepts_up_to and the reachable-state search

GALLERY_AUTOMATA = ("count-eq3", "not-eq", "lex", "l-hier:2", "maj2")


@pytest.mark.parametrize("name", GALLERY_AUTOMATA)
def test_accepts_up_to_matches_accepts_on_gallery_automata(name):
    m = get_language(name).automaton
    expected = [m.accepts(w) for w in m.alphabet.words_up_to(6)]
    for n in range(7):
        got = m.accepts_up_to(n)
        assert len(got) == m.alphabet.count_up_to(n)
        assert got == expected[:len(got)], n


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_accepts_up_to_matches_accepts_on_random_automata(seed, declared):
    A = random_automaton(random.Random(seed))
    trans = {(q, a): A.delta(q, a) for q in A.states for a in "ab"}
    accepting = {q for q in A.states if A.state_accepting(q)}
    # declared: accepts folds over lattice tables; undeclared: backward recursion
    m = AlternatingAutomaton("ab", 0, trans, accepting, states=A.states if declared else None)
    assert m.accepts_up_to(5) == [m.accepts(w) for w in m.alphabet.words_up_to(5)]


def test_accepts_up_to_edge_depths():
    m = small_alternating_automaton()
    assert m.accepts_up_to(0) == [m.state_accepting("start")] == [False]
    assert AlternatingAutomaton("ab", 0, {}, {0}).accepts_up_to(0) == [True]
    for n in range(5):
        assert len(m.accepts_up_to(n)) == m.alphabet.count_up_to(n)
    with pytest.raises(StatelabError, match="depth must be >= 0"):
        m.accepts_up_to(-1)


def _chain_with_fault_at_2(fault):
    """States 0, 1, 2, ... with q -> q+1 on both letters; (2, 'a') is faulty.

    fault "not-a-formula", "none", "int": delta(2, 'a') returns a
    string, None or 42;
    fault "missing-row": the transition table has no (2, 'a') row.
    """
    table = {(q, a): Atom(q + 1) for q in range(6) for a in "ab"}
    if fault == "missing-row":
        del table[(2, "a")]
        return AlternatingAutomaton("ab", 0, table, {3})
    bad = {"not-a-formula": "not a formula", "none": None, "int": 42}[fault]
    return AlternatingAutomaton(
        "ab", 0, lambda q, a: bad if (q, a) == (2, "a") else table[(q, a)], {3})


@pytest.mark.parametrize("fault,message", [
    ("not-a-formula", r"delta\(2, 'a'\) is not a formula"),
    ("missing-row", r"no transition declared for \(2, 'a'\)"),
    ("none", r"delta\(2, 'a'\) is not a formula: None"),
    ("int", r"delta\(2, 'a'\) is not a formula: 42"),
])
def test_accepts_up_to_raises_only_on_transitions_within_depth_n_minus_1(fault, message):
    m = _chain_with_fault_at_2(fault)
    # state 2 is first reached at depth 2, so depths up to 2 never read its row
    assert m.accepts_up_to(2) == [False] * 7
    assert m.reachable_counts(2) == [1, 2, 3]
    for n in (3, 4):
        with pytest.raises(StatelabError, match=message):
            m.accepts_up_to(n)
        with pytest.raises(StatelabError, match=message):
            m.reachable_counts(n)


def _plain_bfs_counts(A, depth):
    """|reachable(0)|, ..., |reachable(depth)|, one set of new states per layer."""
    seen = layer = {A.initial}
    counts = [1]
    for _ in range(depth):
        layer = {p for q in layer for a in A.alphabet for p in atoms(A.delta(q, a))} - seen
        seen = seen | layer
        counts.append(len(seen))
    return counts


def test_reachable_counts_asks_each_expanded_transition_once_and_memoizes_none():
    for name, pinned in (
        ("count-eq3", [1, 4, 10, 19, 31, 46, 64]),
        ("l-hier:2", [1, 2, 9, 31, 82, 177, 333, 566, 891, 1325, 1884, 2583, 3439]),
    ):
        depth = len(pinned) - 1
        source = get_language(name).automaton
        delta_calls = []

        def delta(q, a):
            delta_calls.append((q, a))
            return source.delta(q, a)

        m = AlternatingAutomaton(source.alphabet, source.initial, delta, lambda q: False)
        assert m.reachable_counts(depth) == _plain_bfs_counts(source, depth) == pinned
        expanded = [(q, a) for q in source.reachable(depth - 1) for a in source.alphabet]
        assert sorted(delta_calls, key=repr) == sorted(expanded, key=repr)
        # nothing was memoized: the first delta() of each pair asks again,
        # the second is answered from the memo
        delta_calls.clear()
        for q, a in expanded * 2:
            m.delta(q, a)
        assert sorted(delta_calls, key=repr) == sorted(expanded, key=repr)
