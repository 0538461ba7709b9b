"""The lattice lemma behind the alternating lower bounds, on random automata.

Unfold delta along a column u of length at most N: uw is in L iff a
positive formula over reachable(N) holds on S_w, the set of states of
reachable(N) that accept w. So a row's profile over the columns of
length <= N depends only on S_w, and there are at most 2^|reachable(N)|
profiles. The same automata cross-check `accepts_up_to` against the
per-word answers.
"""

import random

import pytest

from statelab import AlternatingAutomaton, Alphabet, backward_accepts
from statelab.experiments import random_automaton

ROW_LENGTH = 5
COLUMN_LENGTHS = range(4)


@pytest.fixture(scope="module")
def automata():
    rng = random.Random(0)
    return [random_automaton(rng) for _ in range(300)]


def from_state(A: AlternatingAutomaton, q) -> AlternatingAutomaton:
    """A with q as its initial state."""
    return AlternatingAutomaton(A.alphabet, q, A.delta, A.state_accepting, states=A.states)


def lemma_violations(A: AlternatingAutomaton, N: int) -> list:
    """What breaks the lemma at column length N: a pair of rows with one
    S_w and two profiles, or more profiles than subsets of reachable(N)."""
    alpha = A.alphabet
    rows = list(alpha.words_up_to(ROW_LENGTH))
    columns = list(alpha.words_up_to(N))
    reach = sorted(A.reachable(N))
    starts = [from_state(A, q) for q in reach]
    profile_of = {}
    violations = []
    for w in rows:
        S_w = frozenset(q for q, B in zip(reach, starts) if backward_accepts(B, w))
        profile = tuple(A.accepts(u + w) for u in columns)
        if profile_of.setdefault(S_w, profile) != profile:
            violations.append((w, sorted(S_w)))
    profiles = set(profile_of.values())
    if len(profiles) > 2 ** len(reach):
        violations.append((len(profiles), len(reach)))
    return violations


@pytest.mark.parametrize("N", COLUMN_LENGTHS)
def test_a_profile_depends_only_on_the_reachable_states_that_accept_the_row(automata, N):
    failures = {i: v for i, A in enumerate(automata) if (v := lemma_violations(A, N))}
    assert failures == {}


def test_accepts_up_to_matches_the_per_word_answers(automata):
    words = list(Alphabet("ab").words_up_to(ROW_LENGTH))
    for A in automata:
        assert A.accepts_up_to(ROW_LENGTH) == [A.accepts(w) for w in words]
