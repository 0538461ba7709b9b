"""Probabilistic automata with exact rational arithmetic.

Everything in this module is a fractions.Fraction; floating point is
deliberately absent because the experiments compare acceptance
probabilities against the cut point 1/2 exactly, often with values one
dyadic step away from it.

The star exhibit is the three-state machine over {0, 1, #} whose
acceptance probability of a binary word u is its fractional binary
value bin_frac(u) = u(0)/2^n + ... + u(n-1)/2, and whose value on
u1#u2#...#uk is the product of the blocks' values. Distinct binary
values therefore yield distinct left quotients of the cut-point
language, and a short suffix built from a dyadic rational strictly
between two values witnesses the difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Tuple

from .errors import StatelabError
from .words import Alphabet

State = Hashable

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def bin_int(word: str) -> int:
    """Integer value of a binary word, least significant digit first."""
    # int() alone would also take signs, underscores, spaces and
    # non-ASCII digits; of the ASCII digits it refuses 2 to 9 itself
    if word.isascii() and word.isdigit():
        try:
            return int(word[::-1], 2)
        except ValueError:
            pass
    elif not word:
        return 0
    raise StatelabError(f"not a binary word: {word!r}")


def bin_frac(word: str) -> Fraction:
    """Fractional value in [0, 1): w(0)/2^n + w(1)/2^(n-1) + ... + w(n-1)/2."""
    return Fraction(bin_int(word), 1 << len(word))


class ProbAutomaton:
    """Finite stochastic machine: per-letter row-stochastic matrices.

    trans maps (state, letter) to {target: probability}; omitted targets
    are probability 0. Every weight is an int or a Fraction; any other
    is refused at construction. Rows must sum to exactly 1
    (validate_stochastic reports violations; the interchange loader
    enforces it).
    """

    def __init__(
        self,
        alphabet,
        states: List[State],
        initial: State,
        trans: Dict[Tuple[State, str], Dict[State, Fraction]],
        accepting,
        name: str = "prob automaton",
    ):
        self.alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        self.states = list(states)
        self.initial = initial
        self.trans = {key: dict(row) for key, row in trans.items()}
        self.accepting = frozenset(accepting)
        self.name = name
        if initial not in self.states:
            raise StatelabError(f"initial state {initial!r} not in state list")
        declared = set(self.states)
        for q, _ in self.trans:
            if q not in declared:
                raise StatelabError(f"row source {q!r} not in state list")
        for q in self.accepting:
            if q not in declared:
                raise StatelabError(f"accepting state {q!r} not in state list")
        # Sparse per-letter adjacency: letter -> {source: [(target, p), ...]}
        self._rows: Dict[str, Dict[State, list]] = {}
        for a in self.alphabet:
            self._rows[a] = {}
        for (q, a), row in self.trans.items():
            if a not in self._rows:
                raise StatelabError(f"row ({q!r}, {a!r}) reads a letter outside "
                                    f"alphabet {self.alphabet.letters!r}")
            for t, p in row.items():
                if not isinstance(p, (int, Fraction)):
                    raise StatelabError(f"row ({q!r}, {a!r}) gives {t!r} the inexact "
                                        f"weight {p!r}; weights are int or Fraction")
            self._rows[a][q] = [(t, p) for t, p in row.items() if p != 0]

    def __repr__(self) -> str:
        return f"<ProbAutomaton {self.name!r} over {self.alphabet.letters!r}>"

    def validate_stochastic(self) -> List[str]:
        """Empty list when every row is a probability distribution."""
        problems = []
        declared = set(self.states)
        for q in self.states:
            for a in self.alphabet:
                row = self.trans.get((q, a))
                if row is None:
                    problems.append(f"missing row ({q!r}, {a!r})")
                    continue
                total = ZERO
                for t, p in row.items():
                    if t not in declared:
                        problems.append(f"({q!r}, {a!r}) targets unknown {t!r}")
                    if p < 0 or p > 1:
                        problems.append(f"({q!r}, {a!r}) -> {t!r} has weight {p}")
                    total += p
                if total != 1:
                    problems.append(f"row ({q!r}, {a!r}) sums to {total}")
        return problems

    def distribution(self, word: str) -> Dict[State, Fraction]:
        """State distribution after reading word from the initial state."""
        self.alphabet.check_word(word)
        dist = {self.initial: ONE}
        for ch in word:
            rows = self._rows[ch]
            nxt: Dict[State, Fraction] = {}
            for q, mass in dist.items():
                row = rows.get(q)
                if row is None:
                    raise StatelabError(f"missing row ({q!r}, {ch!r})")
                for t, p in row:
                    prior = nxt.get(t)
                    nxt[t] = mass * p if prior is None else prior + mass * p
            dist = nxt
        return dist

    def acceptance_probability(self, word: str) -> Fraction:
        dist = self.distribution(word)
        return sum((p for q, p in dist.items() if q in self.accepting), ZERO)


class ThresholdLanguage:
    """Cut-point language: member(w) iff P(w) > 1/2, strictly."""

    def __init__(self, automaton: ProbAutomaton):
        self.automaton = automaton

    def member(self, word: str) -> bool:
        return self.automaton.acceptance_probability(word) > HALF

    __call__ = member


def rabin_automaton() -> ProbAutomaton:
    """The bin-value machine over {0, 1, #}.

    q0 is initial, q1 is accepting, 'dead' absorbs. Reading a bit b
    updates the accepting mass m to (m + b)/2, which is exactly how the
    fractional binary value grows digit by digit; '#' restarts the
    machine scaled by the value accumulated so far, giving the block
    product identity.
    """
    h = HALF
    one = ONE
    trans = {
        ("q0", "0"): {"q0": one},
        ("q0", "1"): {"q0": h, "q1": h},
        ("q0", "#"): {"dead": one},
        ("q1", "0"): {"q0": h, "q1": h},
        ("q1", "1"): {"q1": one},
        ("q1", "#"): {"q0": one},
        ("dead", "0"): {"dead": one},
        ("dead", "1"): {"dead": one},
        ("dead", "#"): {"dead": one},
    }
    return ProbAutomaton(
        alphabet="01#",
        states=["q0", "q1", "dead"],
        initial="q0",
        trans=trans,
        accepting=["q1"],
        name="rabin",
    )


def dyadic_witness(lo: Fraction, hi: Fraction) -> str:
    """Shortest binary word whose bin_frac lies strictly in (lo, hi).

    At the minimal length k exactly one integer m has lo < m/2^k < hi:
    two such integers would bracket an even one, 2j, and j/2^(k-1) would
    be a shorter witness. So the word is forced: the least integer above
    lo*2^k, written least significant bit first. Cost is linear in the
    answer's length rather than in the number of candidate words.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise StatelabError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
    k = 0
    while True:
        scale = 1 << k
        m = (lo.numerator * scale) // lo.denominator + 1
        if m * hi.denominator < hi.numerator * scale:
            return format(m, f"0{k}b")[::-1]
        k += 1


def separate_quotients(u: str, v: str) -> str:
    """Suffix '#'+w with (u+'1')·suffix and (v+'1')·suffix split by 1/2.

    u and v must be distinct binary words of equal length. Appending '1'
    makes both values at least 1/2 (so their reciprocals stay in range)
    while preserving distinctness; w is then a dyadic value strictly
    between 1/(2*hi) and 1/(2*lo), putting one product strictly above
    the cut point and the other strictly below or at it.
    """
    if len(u) != len(v):
        raise StatelabError("words must have equal length")
    if u == v:
        raise StatelabError("words must be distinct")
    # the values of u + "1" and v + "1", read so that bin_int checks the
    # words as given; distinct binary words of one length differ in value
    top = 1 << len(u)
    lo1, hi1 = sorted(Fraction(bin_int(word) + top, 2 * top) for word in (u, v))
    w = dyadic_witness(1 / (2 * hi1), min(ONE, 1 / (2 * lo1)))
    return "#" + w
