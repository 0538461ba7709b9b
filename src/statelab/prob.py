"""Probabilistic automata with exact rational arithmetic.

A machine keeps one matrix, its sparse rows, and every mass it reads is
an int or a Fraction on a declared state; floating point is deliberately
absent because the experiments compare acceptance probabilities against
the cut point 1/2 exactly, often with values one dyadic step away from it.

The star exhibit is the three-state machine over {0, 1, #} whose
acceptance probability of a binary word u is its fractional binary
value bin_frac(u) = u(0)/2^n + ... + u(n-1)/2, and whose value on
u1#u2#...#uk is the product of the blocks' values. Distinct binary
values yield distinct left quotients of its cut-point language (the
words w with P(w) > 1/2, which ProbAutomaton.accepts decides), and a
dyadic rational strictly between two values witnesses the difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

from .errors import StatelabError, UsageError
from .words import Alphabet

State = Hashable

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def bin_int(word: str) -> int:
    """Integer value of a binary word, least significant digit first; any
    other string is a UsageError."""
    # int() alone would also take signs, underscores, spaces and
    # non-ASCII digits; of the ASCII digits it refuses 2 to 9 itself
    if word.isascii() and word.isdigit():
        try:
            return int(word[::-1], 2)
        except ValueError:
            pass
    elif not word:
        return 0
    raise UsageError(f"not a binary word: {word!r}")


def bin_frac(word: str) -> Fraction:
    """Fractional value in [0, 1): w(0)/2^n + w(1)/2^(n-1) + ... + w(n-1)/2."""
    return Fraction(bin_int(word), 1 << len(word))


class ProbAutomaton:
    """Finite stochastic machine: per-letter row-stochastic matrices.

    trans maps (state, letter) to {target: probability} and is kept only
    as `rows`, letter -> source -> ((target, weight), ...) without zero
    weights: the one matrix that runs, checks and serializers read. Every
    mass, in a row or in a run's `start`, is an int or a Fraction on a
    declared state, else StatelabError. Rows must sum to exactly 1
    (validate_stochastic reports violations; the loader enforces it).
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
        self.accepting = frozenset(accepting)
        self.name = name
        self._declared = set(self.states)
        if initial not in self._declared:
            raise StatelabError(f"initial state {initial!r} not in state list")
        self.rows: Dict[str, Dict[State, tuple]] = {a: {} for a in self.alphabet}
        for (q, a), row in trans.items():
            if q not in self._declared:
                raise StatelabError(f"row source {q!r} not in state list")
            if a not in self.rows:
                raise StatelabError(f"row ({q!r}, {a!r}) reads a letter outside "
                                    f"alphabet {self.alphabet.letters!r}")
            row = self._masses(f"row ({q!r}, {a!r})", row)
            self.rows[a][q] = tuple((t, p) for t, p in row.items() if p != 0)
        for q in self.accepting:
            if q not in self._declared:
                raise StatelabError(f"accepting state {q!r} not in state list")

    def _masses(self, where: str, masses: Dict[State, Fraction]) -> Dict[State, Fraction]:
        """A copy of `masses`, every one an int or a Fraction on a declared state."""
        for t, p in masses.items():
            if t not in self._declared:
                raise StatelabError(f"{where} target {t!r} not in state list")
            if not isinstance(p, (int, Fraction)):
                raise StatelabError(f"{where} gives {t!r} the inexact weight {p!r}; "
                                    "weights are int or Fraction")
        return dict(masses)

    def __repr__(self) -> str:
        return f"<ProbAutomaton {self.name!r} over {self.alphabet.letters!r}>"

    def validate_stochastic(self) -> List[str]:
        """Empty list when every row is a probability distribution."""
        problems = []
        for q in self.states:
            for a in self.alphabet:
                row = self.rows[a].get(q)
                if row is None:
                    problems.append(f"missing row ({q!r}, {a!r})")
                    continue
                total = ZERO
                for t, p in row:
                    if p < 0 or p > 1:
                        problems.append(f"({q!r}, {a!r}) -> {t!r} has weight {p}")
                    total += p
                if total != 1:
                    problems.append(f"row ({q!r}, {a!r}) sums to {total}")
        return problems

    def distribution(self, word: str,
                     start: Optional[Dict[State, Fraction]] = None) -> Dict[State, Fraction]:
        """State distribution after reading word from the initial state, or
        from the distribution `start` when one is given.

        `start` is checked like a row, before any letter is read, and left
        unchanged; the result is a new dict, so a run continued from
        distribution(x) gives exactly distribution(x + y): one prefix can
        be run once and shared by many suffixes.
        """
        self.alphabet.check_word(word)
        dist = {self.initial: ONE} if start is None else self._masses("start", start)
        for ch in word:
            rows = self.rows[ch]
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

    def acceptance_probability(self, word: str,
                               start: Optional[Dict[State, Fraction]] = None) -> Fraction:
        """Accepting mass after reading word, from `start` as in distribution."""
        dist = self.distribution(word, start)
        return sum((p for q, p in dist.items() if q in self.accepting), ZERO)

    def accepts(self, word: str, start: Optional[Dict[State, Fraction]] = None) -> bool:
        """Cut-point membership, P(word) > 1/2 strictly; `start` as in distribution."""
        return self.acceptance_probability(word, start) > HALF


def rabin_automaton() -> ProbAutomaton:
    """The bin-value machine over {0, 1, #}.

    q0 is initial, q1 is accepting, 'dead' absorbs. Reading a bit b
    updates the accepting mass m to (m + b)/2, which is exactly how the
    fractional binary value grows digit by digit; '#' restarts the
    machine scaled by the value accumulated so far, giving the block
    product identity.
    """
    trans = {
        ("q0", "0"): {"q0": ONE},
        ("q0", "1"): {"q0": HALF, "q1": HALF},
        ("q0", "#"): {"dead": ONE},
        ("q1", "0"): {"q0": HALF, "q1": HALF},
        ("q1", "1"): {"q1": ONE},
        ("q1", "#"): {"q0": ONE},
        ("dead", "0"): {"dead": ONE},
        ("dead", "1"): {"dead": ONE},
        ("dead", "#"): {"dead": ONE},
    }
    return ProbAutomaton(
        alphabet="01#",
        states=["q0", "q1", "dead"],
        initial="q0",
        trans=trans,
        accepting=["q1"],
        name="rabin",
    )


def _witness(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> str:
    """Shortest binary word whose value lies strictly in
    (lo_num/lo_den, hi_num/hi_den), for integer bounds already in range.

    At the minimal length k exactly one integer m has lo < m/2^k < hi:
    two such integers would bracket an even one, 2j, and j/2^(k-1) would
    be a shorter witness. So the word is forced: the least integer above
    lo*2^k, written least significant bit first. Cost is linear in the
    answer's length rather than in the number of candidate words.
    """
    k = 0
    while True:
        m = (lo_num << k) // lo_den + 1
        if m * hi_den < hi_num << k:
            return format(m, f"0{k}b")[::-1]
        k += 1


def dyadic_witness(lo: Fraction, hi: Fraction) -> str:
    """Shortest binary word whose bin_frac lies strictly in (lo, hi)."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise StatelabError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
    return _witness(lo.numerator, lo.denominator, hi.numerator, hi.denominator)


def separate_quotients(u: str, v: str) -> str:
    """Suffix '#'+w with (u+'1')·suffix and (v+'1')·suffix split by 1/2.

    u and v must be distinct binary words of equal length, else
    UsageError. Appending '1' makes both values at least 1/2 (so their
    reciprocals stay in range) while preserving distinctness; w is then a
    dyadic value strictly between 1/(2*hi) and 1/(2*lo), putting one
    product strictly above the cut point and the other strictly below or
    at it.
    """
    if len(u) != len(v):
        raise UsageError("words must have equal length")
    if u == v:
        raise UsageError("words must be distinct")
    # u + "1" and v + "1" have the values low/(2*top) < high/(2*top), read
    # so that bin_int checks the words as given; distinct binary words of
    # one length differ in value. The bounds 1/(2*hi) and 1/(2*lo) are then
    # top/high and top/low, so the search runs on integers alone.
    top = 1 << len(u)
    low, high = sorted((bin_int(u) + top, bin_int(v) + top))
    return "#" + _witness(top, high, top, low)
