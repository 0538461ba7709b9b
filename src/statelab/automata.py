"""Alternating automata over lazily generated state spaces.

States are opaque hashable values; the transition function is arbitrary
code mapping (state, letter) to a positive boolean formula over states,
so the state space may be infinite as long as every finite-depth
reachable fragment is finite.

Acceptance has two routes, chosen per automaton. One that declares at
most FOLD_STATE_LIMIT states compiles, on its first accepts() call, the
lattice tables sat[a]: X -> {q : X satisfies delta(q, a)} on bitmasks
of its states, and decides a word by the right fold

    X = F;  for a in reversed(w): X = sat[a][X];  accept iff q0 in X.

Every other automaton, the lazy gallery ones included, uses the
memoized backward value recursion (backward_accepts)

    value(q, |w|) = F(q)
    value(q, i)   = eval(delta(q, w(i)), p -> value(p, i+1))

accepts_up_to(n) decides every word up to length n at once, by the
same right fold over the reachable fragment: with the states of
reachable(n) numbered in breadth-first order, the set of states that
accept a suffix is one bitmask, computed once per distinct (letter,
mask) pair of each length and shared by every word ending in it.

All of them coincide with the two-player acceptance game (Eve resolves
ORs, Adam resolves ANDs, Eve wins iff the play ends accepting); the
test suite checks that against an explicit unmemoized game-tree
evaluation on small instances.

delta() memoizes transitions for the routes that read them again.
backward_accepts also memoizes, per (q, a), the states delta(q, a)
names, and builds its forward layers from them; its backward pass and
game-tree play read the transition memo directly. The lattice tables
are built once per automaton, by whichever of accepts() and
determinize_finite() asks first.

The reachable-state search expands each (state, letter) pair once, so
it asks the transition function directly and leaves the memo alone. Most
transitions of the lazy gallery automata are a single Atom, so the
search takes such a result inline (one seen-set test, no atoms()
generator), gives TRUE and FALSE no successors, and sends only And and
Or nodes, or a result that is no formula at all, through the formula
check and atoms().
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Mapping, Optional, Union

from .errors import KindError, StatelabError
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    Or,
    atoms,
    evaluate,
)
from .words import Alphabet, _mask

State = Hashable

# Largest declared state set that accepts() compiles lattice tables for.
# The build evaluates 2^|Q| * |Q| * |A| subset memberships, under a
# millisecond per letter at 8 states; random test automata have 1-5.
FOLD_STATE_LIMIT = 8

# Largest declared state set determinize_finite accepts. Its tables hold
# 2^|Q| subsets per letter and every result state is a 2^|Q|-bit mask.
DETERMINIZE_STATE_LIMIT = 12

# Most result states determinize_finite builds before it refuses A.
DETERMINIZE_STATE_CAP = 1_000_000


class AlternatingAutomaton:
    """(Q, q0, delta, F) with delta: Q x A -> positive formula over Q.

    delta may be a callable or a {(state, letter): formula} mapping;
    accepting may be a callable or a set of states. `states` is optional:
    when given it declares the full (finite) state set, which is what
    enables determinization and serialization. Automata are immutable
    after construction; the only internal mutations are the transition
    memo cache, the successor memo of backward_accepts and the lattice
    tables built on the first accepts() or determinize_finite() call,
    none of which changes results.
    """

    def __init__(
        self,
        alphabet: Union[Alphabet, str],
        initial: State,
        delta: Union[Callable[[State, str], Formula], Mapping],
        accepting: Union[Callable[[State], bool], Iterable[State]],
        states: Optional[Iterable[State]] = None,
        name: str = "automaton",
    ):
        self.alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        self.initial = initial
        self.name = name
        # a declared table or set keeps the automaton picklable
        self._delta_fn = delta if callable(delta) else partial(_table_lookup, dict(delta))
        self._accepting_fn = accepting if callable(accepting) else frozenset(accepting).__contains__
        self.states = list(states) if states is not None else None
        self._cache: dict = {}
        # (q, a) -> the states delta(q, a) names, for backward_accepts
        self._successors: dict = {}
        self._fold_pending = (self.states is not None
                              and len(self.states) <= FOLD_STATE_LIMIT)
        self._fold: Optional[tuple] = None
        self._tables: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"<AlternatingAutomaton {self.name!r} over {self.alphabet.letters!r}>"

    def delta(self, q: State, a: str) -> Formula:
        """The transition formula of (q, a), memoized."""
        key = (q, a)
        f = self._cache.get(key)
        if f is None:
            f = self._cache[key] = self._transition(q, a)
        return f

    def _transition(self, q: State, a: str) -> Formula:
        """The transition formula of (q, a), checked but not memoized."""
        return _checked(self._delta_fn(q, a), q, a)

    def state_accepting(self, q: State) -> bool:
        return bool(self._accepting_fn(q))

    def accepts(self, word: str) -> bool:
        """Membership by the lattice fold when compiled, else backward_accepts."""
        if self._fold_pending:
            self._fold_pending = False
            try:
                self._fold = _lattice(self)
            except Exception:
                # Any failure (a missing transition, an atom outside the
                # declared states, a delta or accepting function that
                # raises) leaves the automaton on the backward recursion,
                # which raises it where it always has: on the words whose
                # runs reach the fault, and on no other word.
                pass
        if self._fold is None:
            return backward_accepts(self, word)
        self.alphabet.check_word(word)
        sat, X, initial = self._fold
        for a in reversed(word):
            X = sat[a][X]
        return bool(initial >> X & 1)

    def reachable(self, n: int) -> set:
        """States reachable through formula atoms by words of length <= n."""
        return set(self._search(n)[0])

    def reachable_counts(self, n_max: int) -> list:
        """[|reachable(0)|, ..., |reachable(n_max)|] in one incremental BFS."""
        return self._search(n_max)[1]

    def accepts_up_to(self, n: int) -> list:
        """[accepts(w) for w in alphabet.words_up_to(n)], in that order.

        Acc(s), the set of states of reachable(n - |s|) that accept the
        suffix s, is a bitmask over the states numbered in breadth-first
        discovery order, so the initial state is bit 0 and reachable(d)
        is a prefix of the numbering for every d. Acc(eps) = F, and
        Acc(a.s) holds q of reachable(n - |s| - 1) iff delta(q, a) holds
        under Acc(s). Words of one length share their suffixes, and the
        step is memoized on (a, Acc(s)) within each length, so the work
        grows with the number of distinct masks, not with the number of
        words. Raises where reachable_counts(n) raises.
        """
        order, counts = self._search(n)
        index = {q: i for i, q in enumerate(order)}
        # the transitions out of reachable(n - 1), the only ones a word reads
        expanded = order[:counts[n - 1]] if n else []
        rows = {a: [self._transition(q, a) for q in expanded] for a in self.alphabet}
        layer = [_mask(self.state_accepting, order)]
        accepted = [bool(layer[0] & 1)]
        for k in range(1, n + 1):
            sources = counts[n - k]
            nxt = []
            for a in self.alphabet:
                row = rows[a][:sources]
                step = {}
                for X in layer:
                    Y = step.get(X)
                    if Y is None:
                        Y = step[X] = _holding(row, index, X)
                    nxt.append(Y)
            layer = nxt
            accepted.extend(bool(X & 1) for X in layer)
        return accepted

    def _search(self, n: int) -> tuple:
        """(reachable(n) in discovery order, its size after each layer).

        Breadth first; each (q, a) is expanded once, so the transitions
        are asked of the transition function directly and stay out of the
        memo. A bare Atom result is taken inline and the constants have
        no successors; anything else is checked as a formula and walked
        by atoms(), in the same discovery order.
        """
        if n < 0:
            raise StatelabError("depth must be >= 0")
        delta = self._delta_fn
        letters = tuple(self.alphabet)
        seen = {self.initial}
        order = [self.initial]
        add, append = seen.add, order.append
        counts = [1]
        start = 0
        for _ in range(n):
            end = len(order)
            for q in order[start:end]:
                for a in letters:
                    f = delta(q, a)
                    if type(f) is Atom:
                        p = f.state
                        if p not in seen:
                            add(p)
                            append(p)
                    elif f is not TRUE and f is not FALSE:
                        for p in atoms(_checked(f, q, a)):
                            if p not in seen:
                                add(p)
                                append(p)
            counts.append(len(seen))
            start = end
        return order, counts


def _checked(f, q: State, a: str) -> Formula:
    """f itself, the result of delta(q, a), when it is a formula; else raise."""
    if not (isinstance(f, (Atom, And, Or)) or f is TRUE or f is FALSE):
        raise StatelabError(f"delta({q!r}, {a!r}) is not a formula: {f!r}")
    return f


def _table_lookup(table: Mapping, q: State, a: str) -> Formula:
    try:
        return table[(q, a)]
    except KeyError:
        raise StatelabError(f"no transition declared for ({q!r}, {a!r})") from None


def _holding(row: list, index: Mapping, X: int) -> int:
    """Bit i set iff row[i] holds when the true states are those q with bit index[q] in X."""

    def truth(p: State) -> int:
        return X >> index[p] & 1

    return _mask(lambda f: evaluate(f, truth), row)


def backward_accepts(A: AlternatingAutomaton, word: str) -> bool:
    """Membership via the memoized backward value recursion."""
    A.alphabet.check_word(word)
    # Forward pass: which states can matter at each position. The states
    # each (q, a) names are memoized once delta(q, a) has returned, so a
    # fault raises at the same pair, in the same order, on every call.
    successors = A._successors
    layers = [{A.initial}]
    for ch in word:
        nxt = set()
        for q in layers[-1]:
            named = successors.get((q, ch))
            if named is None:
                f = A.delta(q, ch)
                named = successors[q, ch] = (f.state,) if type(f) is Atom else tuple(atoms(f))
            nxt.update(named)
        layers.append(nxt)
    # Backward pass: value(q, i) for exactly those states, whose
    # transitions the forward pass has memoized.
    memo = A._cache
    val = {q: A.state_accepting(q) for q in layers[-1]}
    for i in range(len(word) - 1, -1, -1):
        ch = word[i]
        lookup = val.__getitem__
        nxt = {}
        for q in layers[i]:
            f = memo[q, ch]
            if type(f) is Atom:
                nxt[q] = val[f.state]
            elif f is TRUE or f is FALSE:
                nxt[q] = f is TRUE
            else:
                nxt[q] = evaluate(f, lookup)
        val = nxt
    return val[A.initial]


def game_tree_accepts(A: AlternatingAutomaton, word: str) -> bool:
    """Explicit min/max play of the acceptance game; no position is memoized.

    Exponential; exists purely as an independent cross-check for
    accepts() on small automata and short words. formula(f, i) plays
    delta(q, word[i]) for some q; an atom moves to the next position.
    """
    A.alphabet.check_word(word)
    if not word:
        return A.state_accepting(A.initial)
    accepting, memo, delta = A._accepting_fn, A._cache, A.delta
    last = len(word) - 1

    def formula(f: Formula, i: int) -> bool:
        t = type(f)
        if t is Atom:
            q = f.state
            if i == last:
                return bool(accepting(q))
            i += 1
            a = word[i]
            g = memo.get((q, a))
            if g is None:
                g = delta(q, a)
            return formula(g, i)
        if t is And:
            for c in f.children:
                if not formula(c, i):
                    return False
            return True
        if t is Or:
            for c in f.children:
                if formula(c, i):
                    return True
            return False
        if f is TRUE or f is FALSE:
            return f is TRUE
        raise StatelabError(f"not a formula: {f!r}")

    return formula(delta(A.initial, word[0]), 0)


def _lattice(A: AlternatingAutomaton) -> tuple:
    """(sat, accepting, initial) over A's declared states.

    Bit i of a subset mask X stands for A.states[i]. sat[a][X] is the
    mask of the states whose transition formula on a holds when exactly
    the states in X are true, `accepting` is the mask of the accepting
    states and `initial` the 2^|Q|-bit set of the subsets that hold the
    initial state. Each formula is evaluated on all 2^|Q| subsets at
    once, as the 2^|Q|-bit set of the subsets that satisfy it, so every
    atom is checked against the declared states. The tables are built
    once and kept on A; a build that raises keeps nothing.
    """
    if A._tables is not None:
        return A._tables
    states = A.states
    index = {q: i for i, q in enumerate(states)}
    if A.initial not in index:
        raise StatelabError(f"initial state {A.initial!r} is not a declared state")
    nsub = 1 << len(states)
    every = (1 << nsub) - 1
    # containing[i]: the subsets that contain state i
    containing = [_mask(lambda X: X >> i & 1, range(nsub)) for i in range(len(states))]

    def satisfying(f: Formula) -> int:
        if f is TRUE:
            return every
        if f is FALSE:
            return 0
        if isinstance(f, Atom):
            if f.state not in index:
                raise StatelabError(f"no truth value for atom {f.state!r}")
            return containing[index[f.state]]
        if isinstance(f, And):
            return reduce(and_, map(satisfying, f.children))
        if isinstance(f, Or):
            return reduce(or_, map(satisfying, f.children))
        raise StatelabError(f"not a formula: {f!r}")

    sat = {}
    for a in A.alphabet:
        rows = [satisfying(A.delta(q, a)) for q in states]
        sat[a] = [_mask(lambda row: row >> X & 1, rows) for X in range(nsub)]
    A._tables = sat, _mask(A.state_accepting, states), containing[index[A.initial]]
    return A._tables


def determinize_finite(A: AlternatingAutomaton) -> AlternatingAutomaton:
    """Language-equivalent deterministic automaton, testing oracle only.

    States of the result are monotone boolean functions over subsets of
    A's states, encoded as bitmask ints: bit X of g says whether the
    subset X satisfies g's formula. Reading a letter precomposes with
    the lattice map X -> {q : X satisfies delta(q, a)}. The result has
    at most 2^(2^|Q|) states; only the reachable part is built. A with
    more than DETERMINIZE_STATE_LIMIT states is refused before any
    table is built.
    """
    if A.states is None:
        raise KindError(
            "determinization needs an automaton with a declared finite state list"
        )
    if len(A.states) > DETERMINIZE_STATE_LIMIT:
        raise StatelabError(
            f"determinization is limited to {DETERMINIZE_STATE_LIMIT} states, "
            f"got {len(A.states)}"
        )
    sat, f_mask, g0 = _lattice(A)

    def step(g: int, a: str) -> int:
        # bit X of the result is bit sat[a][X] of g
        return _mask(lambda Y: g >> Y & 1, sat[a])

    trans = {}
    discovered = [g0]
    seen = {g0}
    # breadth first: the loop walks `discovered` while it grows
    for g in discovered:
        for a in A.alphabet:
            h = step(g, a)
            trans[(g, a)] = Atom(h)
            if h not in seen:
                if len(seen) >= DETERMINIZE_STATE_CAP:
                    raise StatelabError(
                        f"determinization exceeded the state cap ({DETERMINIZE_STATE_CAP})"
                    )
                seen.add(h)
                discovered.append(h)

    return AlternatingAutomaton(
        alphabet=A.alphabet,
        initial=g0,
        delta=trans,
        accepting={g for g in discovered if g >> f_mask & 1},
        states=discovered,
        name=f"det({A.name})",
    )
