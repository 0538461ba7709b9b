"""Alternating automata over lazily generated state spaces.

States are opaque hashable values; the transition function is arbitrary
code mapping (state, letter) to a positive boolean formula over states,
so the state space may be infinite as long as every finite-depth
reachable fragment is finite.

Every acceptance route asks which states accept a suffix. Over numbered
states that set is one bitmask, and one function, _holding, computes the
step: Acc(eps) = F, and Acc(a.s) holds q iff delta(q, a) holds under
Acc(s). An automaton that declares its states has its table checked
once, on first use by any reader (_compile, through _table), and decides
a word by the right fold

    X = F;  for a in reversed(w): X = Acc_a(X);  accept iff q0 in X,

memoizing the step per (letter, mask): one _holding call per distinct
pair a word reaches, nothing exponential in |Q|. Every other automaton,
the lazy gallery ones included, uses the memoized backward value
recursion (backward_accepts)

    value(q, |w|) = F(q)
    value(q, i)   = eval(delta(q, w(i)), p -> value(p, i+1))

accepts_up_to(n) runs the same fold over reachable(n) numbered in
breadth-first order. determinize_finite needs no step over masks: it
substitutes the rows into minimal clauses instead.

All of them coincide with the two-player acceptance game (Eve resolves
ORs, Adam resolves ANDs, Eve wins iff the play ends accepting); the
test suite checks that against an explicit unmemoized game-tree
evaluation on small instances.

delta() memoizes transitions for the routes that read them again.
backward_accepts also memoizes, per (q, a), the states delta(q, a)
names, and builds its forward layers from them; its backward pass and
game-tree play read the transition memo directly.

The reachable-state search expands each (state, letter) pair once, so
it reads transitions unmemoized (_reader) and leaves the memo alone. Most
transitions of the lazy gallery automata are a single Atom, so the
search takes such a result inline (one seen-set test, no atoms()
generator), gives TRUE and FALSE no successors, and sends only And and
Or nodes, or a result that is no formula at all, through the formula
check and atoms().
"""

from __future__ import annotations

from functools import partial, reduce
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

# Most result states determinize_finite builds before it refuses A.
DETERMINIZE_STATE_CAP = 1_000_000


class AlternatingAutomaton:
    """(Q, q0, delta, F) with delta: Q x A -> positive formula over Q.

    delta may be a callable or a {(state, letter): formula} mapping;
    accepting may be a callable or a set of states. `states` is optional:
    when given it declares the full (finite) state set, which is what
    enables determinization and serialization, and has the whole table
    checked on first use by any reader. Automata are immutable after
    construction; the only internal mutations are the transition memo
    cache, the successor memo of backward_accepts and the compiled table
    with its fold memos, none of which changes results.
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
        # _compile(self), built by _table on first use
        self._fold: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"<AlternatingAutomaton {self.name!r} over {self.alphabet.letters!r}>"

    def delta(self, q: State, a: str) -> Formula:
        """The transition formula of (q, a), memoized."""
        key = (q, a)
        f = self._cache.get(key)
        if f is None:
            f = self._cache[key] = _checked(self._delta_fn(q, a), q, a)
        return f

    def _table(self) -> tuple:
        """_compile(self), built on the first call: the one check of a declared table."""
        if self._fold is None:
            self._fold = _compile(self)
        return self._fold

    def _reader(self) -> Callable[[State, str], Formula]:
        """(q, a) -> delta(q, a), unmemoized: a declared table's compiled
        row, else the transition function's own unchecked answer."""
        if self.states is None:
            return self._delta_fn
        index, rows = self._table()[:2]
        return lambda q, a: rows[a][index[q]]

    def state_accepting(self, q: State) -> bool:
        return bool(self._accepting_fn(q))

    def accepts(self, word: str) -> bool:
        """Membership by the right fold over a declared table, else backward_accepts."""
        if self.states is None:
            return backward_accepts(self, word)
        index, rows, X, initial, memos = self._table()
        self.alphabet.check_word(word)
        for a in reversed(word):
            memo = memos[a]
            Y = memo.get(X)
            if Y is None:
                Y = memo[X] = _holding(rows[a], index, X)
            X = Y
        return bool(X & initial)

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
        read = self._reader()
        rows = {a: [_checked(read(q, a), q, a) for q in expanded] for a in self.alphabet}
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
        are read by _reader and stay out of the memo. A bare Atom result
        is taken inline and the constants have no successors; anything
        else is checked as a formula and walked by atoms(), in the same
        discovery order.
        """
        if n < 0:
            raise StatelabError("depth must be >= 0")
        delta = self._reader()
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


def _compile(A: AlternatingAutomaton) -> tuple:
    """(index, rows, accepting, initial, memos) of A's declared table.

    index numbers A.states in declared order, rows[a] lists delta(q, a)
    in that order with every atom checked against the declared states,
    accepting is the mask of the accepting states, initial the initial
    state's bit, and memos[a] an empty step memo X -> _holding(rows[a],
    index, X) for the fold. The only check of a declared table: every
    reader of one takes its verdict through A._table().
    """
    states = A.states
    index = {q: i for i, q in enumerate(states)}
    if A.initial not in index:
        raise StatelabError(f"initial state {A.initial!r} not in state list")
    rows = {}
    for a in A.alphabet:
        row = rows[a] = [A.delta(q, a) for q in states]
        for q, f in zip(states, row):
            for p in atoms(f):
                if p not in index:
                    raise StatelabError(f"row ({q!r}, {a!r}) target {p!r} not in state list")
    memos = {a: {} for a in A.alphabet}
    return index, rows, _mask(A.state_accepting, states), 1 << index[A.initial], memos


def determinize_finite(A: AlternatingAutomaton) -> AlternatingAutomaton:
    """Language-equivalent deterministic automaton, testing oracle only.

    The state reached by u is phi_u, a monotone function over A's states:
    phi_eps = q0 and phi_ua = phi_u[q := delta(q, a)], so u.s is accepted
    iff phi_u holds of the states accepting s. phi_u is kept as its sorted
    tuple of minimal clauses (int masks over the declared states), its
    canonical form, and accepts iff a clause holds of accepting states
    only. Only the reachable part is built. Rows shaped as ANDs of ORs
    multiply out, so they can cost more than a table over all subsets.
    """
    if A.states is None:
        raise KindError(
            "determinization needs an automaton with a declared finite state list"
        )
    index, rows, f_mask, initial, _ = A._table()
    clauses = {a: [_clauses(f, index) for f in rows[a]] for a in A.alphabet}

    def step(phi: tuple, a: str) -> tuple:
        # phi[q := delta(q, a)]: each clause's states replaced by their rows, ANDed
        return _minimal({c for clause in phi for c in
                         _and(row for i, row in enumerate(clauses[a]) if clause >> i & 1)})

    trans = {}
    discovered = [(initial,)]
    seen = set(discovered)
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
        initial=discovered[0],
        delta=trans,
        accepting={g for g in discovered if any(c & f_mask == c for c in g)},
        states=discovered,
        name=f"det({A.name})",
    )


def _minimal(clauses) -> tuple:
    """The sorted clauses of `clauses` that contain no other clause."""
    kept = []
    for c in sorted(clauses, key=int.bit_count):
        if all(k & c != k for k in kept):
            kept.append(c)
    return tuple(sorted(kept))


def _and(parts) -> tuple:
    """The minimal clauses of the AND of minimal clause sets, minimised product by product."""
    return reduce(lambda xs, ys: ys if xs == (0,) else _minimal({x | y for x in xs for y in ys}),
                  parts, (0,))


def _clauses(f: Formula, index: Mapping) -> tuple:
    """The minimal clauses of f, a checked formula over the states of `index`."""
    if type(f) is Atom:
        return (1 << index[f.state],)
    if type(f) is And or type(f) is Or:
        parts = [_clauses(c, index) for c in f.children]
        return _minimal(set().union(*parts)) if type(f) is Or else _and(parts)
    return (0,) if f is TRUE else ()
