"""Independent reference computations the benchmark checks statelab against.

Each function restates a definition directly instead of calling the
statelab routine it checks: none of them uses `evaluate`, `atoms`,
`accepts`, `reachable_counts`, `is_prime`, `bin_int`,
`ProbAutomaton.distribution` or the gallery's membership predicates. The
only statelab objects they touch are the formula node classes and the
constants TRUE / FALSE (to read a formula's shape) and an automaton's
own transition and acceptance functions (which define the automaton).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence


# ---------------------------------------------------------------------------
# numbers

def prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes: t[k] == 1 iff k is prime, for 0 <= k < limit (>= 2)."""
    table = bytearray([1]) * limit
    table[0] = table[1] = 0
    p = 2
    while p * p < limit:
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, limit, p)))
        p += 1
    return table


def is_prime_trial(n: int) -> bool:
    """Primality by trial division; slow, obviously right."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def lsb_value(word: str) -> int:
    """Value of a binary word read least significant digit first."""
    return sum(1 << i for i, ch in enumerate(word) if ch == "1")


# ---------------------------------------------------------------------------
# the Rabin machine's block product

def rabin_block_product(word: str) -> tuple:
    """(numerator, exponent) with P(word) = numerator / 2**exponent.

    The machine's acceptance probability on u1#u2#...#uk is the product
    of the blocks' fractional binary values bin_int(ui) / 2**|ui|, so the
    product is an integer numerator over a power of two.
    """
    numerator, exponent = 1, 0
    for block in word.split("#"):
        numerator *= lsb_value(block)
        exponent += len(block)
    return numerator, exponent


def rabin_probability(word: str) -> Fraction:
    numerator, exponent = rabin_block_product(word)
    return Fraction(numerator, 1 << exponent)


def above_half(word: str) -> bool:
    """P(word) > 1/2, decided on the integers: 2 * numerator > 2**exponent."""
    numerator, exponent = rabin_block_product(word)
    return 2 * numerator > 1 << exponent


# ---------------------------------------------------------------------------
# formulas and alternating acceptance

def eval_formula(f, truth: Callable[[Hashable], bool], sl) -> bool:
    """Value of a positive boolean formula; every child is evaluated."""
    if f is sl.TRUE:
        return True
    if f is sl.FALSE:
        return False
    if isinstance(f, sl.Atom):
        return bool(truth(f.state))
    if isinstance(f, sl.And):
        values = [eval_formula(c, truth, sl) for c in f.children]
        return all(values)
    if isinstance(f, sl.Or):
        values = [eval_formula(c, truth, sl) for c in f.children]
        return any(values)
    raise TypeError(f"not a formula: {f!r}")


def formula_states(f, sl) -> List[Hashable]:
    """States named by the formula's atoms, in any order."""
    if isinstance(f, sl.Atom):
        return [f.state]
    if isinstance(f, (sl.And, sl.Or)):
        out = []
        for c in f.children:
            out.extend(formula_states(c, sl))
        return out
    return []


def accepts_backward(initial, delta, accepting, word: str, sl) -> bool:
    """Memoized backward recursion value(q, i) over positions of the word.

    value(q, |w|) = accepting(q); value(q, i) = delta(q, w[i]) evaluated
    with p -> value(p, i + 1).
    """
    n = len(word)
    memo: Dict[tuple, bool] = {}

    def value(q, i):
        key = (q, i)
        if key not in memo:
            if i == n:
                memo[key] = bool(accepting(q))
            else:
                memo[key] = eval_formula(delta(q, word[i]), lambda p: value(p, i + 1), sl)
        return memo[key]

    return value(initial, 0)


def bfs_counts(initial, delta, letters: str, depth: int, sl) -> List[int]:
    """[|states reachable by words of length <= n| for n in 0..depth]."""
    seen = {initial}
    frontier = [initial]
    counts = [1]
    for _ in range(depth):
        nxt = []
        for q in frontier:
            for a in letters:
                for p in formula_states(delta(q, a), sl):
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
        frontier = nxt
        counts.append(len(seen))
    return counts


def within_ceiling(counts: Sequence[int], exponent: int, constant: int) -> bool:
    """counts[n] <= constant * max(n**exponent, 1) at every measured n."""
    return all(c <= constant * max(n**exponent, 1) for n, c in enumerate(counts))


# ---------------------------------------------------------------------------
# restated gallery languages

def lex_member(word: str) -> bool:
    """u#v over {0,1} with u strictly before v in dictionary order."""
    if word.count("#") != 1:
        return False
    u, v = word.split("#")
    for x, y in zip(u, v):
        if x != y:
            return x < y
    return len(u) < len(v)


def not_eq_member(word: str) -> bool:
    """u#v over {0,1} with u != v."""
    if word.count("#") != 1:
        return False
    u, v = word.split("#")
    return len(u) != len(v) or any(x != y for x, y in zip(u, v))


def maj2_member(word: str) -> bool:
    """Strictly more a's than b's."""
    balance = 0
    for ch in word:
        balance += 1 if ch == "a" else -1
    return balance > 0


def count_eq3_member(word: str) -> bool:
    """As many a's as b's as c's."""
    tally = {"a": 0, "b": 0, "c": 0}
    for ch in word:
        tally[ch] += 1
    return tally["a"] == tally["b"] == tally["c"]


RESTATED = {
    "lex": lex_member,
    "not-eq": not_eq_member,
    "maj2": maj2_member,
    "count-eq3": count_eq3_member,
}


# ---------------------------------------------------------------------------
# quotients of the primes language

def canonical_words(letters: str, max_length: int) -> Iterable[str]:
    """Words of length <= max_length, length first then letter order."""
    layer = [""]
    for _ in range(max_length + 1):
        yield from layer
        layer = [w + a for w in layer for a in letters]


def shortest_witness(member: Callable[[str], bool], u: str, v: str,
                     letters: str, cap: int) -> Optional[str]:
    """First w in canonical order with member(u+w) != member(v+w)."""
    for w in canonical_words(letters, cap):
        if member(u + w) != member(v + w):
            return w
    return None


def class_count(member: Callable[[str], bool], prefixes: Sequence[str],
                witnesses: Sequence[str]) -> int:
    """Number of distinct membership signatures of the prefixes."""
    return len({tuple(member(u + w) for w in witnesses) for u in prefixes})
