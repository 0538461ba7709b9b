"""Named example languages, their oracles, and their automata.

Each entry pairs a brute-force membership oracle (the ground truth used
by every experiment) with, where one exists at reasonable state
complexity, an explicit automaton over a lazily generated state space.
A declared complexity class (bound function name plus constant) feeds
the profiler's bound checks; the constants were measured by running the
profiler at the documented depth and rounding the worst ratio up. Those
of not-eq, lex, count-eq3 and maj2 also hold at every n >= 1, by reachable
sets derived from delta (tests/test_derived_counts.py); l-hier:2's is measured.

Each language is one `_spec` call: its name and alphabet are stated
once, and its oracle and automaton are built from them.

Entries are addressable by name: count-eq3, not-eq, lex, l-exp,
l-hier:<l>, primes, l-log, maj2, rabin-half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from .automata import AlternatingAutomaton
from .errors import StatelabError
from .formulas import FALSE, TRUE, And, Atom, conj, disj
from .primes import _TABLE, _TABLE_SIZE, is_prime
from .prob import ProbAutomaton, bin_int, rabin_automaton
from .quotients import LanguageOracle
from .words import Alphabet

# Measured profile ceilings (max over n of count / bound(n), rounded up).
# not-eq and lex were profiled to depth 40, the l=2 hierarchy automaton
# to depth 64. See the experiment catalog in the README. The hierarchy
# automaton grows as n^3, not n^2: its per-position verifiers pair a
# block index, up to n^2 of them, with a position countdown. Its ratio
# count / n^3 is 2.0 at n = 1, 2.437 at 40 and 330351/131072 ~ 2.52 at
# 64, rising by ever smaller steps, so 3*n^3 holds at every depth up
# to 64, the depth it was checked to: a measured ceiling, not a proof.
NOT_EQ_CONSTANT = 7
LEX_CONSTANT = 6
HIER2_CONSTANT = 3
COUNT_EQ3_CONSTANT = 9
MAJ2_CONSTANT = 3
# l-exp reaches 5*2^n - 1 - e(n) states by depth n, with e(n) = 2^((n+3)/2)
# for odd n and 3*2^(n/2) for even n (checked to depth 16): every ("u", u)
# with |u| <= n, ("skip", u) with |u| < n, and ("chk", u, i) with
# |u| + 1 + i <= n and i <= |u|. The ratio to 2^n stays below 5.
L_EXP_CONSTANT = 5


@dataclass
class LanguageSpec:
    """A language with everything the workbench knows about it."""

    name: str
    alphabet: Alphabet
    oracle: LanguageOracle
    automaton: Optional[AlternatingAutomaton] = None
    declared_class: Optional[Tuple[str, int]] = None  # (bound name, constant)
    validation_bound: Optional[int] = None
    prob_automaton: Optional[ProbAutomaton] = None


def _spec(name: str, letters: str, member: Callable[[str], bool],
          machine: Optional[tuple] = None, max_word_length: Optional[int] = None,
          **spec_fields) -> LanguageSpec:
    """The language `name` over `letters` with oracle `member` and, given
    `machine = (initial, delta, accepting)`, an alternating automaton."""
    alpha = Alphabet(letters)
    automaton = None if machine is None else AlternatingAutomaton(alpha, *machine, name=name)
    oracle = LanguageOracle(name, alpha, member, max_word_length=max_word_length)
    return LanguageSpec(name, alpha, oracle, automaton, **spec_fields)


# ---------------------------------------------------------------------------
# count-eq3: words over {a,b,c} with equally many of each letter

def _count_eq3_delta(q, a):
    x, y = q
    if a == "a":
        return Atom((x + 1, y + 1))
    if a == "b":
        return Atom((x - 1, y))
    return Atom((x, y - 1))


def count_eq3() -> LanguageSpec:
    def member(w: str) -> bool:
        return w.count("a") == w.count("b") == w.count("c")

    return _spec(
        "count-eq3", "abc", member,
        ((0, 0), _count_eq3_delta, lambda q: q == (0, 0)),
        declared_class=("n^2", COUNT_EQ3_CONSTANT),
        validation_bound=10,
    )


# ---------------------------------------------------------------------------
# not-eq: u#v with u != v

def _not_eq_delta(q, a):
    tag = q[0]
    if tag == "read":
        # still reading u; guess how the difference will show up:
        # remember the current position's letter, or (at #) claim a
        # length difference
        p = q[1]
        if a == "#":
            return disj([Atom(("need", p)), Atom(("most", p))])
        return disj([Atom(("read", p + 1)), Atom(("hold", p, a))])
    if tag == "hold":
        _, p, b = q
        return Atom(("chk", p, b)) if a == "#" else Atom(q)
    if tag == "chk":
        # count down to position p of v; succeed iff its letter differs
        _, k, b = q
        if a == "#":
            return FALSE
        if k > 0:
            return Atom(("chk", k - 1, b))
        return Atom(("bin",)) if a != b else FALSE
    if tag == "need":
        # claim |v| > |u|: consume |u|+1 letters, then anything binary
        k = q[1]
        if a == "#":
            return FALSE
        return Atom(("need", k - 1)) if k > 0 else Atom(("bin",))
    if tag == "most":
        # claim |v| < |u|: accepting while fewer than |u| letters seen
        r = q[1]
        if a == "#":
            return FALSE
        return Atom(("most", r - 1)) if r > 0 else FALSE
    if tag == "bin":
        return FALSE if a == "#" else Atom(q)
    raise StatelabError(f"unknown state {q!r}")


def not_eq() -> LanguageSpec:
    def member(w: str) -> bool:
        parts = w.split("#")
        return len(parts) == 2 and parts[0] != parts[1]

    return _spec(
        "not-eq", "01#", member,
        (("read", 0), _not_eq_delta,
         lambda q: q[0] == "bin" or (q[0] == "most" and q[1] >= 1)),
        declared_class=("n", NOT_EQ_CONSTANT),
        validation_bound=9,
    )


# ---------------------------------------------------------------------------
# lex: u#v with u strictly lexicographically before v
# (empty u is before every non-empty v; a strict prefix is before its
# extensions)

def _lex_delta(q, a):
    tag = q[0]
    if tag == "u":
        # invariant: positions before i already match between u and v
        i = q[1]
        if a == "#":
            # u ended: v must strictly extend the common prefix
            return Atom(("need", i))
        if a == "0":
            # either v is larger right here, or it matches and the
            # comparison continues
            return disj(
                [
                    Atom(("wait", i, "1")),
                    conj([Atom(("wait", i, "0")), Atom(("u", i + 1))]),
                ]
            )
        return conj([Atom(("wait", i, "1")), Atom(("u", i + 1))])
    if tag == "wait":
        _, i, b = q
        return Atom(("skip", i, b)) if a == "#" else Atom(q)
    if tag == "skip":
        _, k, b = q
        if a == "#":
            return FALSE
        if k > 0:
            return Atom(("skip", k - 1, b))
        return Atom(("ok",)) if a == b else FALSE
    if tag == "need":
        k = q[1]
        if a == "#":
            return FALSE
        return Atom(("need", k - 1)) if k > 0 else Atom(("ok",))
    if tag == "ok":
        return FALSE if a == "#" else Atom(q)
    raise StatelabError(f"unknown state {q!r}")


def lexicographic() -> LanguageSpec:
    def member(w: str) -> bool:
        parts = w.split("#")
        return len(parts) == 2 and parts[0] < parts[1]

    return _spec(
        "lex", "01#", member,
        (("u", 0), _lex_delta, lambda q: q == ("ok",)),
        declared_class=("n", LEX_CONSTANT),
        validation_bound=9,
    )


# ---------------------------------------------------------------------------
# l-exp: u#u1#...#uk where some block read backwards equals u

def _l_exp_delta(q, a):
    # ("u", u) reads the first block; at each '#' a block either is
    # skipped or is checked against u reversed, ("chk", u, i) having
    # matched its first i letters with the last i letters of u
    tag, u = q[0], q[1]
    if a == "#":
        if tag == "chk":
            return TRUE if q[2] == len(u) else FALSE
        return disj([Atom(("skip", u)), Atom(("chk", u, 0))])
    if tag == "u":
        return Atom(("u", u + a))
    if tag == "skip":
        return Atom(q)
    i = q[2]
    return Atom(("chk", u, i + 1)) if i < len(u) and a == u[-1 - i] else FALSE


def l_exp() -> LanguageSpec:
    def member(w: str) -> bool:
        if "#" not in w:
            return False
        parts = w.split("#")
        u = parts[0]
        return any(p[::-1] == u for p in parts[1:])

    return _spec(
        "l-exp", "01#", member,
        (("u", ""), _l_exp_delta, lambda q: q[0] == "chk" and q[2] == len(q[1])),
        declared_class=("2^n", L_EXP_CONSTANT),
        validation_bound=9,
    )


# ---------------------------------------------------------------------------
# l-hier:<l>: diamond-prefixed block search with a polynomial block budget

def _hier_delta(power: int, q, a):
    # Branches are tested hot first: the four verifier tags hold almost
    # every reachable state (152,306 of 155,974 at depth 40 for l = 2).
    tag = q[0]
    if a == "◊":
        # diamonds are only legal in the leading prefix
        return Atom(("dia", q[1] + 1)) if tag == "dia" else FALSE
    if tag == "g0":
        # position-0 verifier: count letters left in u, then jump ahead
        _, d, b, j = q
        if a == "#":
            return Atom(("s0", j - 1, d, b))
        return Atom(("g0", d + 1, b, j))
    if tag == "gr":
        _, d, b, j = q
        if a == "#":
            return Atom(("sk", j - 1, d, b))
        return Atom(("gr", d + 1, b, j))
    if tag == "s0":
        # skip r more separators; then the block's FIRST letter must be b
        # and exactly d letters must remain (the countdown checks that),
        # which pins both the block's start and its length
        _, r, d, b = q
        if a == "#":
            return Atom(("s0", r - 1, d, b)) if r > 0 else FALSE
        if r > 0:
            return Atom(q)
        return Atom(("cn", d)) if a == b else FALSE
    if tag == "sk":
        # like s0 but for a later position of u: inside block j, pick the
        # occurrence of b that has exactly d letters after it
        _, r, d, b = q
        if a == "#":
            return Atom(("sk", r - 1, d, b)) if r > 0 else FALSE
        if r > 0:
            return Atom(q)
        if a == b:
            return disj([Atom(("cn", d)), Atom(q)])
        return Atom(q)
    if tag == "dia":
        cap = q[1]**power
        if cap < 1:
            return FALSE
        if a == "#":
            # u is empty; guess which block is empty too
            return conj(
                [
                    Atom(("bud", cap - 1)),
                    disj([Atom(("es", j - 1)) for j in range(1, cap + 1)]),
                ]
            )
        # first letter of u: guess the matching block index j, spawn the
        # position-0 verifier, and keep reading u
        return conj(
            [
                Atom(("bud", cap)),
                disj(
                    [
                        And((Atom(("g0", 0, a, j)), Atom(("rd", j))))
                        for j in range(1, cap + 1)
                    ]
                ),
            ]
        )
    if tag == "bud":
        # block budget: at most B more separators may appear
        B = q[1]
        if a == "#":
            return Atom(("bud", B - 1)) if B > 0 else FALSE
        return Atom(q)
    if tag == "rd":
        # reading the rest of u; each letter spawns its own verifier
        j = q[1]
        if a == "#":
            return Atom(("tail",))
        return conj([Atom(("gr", 0, a, j)), Atom(q)])
    if tag == "cn":
        d = q[1]
        if a == "#":
            return Atom(("tail",)) if d == 0 else FALSE
        return Atom(("cn", d - 1)) if d > 0 else FALSE
    if tag == "es":
        # empty-u verifier: after r more separators the next block must
        # end immediately
        r = q[1]
        if a == "#":
            return Atom(("es", r - 1)) if r > 0 else Atom(("tail",))
        return Atom(q) if r > 0 else FALSE
    if tag == "tail":
        return Atom(q)
    raise StatelabError(f"unknown state {q!r}")


def _hier_accepting(q) -> bool:
    tag = q[0]
    if tag in ("tail", "bud"):
        return True
    if tag == "cn":
        return q[1] == 0
    if tag == "es":
        return q[1] == 0
    return False


def l_hierarchy(power: int) -> LanguageSpec:
    if power < 2:
        raise StatelabError("the hierarchy language needs an exponent >= 2")

    def member(w: str) -> bool:
        rest = w.lstrip("◊")
        p = len(w) - len(rest)
        if "◊" in rest or "#" not in rest:
            return False
        parts = rest.split("#")
        u, blocks = parts[0], parts[1:]
        return len(blocks) <= p**power and u in blocks

    return _spec(
        f"l-hier:{power}", "01◊#", member,
        (("dia", 0), partial(_hier_delta, power), _hier_accepting),
        declared_class=("n^3", HIER2_CONSTANT) if power == 2 else None,
        validation_bound=8,
    )


# ---------------------------------------------------------------------------
# primes: binary words whose LSB-first value is prime

def primes_language() -> LanguageSpec:
    def member(w: str) -> bool:
        # most queries are short words: look their value up in the 2^16
        # sieve table without calling is_prime
        value = bin_int(w)
        return _TABLE[value] == 1 if value < _TABLE_SIZE else is_prime(value)

    # a word of at most 64 letters has an LSB-first value below 2^64,
    # the range where is_prime is exact
    return _spec("primes", "01", member, max_word_length=64)


# ---------------------------------------------------------------------------
# l-log: the floor(log2 |w|)-prefix of w repeats right after the separator

def l_log() -> LanguageSpec:
    def member(w: str) -> bool:
        parts = w.split("#")
        if len(parts) != 2:
            return False
        prefix_len = len(w).bit_length() - 1
        x, y = parts
        return len(y) == prefix_len and x[:prefix_len] == y

    return _spec("l-log", "01#", member)


# ---------------------------------------------------------------------------
# maj2: strictly more a's than b's

def maj2() -> LanguageSpec:
    def member(w: str) -> bool:
        return w.count("a") > w.count("b")

    return _spec(
        "maj2", "ab", member,
        (0, lambda k, a: Atom(k + 1) if a == "a" else Atom(k - 1), lambda k: k > 0),
        declared_class=("n", MAJ2_CONSTANT),
        validation_bound=8,
    )


# ---------------------------------------------------------------------------
# rabin-half: the bin-value machine's cut-point language, decided by its accepts

def rabin_half() -> LanguageSpec:
    machine = rabin_automaton()
    return _spec("rabin-half", machine.alphabet.letters, machine.accepts,
                 prob_automaton=machine)


# ---------------------------------------------------------------------------
# registry

_BUILDERS: Dict[str, Callable[[], LanguageSpec]] = {
    "count-eq3": count_eq3,
    "not-eq": not_eq,
    "lex": lexicographic,
    "l-exp": l_exp,
    "primes": primes_language,
    "l-log": l_log,
    "maj2": maj2,
    "rabin-half": rabin_half,
}


def names() -> list:
    return sorted(_BUILDERS) + ["l-hier:<l>"]


def hierarchy_exponent(name: str) -> int:
    """The exponent l >= 2 of a '<prefix>:<l>' name: 'l-hier:3', 'hierarchy:3'."""
    suffix = name.split(":", 1)[1]
    # int() alone would also take signs, underscores, spaces and
    # non-ASCII digits
    if not (suffix.isascii() and suffix.isdigit()):
        raise StatelabError(f"bad hierarchy exponent {suffix!r}")
    power = int(suffix)
    if power < 2:
        raise StatelabError(f"{name!r}: the hierarchy needs an exponent >= 2")
    return power


def get_language(name: str) -> LanguageSpec:
    """Resolve a gallery name; 'l-hier:<l>' takes the exponent inline."""
    if name.startswith("l-hier:"):
        return l_hierarchy(hierarchy_exponent(name))
    builder = _BUILDERS.get(name)
    if builder is None:
        raise StatelabError(
            f"unknown language {name!r}; known: {', '.join(names())}"
        )
    return builder()
