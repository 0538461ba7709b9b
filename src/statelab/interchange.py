"""Line-oriented text format for finite automata.

    # comment (only when '#' is the first character of the line)
    alphabet: 0 1 #
    states: q0 q1
    initial: q0
    accepting: q1
    trans q0 0 -> q1 & (q0 | q1)
    ptrans q0 0 -> q0:1/2 q1:1/2

Letters in `alphabet:` and `trans`/`ptrans` positions are literal, so
'#' is a perfectly good letter; comment detection looks at column 0 of
the raw line only. A file uses either `trans` rows (alternating
automaton) or `ptrans` rows (probabilistic automaton), never both.
Every declared (state, letter) pair needs exactly one row.

Both loaders read a document in one pass (`_parse`): each of the four
headers once, each row's body by its own parser, then every symbol
against the declared alphabet and states. The machine then refuses an
undeclared initial state and a row target outside the state list, in its
own words, for the loader and the serializer alike. The loaders add only
their own row checks (a ptrans target listed twice; stochastic rows).
Every fault, a bad alphabet included, is a FormatError.

Formula grammar: atom | T | F | (f) | f & f | f | f, where '&' binds
tighter than '|'. State names are free-form tokens minus whitespace,
the metacharacters & | ( ), and the reserved constants T and F.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .automata import AlternatingAutomaton
from .errors import FormatError, StatelabError
from .formulas import FALSE, TRUE, Atom, Formula, conj, disj, format_formula
from .prob import ProbAutomaton
from .words import Alphabet

_NAME_RE = re.compile(r"[^\s&|()]+")
_RESERVED = {"T", "F", "->"}


# ---------------------------------------------------------------------------
# formula parsing

# every non-space character starts a token, so finditer skips nothing
_TOKEN_RE = re.compile(r"[&|()]|[^\s&|()]+")


def parse_formula(text: str) -> Formula:
    """Parse the formula grammar; raises FormatError with a column number."""
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise FormatError("empty formula")
    i = 0

    def peek() -> Optional[str]:
        return tokens[i][0] if i < len(tokens) else None

    def fail(msg: str):
        col = tokens[i][1] + 1 if i < len(tokens) else len(text) + 1
        raise FormatError(f"column {col}: {msg}")

    def parse_or() -> Formula:
        nonlocal i
        parts = [parse_and()]
        while peek() == "|":
            i += 1
            parts.append(parse_and())
        return disj(parts)

    def parse_and() -> Formula:
        nonlocal i
        parts = [parse_atom()]
        while peek() == "&":
            i += 1
            parts.append(parse_atom())
        return conj(parts)

    def parse_atom() -> Formula:
        nonlocal i
        tok = peek()
        if tok is None:
            fail("expected an atom")
        if tok == "(":
            i += 1
            inner = parse_or()
            if peek() != ")":
                fail("expected ')'")
            i += 1
            return inner
        if tok in ("&", "|", ")"):
            fail(f"unexpected {tok!r}")
        i += 1
        if tok == "T":
            return TRUE
        if tok == "F":
            return FALSE
        return Atom(tok)

    result = parse_or()
    if i != len(tokens):
        fail(f"trailing input {tokens[i][0]!r}")
    return result


# ---------------------------------------------------------------------------
# document parsing

def _parse_distribution(body: str) -> List[Tuple[str, Fraction]]:
    entries = []
    for tok in body.split():
        target, sep, prob = tok.rpartition(":")
        if not sep or not target:
            raise FormatError(f"expected '<state>:<num>/<den>', got {tok!r}")
        m = re.fullmatch(r"([0-9]+)/([0-9]+)", prob)
        if m is None:
            raise FormatError(f"expected '<num>/<den>' probability, got {prob!r}")
        den = int(m.group(2))
        if den == 0:
            raise FormatError(f"zero denominator in {tok!r}")
        entries.append((target, Fraction(int(m.group(1)), den)))
    if not entries:
        raise FormatError("empty distribution")
    return entries


def _letters(tokens: List[str]) -> Alphabet:
    for tok in tokens:
        if len(tok) != 1:
            raise FormatError(f"letters are single characters, got {tok!r}")
    return Alphabet("".join(tokens))


def _states(tokens: List[str]) -> List[str]:
    for name in tokens:
        if name in _RESERVED or not _NAME_RE.fullmatch(name):
            raise FormatError(f"invalid state name {name!r}")
    return tokens


def _one_state(tokens: List[str]) -> str:
    if len(tokens) != 1:
        raise FormatError("initial: takes exactly one state")
    return tokens[0]


# header -> reader of its tokens, in the order missing headers are reported
_HEADERS = {
    "alphabet": _letters,
    "states": _states,
    "initial": _one_state,
    "accepting": list,
}
# row keyword -> (body parser, the loader that takes such rows)
_ROWS = {
    "trans": (parse_formula, "load_automaton"),
    "ptrans": (_parse_distribution, "load_prob_automaton"),
}


def _parse(text: str, keyword: str) -> tuple:
    """(alphabet, states, initial, accepting, rows) of a document whose rows
    all use `keyword`, every symbol checked; any fault is a FormatError."""
    headers: dict = {}
    rows: dict = {}
    kinds = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or raw.startswith("#"):
            continue
        head, colon, tail = line.partition(":")
        try:
            if colon and head in _HEADERS:
                if head in headers:
                    raise FormatError(f"duplicate {head} line")
                headers[head] = _HEADERS[head](tail.split())
            elif line.startswith(("trans ", "ptrans ")):
                parts = line.split(None, 3)
                if len(parts) < 4:
                    raise FormatError("expected '<keyword> <state> <letter> -> <body>'")
                kind, state, letter, rest = parts
                if not rest.startswith("->"):
                    raise FormatError("expected '->' after the letter")
                if len(letter) != 1:
                    raise FormatError(f"letters are single characters, got {letter!r}")
                if (state, letter) in rows:
                    raise FormatError(f"duplicate transition for ({state}, {letter})")
                rows[state, letter] = _ROWS[kind][0](rest[2:].strip())
                kinds.add(kind)
            else:
                raise FormatError(f"unrecognized line {line!r}")
        except StatelabError as exc:  # Alphabet's own faults included
            raise FormatError(f"line {lineno}: {exc}") from None

    for head in _HEADERS:
        if head not in headers:
            raise FormatError(f"missing {head}: line")
    for kind in kinds - {keyword}:
        raise FormatError(f"found {kind} rows; use {_ROWS[kind][1]}")
    alphabet, states, initial, accepting = (headers[head] for head in _HEADERS)
    declared = set(states)
    if len(declared) != len(states):
        raise FormatError("states: has duplicates")
    for s in accepting:
        if s not in declared:
            raise FormatError(f"accepting state {s!r} not declared")
    for state, letter in rows:
        if state not in declared:
            raise FormatError(f"transition from undeclared state {state!r}")
        if letter not in alphabet:
            raise FormatError(f"transition on undeclared letter {letter!r}")
    missing = [(q, a) for q in states for a in alphabet if (q, a) not in rows]
    if missing:
        q, a = missing[0]
        raise FormatError(f"missing transition for ({q}, {a}) and {len(missing) - 1} more")
    return alphabet, states, initial, frozenset(accepting), rows


def load_automaton(text: str, name: str = "loaded") -> AlternatingAutomaton:
    """Parse the interchange format into a finite alternating automaton."""
    alphabet, states, initial, accepting, rows = _parse(text, "trans")
    A = AlternatingAutomaton(alphabet, initial, rows, accepting, states=states, name=name)
    _compiled(A)
    return A


def _compiled(A: AlternatingAutomaton) -> tuple:
    """The machine's one check of its declared table; a refusal is a FormatError."""
    try:
        return A._table()
    except StatelabError as exc:
        raise FormatError(str(exc)) from None


def load_prob_automaton(text: str, name: str = "loaded") -> ProbAutomaton:
    """Parse the probabilistic variant; validates stochasticity on load."""
    alphabet, states, initial, accepting, rows = _parse(text, "ptrans")
    table = {}
    for (state, letter), entries in rows.items():
        row = table[state, letter] = {}
        for target, p in entries:
            # a dict would keep the last weight without a word
            if target in row:
                raise FormatError(f"ptrans ({state}, {letter}) lists {target!r} twice")
            row[target] = p
    try:
        A = ProbAutomaton(alphabet, states, initial, table, accepting, name=name)
    except StatelabError as exc:
        raise FormatError(str(exc)) from None
    _check_stochastic(A)
    return A


def _check_stochastic(A: ProbAutomaton) -> None:
    """FormatError unless every row is a probability distribution: the one
    row rule of the prob loader and the prob serializer."""
    problems = A.validate_stochastic()
    if problems:
        raise FormatError("not stochastic: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# serialization

def _state_names(states: list) -> dict:
    """Deterministic text names for arbitrary state values."""
    if all(isinstance(q, str) and _NAME_RE.fullmatch(q) and q not in _RESERVED
           for q in states):
        return {q: q for q in states}
    width = len(str(len(states) - 1)) if len(states) > 1 else 1
    return {q: f"s{i:0{width}d}" for i, q in enumerate(states)}


def _layout(A, accepting) -> tuple:
    """State names, their sorted order, and the header lines both kinds share."""
    for a in A.alphabet:
        if a.isspace():
            raise FormatError(f"letter {a!r} is whitespace, which the format cannot write")
    names = _state_names(A.states)
    order = sorted(names.values())
    by_name = {names[q]: q for q in A.states}
    header = [
        "alphabet: " + " ".join(A.alphabet.letters),
        "states: " + " ".join(order),
        "initial: " + names[A.initial],
        "accepting: " + " ".join(n for n in order if accepting(by_name[n])),
    ]
    return names, order, by_name, header


def serialize_automaton(A: AlternatingAutomaton) -> str:
    """Canonical text form: sorted states, sorted rows, minimal parens."""
    if A.states is None:
        raise FormatError("serialization needs a declared finite state list")
    index, rows = _compiled(A)[:2]
    names, order, by_name, lines = _layout(A, A.state_accepting)
    for n in order:
        i = index[by_name[n]]
        for a in A.alphabet:
            body = format_formula(rows[a][i], name=names.__getitem__)
            lines.append(f"trans {n} {a} -> {body}")
    return "\n".join(lines) + "\n"


def serialize_prob_automaton(A: ProbAutomaton) -> str:
    """Canonical text form of a stochastic machine: sorted states, sorted rows."""
    names, order, by_name, lines = _layout(A, A.accepting.__contains__)
    _check_stochastic(A)
    for n in order:
        q = by_name[n]
        for a in A.alphabet:
            row = A.rows[a][q]
            cells = " ".join(f"{names[t]}:{p.numerator}/{p.denominator}"
                             for t, p in sorted(row, key=lambda tp: names[tp[0]]))
            lines.append(f"ptrans {n} {a} -> {cells}")
    return "\n".join(lines) + "\n"
