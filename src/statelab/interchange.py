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

Formula grammar: atom | T | F | (f) | f & f | f | f, where '&' binds
tighter than '|'. State names are free-form tokens minus whitespace,
the metacharacters & | ( ), and the reserved constants T and F.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .automata import AlternatingAutomaton
from .errors import FormatError
from .formulas import FALSE, TRUE, Atom, Formula, atoms, conj, disj, format_formula
from .prob import ProbAutomaton
from .words import Alphabet

_NAME_RE = re.compile(r"[^\s&|()]+")
_RESERVED = {"T", "F", "->"}


def _check_state_name(name: str, where: str) -> str:
    if name in _RESERVED or not _NAME_RE.fullmatch(name):
        raise FormatError(f"{where}: invalid state name {name!r}")
    return name


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
# shared header parsing

class _Parsed:
    def __init__(self):
        self.alphabet: Optional[List[str]] = None
        self.states: Optional[List[str]] = None
        self.initial: Optional[str] = None
        self.accepting: Optional[List[str]] = None
        self.trans: dict = {}
        self.ptrans: dict = {}


def _parse_lines(text: str) -> _Parsed:
    doc = _Parsed()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        line = raw.strip()

        def err(msg: str):
            raise FormatError(f"line {lineno}: {msg}")

        if line.startswith("alphabet:"):
            letters = line[len("alphabet:"):].split()
            for tok in letters:
                if len(tok) != 1:
                    err(f"letters are single characters, got {tok!r}")
            if doc.alphabet is not None:
                err("duplicate alphabet line")
            doc.alphabet = letters
        elif line.startswith("states:"):
            if doc.states is not None:
                err("duplicate states line")
            doc.states = [
                _check_state_name(s, f"line {lineno}")
                for s in line[len("states:"):].split()
            ]
        elif line.startswith("initial:"):
            toks = line[len("initial:"):].split()
            if len(toks) != 1:
                err("initial: takes exactly one state")
            if doc.initial is not None:
                err("duplicate initial line")
            doc.initial = toks[0]
        elif line.startswith("accepting:"):
            if doc.accepting is not None:
                err("duplicate accepting line")
            doc.accepting = line[len("accepting:"):].split()
        elif line.startswith("trans ") or line.startswith("ptrans "):
            parts = raw.strip().split(None, 3)
            if len(parts) < 4:
                err("expected '<keyword> <state> <letter> -> <body>'")
            keyword, state, letter, rest = parts
            if not rest.startswith("->"):
                err("expected '->' after the letter")
            body = rest[2:].strip()
            if len(letter) != 1:
                err(f"letters are single characters, got {letter!r}")
            key = (state, letter)
            target = doc.trans if keyword == "trans" else doc.ptrans
            if key in doc.trans or key in doc.ptrans:
                err(f"duplicate transition for ({state}, {letter})")
            try:
                if keyword == "trans":
                    target[key] = parse_formula(body)
                else:
                    target[key] = _parse_distribution(body)
            except FormatError as e:
                err(str(e))
        else:
            err(f"unrecognized line {line!r}")

    if doc.alphabet is None:
        raise FormatError("missing alphabet: line")
    if doc.states is None:
        raise FormatError("missing states: line")
    if doc.initial is None:
        raise FormatError("missing initial: line")
    if doc.accepting is None:
        raise FormatError("missing accepting: line")
    return doc


def _parse_distribution(body: str) -> List[Tuple[str, Fraction]]:
    entries = []
    for tok in body.split():
        target, sep, prob = tok.rpartition(":")
        if not sep or not target:
            raise FormatError(f"expected '<state>:<num>/<den>', got {tok!r}")
        m = re.fullmatch(r"(\d+)/(\d+)", prob)
        if m is None:
            raise FormatError(f"expected '<num>/<den>' probability, got {prob!r}")
        den = int(m.group(2))
        if den == 0:
            raise FormatError(f"zero denominator in {tok!r}")
        entries.append((target, Fraction(int(m.group(1)), den)))
    if not entries:
        raise FormatError("empty distribution")
    return entries


def _validate_symbols(doc: _Parsed):
    states = set(doc.states)
    if len(states) != len(doc.states):
        raise FormatError("states: has duplicates")
    letters = set(doc.alphabet)
    if doc.initial not in states:
        raise FormatError(f"initial state {doc.initial!r} not declared")
    for s in doc.accepting:
        if s not in states:
            raise FormatError(f"accepting state {s!r} not declared")
    rows = doc.trans or doc.ptrans
    for (state, letter) in rows:
        if state not in states:
            raise FormatError(f"transition from undeclared state {state!r}")
        if letter not in letters:
            raise FormatError(f"transition on undeclared letter {letter!r}")
    missing = [
        (q, a) for q in doc.states for a in doc.alphabet if (q, a) not in rows
    ]
    if missing:
        q, a = missing[0]
        raise FormatError(
            f"missing transition for ({q}, {a}) and {len(missing) - 1} more"
        )


def load_automaton(text: str, name: str = "loaded") -> AlternatingAutomaton:
    """Parse the interchange format into a finite alternating automaton."""
    doc = _parse_lines(text)
    if doc.ptrans:
        raise FormatError("found ptrans rows; use load_prob_automaton")
    _validate_symbols(doc)
    declared = set(doc.states)
    for (state, letter), formula in doc.trans.items():
        for target in atoms(formula):
            if target not in declared:
                raise FormatError(
                    f"transition ({state}, {letter}) mentions "
                    f"undeclared state {target!r}"
                )
    return AlternatingAutomaton(
        alphabet=Alphabet("".join(doc.alphabet)),
        initial=doc.initial,
        delta=doc.trans,
        accepting=frozenset(doc.accepting),
        states=doc.states,
        name=name,
    )


def load_prob_automaton(text: str, name: str = "loaded") -> ProbAutomaton:
    """Parse the probabilistic variant; validates stochasticity on load."""
    doc = _parse_lines(text)
    if doc.trans:
        raise FormatError("found trans rows; use load_automaton")
    _validate_symbols(doc)
    declared = set(doc.states)
    table = {}
    for (state, letter), entries in doc.ptrans.items():
        seen = set()
        for target, _ in entries:
            if target not in declared:
                raise FormatError(
                    f"ptrans ({state}, {letter}) targets undeclared state {target!r}"
                )
            if target in seen:
                raise FormatError(
                    f"ptrans ({state}, {letter}) lists {target!r} twice"
                )
            seen.add(target)
        table[(state, letter)] = dict(entries)
    A = ProbAutomaton(
        alphabet=Alphabet("".join(doc.alphabet)),
        states=doc.states,
        initial=doc.initial,
        trans=table,
        accepting=frozenset(doc.accepting),
        name=name,
    )
    problems = A.validate_stochastic()
    if problems:
        raise FormatError("not stochastic: " + "; ".join(problems))
    return A


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
    names, order, by_name, lines = _layout(A, A.state_accepting)
    for n in order:
        q = by_name[n]
        for a in A.alphabet:
            body = format_formula(A.delta(q, a), name=lambda s: names[s])
            lines.append(f"trans {n} {a} -> {body}")
    return "\n".join(lines) + "\n"


def serialize_prob_automaton(A: ProbAutomaton) -> str:
    names, order, by_name, lines = _layout(A, A.accepting.__contains__)
    for n in order:
        q = by_name[n]
        for a in A.alphabet:
            row = A.trans[(q, a)]
            cells = " ".join(
                f"{names[t]}:{p.numerator}/{p.denominator}"
                for t, p in sorted(row.items(), key=lambda kv: names[kv[0]])
                if p != 0
            )
            lines.append(f"ptrans {n} {a} -> {cells}")
    return "\n".join(lines) + "\n"
