"""Positive boolean formulas over automaton states.

A transition of an alternating automaton maps a (state, letter) pair to a
positive boolean combination of states: atoms joined by AND / OR, with no
negation. TRUE and FALSE are allowed as constants (convenience sugar for
always-accepting / always-rejecting sink states).

Formulas are immutable and hashable so they can key memo tables. The
conj/disj builders flatten nested same-operator nodes, drop absorbed
constants and collapse singletons, which keeps hand-built and parsed
formulas in one predictable shape.

Atom, And and Or are written by hand rather than as frozen dataclasses.
The lazy gallery automata build a new Atom on almost every transition
of a reachable-state search, and a frozen dataclass's __init__ goes
through object.__setattr__. Each __init__ here writes its one slot
through the slot descriptor's own setter instead, which takes about 60%
of the time on Python 3.11. The slot is shared: Atom.state and
And.children are the same descriptor under two names, so equality,
hashing and pickling are written once. On Python 3.11 the frozen,
slotted dataclass's __setattr__ also named the class from before the
slots rebuild, so assigning to any name other than the field raised
TypeError; here every assignment and deletion raises
FrozenInstanceError.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Callable, Hashable, Iterable, Iterator, Union

from .errors import StatelabError

State = Hashable


class _Const:
    """TRUE or FALSE. Two module-level singletons, compared by identity."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __reduce__(self) -> str:
        # pickle and copy resolve the module-level name, keeping the singleton
        return repr(self)


TRUE = _Const(True)
FALSE = _Const(False)


class _Node:
    """A formula node: one field in one slot, set by __init__ and never again.

    A node equals only a node of its exact class with an equal field
    (so And and Or with the same children differ), hashes as
    hash((field,)), and pickle and copy rebuild it from the field. Each
    subclass reads the slot under its field's own name.
    """

    __slots__ = ("_field",)

    def __eq__(self, other):
        if type(other) is type(self):
            return (self._field,) == (other._field,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._field,))

    def __reduce__(self) -> tuple:
        return type(self), (self._field,)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# The slot descriptor's own setter, bound once: __setattr__ refuses every
# assignment, and this writes the field without going through it.
_set_field = _Node._field.__set__


class Atom(_Node):
    __slots__ = ()
    __match_args__ = ("state",)
    state = _Node._field

    def __init__(self, state: State):
        _set_field(self, state)

    def __repr__(self) -> str:
        return f"Atom({self.state!r})"


class _Junction(_Node):
    """The body And and Or share; _Node equality keeps the two apart."""

    __slots__ = ()
    __match_args__ = ("children",)
    children = _Node._field

    def __init__(self, children: tuple):
        if len(children) < 1:
            raise StatelabError(f"{type(self).__name__} needs at least one child")
        _set_field(self, children)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.children!r}"


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


# Forward-reference strings: typing caches every Union it builds, and a
# cache entry holding these classes would keep this module (and whatever
# it imports) alive after statelab is dropped from sys.modules.
Formula = Union["_Const", "Atom", "And", "Or"]


def _junction(parts: Iterable[Formula], node: type, unit: _Const, zero: _Const) -> Formula:
    """`node` of parts with flattening, constant absorption, singleton collapse:
    `unit` is dropped, `zero` absorbs the whole junction."""
    out = []
    for p in parts:
        if p is unit:
            continue
        if p is zero:
            return zero
        if isinstance(p, node):
            out.extend(p.children)
        else:
            out.append(p)
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return node(tuple(out))


def conj(parts: Iterable[Formula]) -> Formula:
    """AND of parts with flattening, constant absorption, singleton collapse."""
    return _junction(parts, And, TRUE, FALSE)


def disj(parts: Iterable[Formula]) -> Formula:
    """OR of parts with flattening, constant absorption, singleton collapse."""
    return _junction(parts, Or, FALSE, TRUE)


def atoms(formula: Formula) -> Iterator[State]:
    """All states mentioned in the formula. Constants mention none; a node
    that is not a formula raises StatelabError."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            yield f.state
        elif isinstance(f, (And, Or)):
            stack.extend(f.children)
        elif f is not TRUE and f is not FALSE:
            raise StatelabError(f"not a formula: {f!r}")


def evaluate(formula: Formula, truth: Callable[[State], bool]) -> bool:
    """Evaluate under a truth assignment for atoms. Short-circuits."""
    if formula is TRUE:
        return True
    if formula is FALSE:
        return False
    if isinstance(formula, Atom):
        try:
            return bool(truth(formula.state))
        except KeyError:
            raise StatelabError(f"no truth value for atom {formula.state!r}") from None
    if isinstance(formula, And):
        for c in formula.children:
            if not evaluate(c, truth):
                return False
        return True
    if isinstance(formula, Or):
        for c in formula.children:
            if evaluate(c, truth):
                return True
        return False
    raise StatelabError(f"not a formula: {formula!r}")


def format_formula(formula: Formula, name: Callable[[State], str] = str) -> str:
    """Render with minimal parentheses; '&' binds tighter than '|'."""

    def go(f: Formula, parent: str) -> str:
        if f is TRUE:
            return "T"
        if f is FALSE:
            return "F"
        if isinstance(f, Atom):
            return name(f.state)
        if isinstance(f, And):
            body = " & ".join(go(c, "&") for c in f.children)
            return body  # '&' never needs parens under '|' or at top level
        if isinstance(f, Or):
            body = " | ".join(go(c, "|") for c in f.children)
            return f"({body})" if parent == "&" else body
        raise StatelabError(f"not a formula: {f!r}")

    return go(formula, "")
