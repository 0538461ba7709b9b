"""Shared exception types.

Everything raised on purpose by this package derives from StatelabError,
so callers can catch one thing at the CLI boundary.
"""


class StatelabError(Exception):
    """Base class for all errors raised by statelab."""


class FormatError(StatelabError):
    """Malformed automaton text: bad header, bad formula, missing rows."""


class KindError(StatelabError):
    """Operation requires a different automaton structure.

    Raised by determinize_finite on an automaton without a declared
    finite state list.
    """


class BudgetExceeded(StatelabError):
    """A query-counting routine would exceed its membership-query budget."""

    def __init__(self, needed: int, budget: int):
        try:
            about = f"about {needed}"
        except ValueError:  # past Python's int-to-str digit limit
            about = f"at least 2^{needed.bit_length() - 1}"
        super().__init__(
            f"operation needs {about} membership queries, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


class UsageError(StatelabError):
    """Bad caller input (flags, names, overrides, words), not a checked runtime failure."""


class UnsupportedError(StatelabError):
    """Input is outside the range this implementation guarantees exact answers for."""
