"""Empirical state-complexity profiles and sampled bound checks.

profile() wraps the automaton's incremental reachability counts;
check_bound() compares them against C * f(n) for a named bound function.
These are sampled checks with explicit constants: nothing here certifies
an asymptotic claim, it certifies the inequality at every measured n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from .automata import AlternatingAutomaton
from .errors import StatelabError
from .quotients import Report

BOUND_CLASSES = ("const", "n", "n^<k>", "2^n")


def bound_function(name: str) -> Callable[[int], int]:
    """Named growth function; values floored at 1 so n=0 stays satisfiable."""
    if name == "const":
        return lambda n: 1
    if name == "n":
        return lambda n: max(n, 1)
    if name == "2^n":
        return lambda n: 1 << n
    if name.startswith("n^"):
        # int() alone would also take signs, underscores, spaces and non-ASCII digits
        if not (name[2:].isascii() and name[2:].isdigit()):
            raise StatelabError(f"bad bound class {name!r}")
        k = int(name[2:])
        if k < 1:
            raise StatelabError(f"bad bound exponent in {name!r}")
        return lambda n: max(n**k, 1)
    raise StatelabError(
        f"unknown bound class {name!r}; known: {', '.join(BOUND_CLASSES)}"
    )


@dataclass
class ComplexityProfile(Report):
    name: str
    counts: List[int]  # counts[n] = |reachable(n)|

    CSV_HEADER = "n,count"

    def pairs(self) -> List[tuple]:
        return list(enumerate(self.counts))

    def payload(self) -> dict:
        return {"automaton": self.name, "counts": self.counts}

    def csv_rows(self) -> List[str]:
        return [f"{n},{c}" for n, c in self.pairs()]

    def to_text(self) -> str:
        width = len(str(len(self.counts) - 1))
        lines = [f"profile of {self.name}"]
        lines.extend(f"  {n:>{width}}  {c}" for n, c in self.pairs())
        return "\n".join(lines)


@dataclass
class BoundCheck(Report):
    class_name: str
    constant: int
    verdicts: List[bool]  # verdicts[n]: counts[n] <= C * f(n)
    max_ratio: Fraction  # worst counts[n] / max(f(n), 1)

    CSV_HEADER = "n,within_bound"

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    def payload(self) -> dict:
        return {
            "class": self.class_name,
            "constant": self.constant,
            "passed": self.passed,
            "max_ratio": str(self.max_ratio),
            "failures": [n for n, ok in enumerate(self.verdicts) if not ok],
        }

    def csv_rows(self) -> List[str]:
        return [f"{n},{str(ok).lower()}" for n, ok in enumerate(self.verdicts)]

    def to_text(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"bound {self.constant}*{self.class_name}: {status} "
            f"(max ratio {self.max_ratio} ~ {float(self.max_ratio):.2f})"
        )


@dataclass
class CheckedProfile(Report):
    """A profile with the bound check of its counts."""

    profile: ComplexityProfile
    check: BoundCheck

    CSV_HEADER = "n,count,within_bound"

    def payload(self) -> dict:
        return {"automaton": self.profile.name, "profile": self.profile.counts,
                "bound": self.check.payload()}

    def csv_rows(self) -> List[str]:
        return [f"{n},{c},{str(ok).lower()}"
                for (n, c), ok in zip(self.profile.pairs(), self.check.verdicts)]

    def to_text(self) -> str:
        return self.profile.to_text() + "\n" + self.check.to_text()


def profile(A: AlternatingAutomaton, n_max: int) -> ComplexityProfile:
    return ComplexityProfile(A.name, A.reachable_counts(n_max))


def check_bound(p: ComplexityProfile, class_name: str, constant: int) -> BoundCheck:
    if constant < 1:
        raise StatelabError(f"bound constant must be >= 1, got {constant}")
    f = bound_function(class_name)
    verdicts = []
    worst = Fraction(0)
    for n, count in enumerate(p.counts):
        cap = f(n)
        verdicts.append(count <= constant * cap)
        ratio = Fraction(count, cap)
        if ratio > worst:
            worst = ratio
    return BoundCheck(class_name, constant, verdicts, worst)
