"""Left quotients, bounded quotient counting, and query tables.

The left quotient u^-1 L is {w : uw in L}. Counting distinct quotients
with witnesses bounded by length m can only undercount (two prefixes
with different quotients may agree on all short witnesses), so every
number reported here is a certified LOWER bound: bounded witnesses can
merge classes, never split them. The same logic applies to query-table
profiles with a bounded or explicit row set, and over any column set.

All enumeration is in the canonical order: length first, then the
alphabet's declared letter order. Representatives reported for classes
and profiles are the canonically smallest members, which together with
pure membership oracles makes every report byte-deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, StatelabError, UnsupportedError
from .words import Alphabet, _check_length, _mask

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class LanguageOracle:
    """A named, pure membership predicate over words.

    `max_word_length`, when set, is the longest word the predicate
    answers exactly; the searches below refuse up front any request
    that could ask about a longer word.
    """

    name: str
    alphabet: Alphabet
    membership: Callable[[str], bool]
    max_word_length: Optional[int] = None

    def __call__(self, word: str) -> bool:
        return self.membership(word)


def from_automaton(A, name: Optional[str] = None) -> LanguageOracle:
    return LanguageOracle(name or A.name, A.alphabet, A.accepts)


def oracle_union(L1: LanguageOracle, L2: LanguageOracle) -> LanguageOracle:
    if L1.alphabet != L2.alphabet:
        raise StatelabError("union needs oracles over the same alphabet")
    return LanguageOracle(
        f"({L1.name} | {L2.name})",
        L1.alphabet,
        lambda w: L1.membership(w) or L2.membership(w),
    )


def oracle_intersection(L1: LanguageOracle, L2: LanguageOracle) -> LanguageOracle:
    if L1.alphabet != L2.alphabet:
        raise StatelabError("intersection needs oracles over the same alphabet")
    return LanguageOracle(
        f"({L1.name} & {L2.name})",
        L1.alphabet,
        lambda w: L1.membership(w) and L2.membership(w),
    )


def quotient_member(L: LanguageOracle, u: str, w: str) -> bool:
    """w in u^-1 L, i.e. uw in L."""
    return L.membership(u + w)


def canonical_json(payload: dict) -> str:
    """The one byte-deterministic JSON form of every report."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Report:
    """A result in three forms. Its JSON is `payload()`: by default every
    dataclass field shown in repr whose value is not None. Its CSV is the
    rows `csv_rows()` under `CSV_HEADER`; its text is `to_text()`."""

    CSV_HEADER = ""

    def payload(self) -> dict:
        shown = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return {key: value for key, value in shown.items() if value is not None}

    def to_json(self) -> str:
        return canonical_json(self.payload())

    def to_csv(self) -> str:
        return render([self], "csv")


def render(reports: Sequence[Report], fmt: str) -> str:
    """One JSON line per report, one CSV table under the first report's
    header, or the reports' texts a blank line apart."""
    if fmt == "json":
        return "\n".join(r.to_json() for r in reports)
    if fmt == "csv":
        return "\n".join([reports[0].CSV_HEADER, *(row for r in reports for row in r.csv_rows())])
    if fmt == "text":
        return "\n\n".join(r.to_text() for r in reports)
    raise StatelabError(f"unknown report format {fmt!r}")


@dataclass
class QuotientCountReport(Report):
    language: str
    order: int
    witness_bound: int
    count: int
    representatives: List[str]
    # each class's membership bitmask over A^{<=witness_bound}, bit i for
    # the i-th witness in canonical order, parallel to `representatives`;
    # never rendered
    signatures: List[int] = field(default_factory=list, repr=False, compare=False)

    CSV_HEADER = "class,representative"

    def csv_rows(self) -> List[str]:
        return [f"{i},{rep}" for i, rep in enumerate(self.representatives)]

    def to_text(self) -> str:
        return (
            f"{self.language}: >= {self.count} distinct quotients of order "
            f"{self.order} (witnesses up to length {self.witness_bound})"
        )


@dataclass(frozen=True)
class RowSpec:
    """Which words become query-table rows, or columns."""

    kind: str  # "exhaustive" | "explicit"
    max_length: int = 0
    words: tuple = ()

    @classmethod
    def exhaustive(cls, max_length: int) -> "RowSpec":
        if max_length < 0:
            raise StatelabError(f"row length must be >= 0, got {max_length}")
        return cls(kind="exhaustive", max_length=max_length)

    @classmethod
    def explicit(cls, words: Sequence[str]) -> "RowSpec":
        return cls(kind="explicit", words=tuple(words))

    def row_words(self, alphabet: Alphabet) -> List[str]:
        if self.kind == "exhaustive":
            return list(alphabet.words_up_to(self.max_length))
        if self.kind == "explicit":
            for w in self.words:
                alphabet.check_word(w)
            return sorted(set(self.words), key=alphabet.sort_key)
        raise StatelabError(f"unknown row spec kind {self.kind!r}")

    def describe(self) -> dict:
        if self.kind == "exhaustive":
            return {"kind": "exhaustive", "max_length": self.max_length}
        return {"kind": "explicit", "rows": list(self.words)}


@dataclass
class QueryTableReport(Report):
    language: str
    order: int
    row_spec: dict
    count: int
    representatives: List[str]
    profiles: Optional[Dict[str, str]] = field(default=None)
    # each profile's membership bitmask over the columns, bit i for the i-th
    # column in canonical order, parallel to `representatives`; never
    # rendered, and `profiles` spells each row's as a 0/1 string
    signatures: List[int] = field(default_factory=list, repr=False, compare=False)

    CSV_HEADER = "profile,representative"

    def csv_rows(self) -> List[str]:
        return [f"{i},{rep}" for i, rep in enumerate(self.representatives)]

    def to_text(self) -> str:
        return (
            f"{self.language}: >= {self.count} distinct profiles in the "
            f"query table of order {self.order}"
        )


@dataclass
class Budget:
    """A membership-query ledger: at most `limit` queries, `asked` so far.
    Each search below charges it before each batch it asks (an int budget
    is a fresh ledger), so searches sharing one are refused as one run."""

    limit: int
    asked: int = 0

    @classmethod
    def of(cls, budget: Union[int, "Budget"]) -> "Budget":
        return budget if isinstance(budget, Budget) else cls(budget)

    def charge(self, queries: int) -> None:
        """Add `queries` to `asked`, or raise before any of them is asked."""
        if self.asked + queries > self.limit:
            raise BudgetExceeded(self.asked + queries, self.limit)
        self.asked += queries


def _check_reach(L: LanguageOracle, longest: int) -> None:
    if L.max_word_length is not None and longest > L.max_word_length:
        raise UnsupportedError(
            f"oracle {L.name!r} answers words of up to {L.max_word_length} "
            f"letters; this request reaches {longest}"
        )


def count_quotients(
    L: LanguageOracle,
    order: int,
    witness_bound: int,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
) -> QuotientCountReport:
    """Partition A^{<=order} by membership signatures over A^{<=witness_bound}.

    The class count is a lower bound on the number of distinct left
    quotients of order `order`, monotone in both parameters.
    """
    alpha = L.alphabet
    Budget.of(budget).charge(alpha.count_up_to(order) * alpha.count_up_to(witness_bound))
    _check_reach(L, order + witness_bound)
    witnesses = list(alpha.words_up_to(witness_bound))
    member = L.membership
    classes: Dict[int, str] = {}
    for u in alpha.words_up_to(order):
        # first-seen wins: enumeration order is canonical, so the stored
        # representative is the canonically smallest member of its class
        classes.setdefault(_mask(member, [u + w for w in witnesses]), u)
    return QuotientCountReport(
        language=L.name,
        order=order,
        witness_bound=witness_bound,
        count=len(classes),
        representatives=list(classes.values()),
        signatures=list(classes),
    )


def distinguish(
    L: LanguageOracle, u: str, v: str, m_max: int
) -> Optional[str]:
    """Shortest witness w (canonical order) with uw in L xor vw in L.

    Returns None when no witness of length <= m_max exists. The returned
    witness is re-checked through quotient_member before being handed
    back rather than trusted from the search loop.
    """
    _check_length(m_max)
    _check_reach(L, max(len(u), len(v)) + m_max)
    if u == v:
        return None
    member = L.membership
    for w in L.alphabet.words_up_to(m_max):
        if member(u + w) != member(v + w):
            if quotient_member(L, u, w) == quotient_member(L, v, w):
                raise StatelabError(
                    f"oracle {L.name!r} is not pure: witness {w!r} unstable"
                )
            return w
    return None


def split_depth(
    L: LanguageOracle, words: Sequence[str], m_max: int, budget: Union[int, Budget] = DEFAULT_BUDGET
) -> Tuple[int, int]:
    """`distinguish` on every pair of `words` at once.

    Returns (max_witness_length, undistinguished): the longest witness
    `distinguish(L, u, v, m_max)` finds over all pairs of `words`, and
    the number of pairs for which it finds none. Each word's signature is
    its membership bitmask over the witnesses in canonical order, grown one
    length at a time, so the witness of a pair is the lowest set bit of
    sig_u ^ sig_v and its length is the level at which the pair's
    signatures first differ. A level asks only the words whose
    signature is still shared with another word: a word apart from all
    others stays apart, and two words that first differ at a level were
    tied, and asked, up to it. The search stops at the first level that
    leaves every two distinct words apart. Every asked bit is then
    queried once more, and any bit that changed raises, as the witness
    re-check in `distinguish` does. Each level and the re-check are
    charged to `budget` before they ask.
    """
    _check_length(m_max)
    _check_reach(L, max(map(len, words), default=0) + m_max)
    ledger = Budget.of(budget)
    member = L.membership
    distinct = list(dict.fromkeys(words))
    sig = dict.fromkeys(distinct, 0)
    # witnesses each word was asked: a prefix of `witnesses`
    reach = dict.fromkeys(distinct, 0)
    # groups of two or more distinct words that share a signature
    tied = [distinct] if len(distinct) > 1 else []
    witnesses: List[str] = []
    worst = 0
    for length in range(m_max + 1):
        if not tied:
            break
        level = list(L.alphabet.words_of_length(length))
        ledger.charge(sum(map(len, tied)) * len(level))
        shift = len(witnesses)
        witnesses += level
        still = []
        for group in tied:
            parts: Dict[int, List[str]] = {}
            for u in group:
                sig[u] |= _mask(member, [u + w for w in level]) << shift
                reach[u] = len(witnesses)
                parts.setdefault(sig[u], []).append(u)
            if len(parts) > 1:
                worst = length
            still += [part for part in parts.values() if len(part) > 1]
        tied = still
    # the re-check asks every asked bit again
    ledger.charge(sum(reach.values()))
    for u in distinct:
        changed = sig[u] ^ _mask(member, [u + w for w in witnesses[:reach[u]]])
        if changed:
            w = witnesses[(changed & -changed).bit_length() - 1]
            raise StatelabError(
                f"oracle {L.name!r} is not pure: witness {w!r} unstable for prefix {u!r}"
            )
    # words in different groups differ on the bits both were asked, so
    # equal signatures are exactly the undistinguished pairs
    undistinguished = sum(k * (k - 1) // 2 for k in Counter(sig[u] for u in words).values())
    return worst, undistinguished


def _listed(spec: RowSpec, alpha: Alphabet) -> Tuple[int, int, Optional[List[str]]]:
    """(size, longest word, words) of a word set. An exhaustive set is
    counted, not listed, so its words are None until the checks have passed."""
    if spec.kind == "exhaustive":
        return alpha.count_up_to(spec.max_length), spec.max_length, None
    words = spec.row_words(alpha)
    return len(words), max(map(len, words), default=0), words


def query_table(
    L: LanguageOracle,
    order: int,
    rows: RowSpec,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    include_profiles: bool = False,
    columns: Optional[RowSpec] = None,
) -> QueryTableReport:
    """Count distinct row profiles against prefix columns of length <= order.

    The profile of a row word w is the bit vector of membership(u + w)
    over every column u, canonical order. The columns are `columns`,
    by default all of A^{<=order}. Dropping columns can only merge
    profiles, so the distinct profiles over any column set lower-bound
    the query table size of that order.
    """
    alpha = L.alphabet
    if columns is None:
        columns = RowSpec.exhaustive(order)
    # the checks read counts, so no exhaustive set is listed before they pass
    row_count, longest, row_words = _listed(rows, alpha)
    column_count, widest, column_words = _listed(columns, alpha)
    if widest > order:
        raise StatelabError(f"a column of length {widest} is past order {order}")
    Budget.of(budget).charge(row_count * column_count)
    _check_reach(L, widest + longest)
    row_words = row_words if row_words is not None else rows.row_words(alpha)
    column_words = column_words if column_words is not None else columns.row_words(alpha)
    member = L.membership
    seen: Dict[int, str] = {}
    dump: Dict[str, str] = {}
    for w in row_words:
        profile = _mask(member, [u + w for u in column_words])
        seen.setdefault(profile, w)
        if include_profiles:
            dump[w] = format(profile, f"0{column_count}b")[::-1] if column_count else ""
    return QueryTableReport(
        language=L.name,
        order=order,
        row_spec=rows.describe(),
        count=len(seen),
        representatives=list(seen.values()),
        profiles=dump if include_profiles else None,
        signatures=list(seen),
    )
