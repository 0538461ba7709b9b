import json
from collections import Counter
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelab import (
    Alphabet,
    Budget,
    BudgetExceeded,
    LanguageOracle,
    RowSpec,
    StatelabError,
    UnsupportedError,
    count_quotients,
    distinguish,
    from_automaton,
    get_language,
    oracle_intersection,
    oracle_union,
    query_table,
    quotient_member,
    split_depth,
)
from statelab.quotients import render


def even_zeros_oracle():
    alpha = Alphabet("01")
    return LanguageOracle("even-zeros", alpha, lambda w: w.count("0") % 2 == 0)


def test_quotient_member_is_membership_of_the_concatenation():
    L = even_zeros_oracle()
    assert quotient_member(L, "0", "0")
    assert not quotient_member(L, "0", "")
    assert quotient_member(L, "", "")


def test_count_quotients_on_balanced_three_letter_language():
    spec = get_language("count-eq3")
    report = count_quotients(spec.oracle, 1, 3)
    assert report.count == 4
    assert report.representatives == ["", "a", "b", "c"]
    assert report.order == 1
    assert report.witness_bound == 3

    # all ten counter pairs reachable by length-2 prefixes are separated
    # once witnesses may be four letters long
    assert count_quotients(spec.oracle, 2, 4).count == 10


def test_count_is_monotone_in_order_and_witness_bound():
    spec = get_language("count-eq3")
    by_order = [count_quotients(spec.oracle, n, 4).count for n in range(4)]
    assert by_order == sorted(by_order)
    by_witness = [count_quotients(spec.oracle, 2, m).count for m in range(5)]
    assert by_witness == sorted(by_witness)


def test_finite_automaton_counts_stabilize():
    L = even_zeros_oracle()
    assert count_quotients(L, 1, 1).count == 2
    assert count_quotients(L, 4, 2).count == 2
    assert count_quotients(L, 6, 6).count == 2


def test_representatives_are_first_seen_in_canonical_order():
    L = even_zeros_oracle()
    report = count_quotients(L, 3, 2)
    assert report.representatives == ["", "0"]


def test_distinguish_finds_canonical_shortest_witness():
    primes = get_language("primes")
    assert distinguish(primes.oracle, "11", "10", 0) == ""
    spec = get_language("count-eq3")
    assert distinguish(spec.oracle, "a", "b", 2) == "ac"
    assert distinguish(spec.oracle, "a", "b", 1) is None
    assert distinguish(spec.oracle, "ab", "ab", 5) is None


def flaky_oracle():
    """True on the first query only."""
    calls = []

    def flaky(w):
        calls.append(w)
        return len(calls) == 1

    return LanguageOracle("flaky", Alphabet("01"), flaky)


@pytest.mark.parametrize("u, v", [("1", "1"), ("1", "10")], ids=["equal", "distinct"])
def test_distinguish_refuses_a_negative_cap_before_any_query(u, v):
    counted, asked = _counting_primes()
    with pytest.raises(StatelabError, match="word length must be nonnegative, got -1"):
        distinguish(counted, u, v, -1)
    assert asked == []


def test_distinguish_rechecks_its_answer():
    with pytest.raises(StatelabError, match="not pure"):
        distinguish(flaky_oracle(), "0", "1", 2)


def pairwise_split_depth(L, words, m_max):
    """(max len(w), number of None) over distinguish on every pair."""
    found = [distinguish(L, u, v, m_max) for u, v in combinations(words, 2)]
    return (max((len(w) for w in found if w is not None), default=0),
            sum(w is None for w in found))


def odd_binary_words(length):
    return [w for w in Alphabet("01").words_of_length(length) if w[0] == "1"]


@pytest.mark.parametrize("name,words", [
    ("primes", odd_binary_words(5)),
    ("primes", odd_binary_words(7)),
    ("primes", list(Alphabet("01").words_up_to(4))),
    ("count-eq3", list(Alphabet("abc").words_up_to(2))),
    ("lex", list(Alphabet("01#").words_up_to(2))),
    ("l-log", list(Alphabet("01#").words_of_length(3))),
    ("lex", ["#", "0#", "1#", "0#", "", "#"]),
    ("primes", ["1"]),
    ("primes", []),
], ids=["primes-odd5", "primes-odd7", "primes-all4", "count-eq3", "lex",
        "l-log", "lex-duplicates", "one-word", "no-words"])
@pytest.mark.parametrize("m_max", [0, 1, 2, 4])
def test_split_depth_equals_distinguish_on_every_pair(name, words, m_max):
    # caps 0 and 1 leave pairs undistinguished in every list of several words
    L = get_language(name).oracle
    counted, asked = _counting(L)
    ledger = Budget(10**8)
    assert split_depth(counted, words, m_max, ledger) == pairwise_split_depth(L, words, m_max)
    assert ledger.asked == len(asked)


def _counting(L):
    """L with a membership that records every word it is asked."""
    asked = []

    def member(word):
        asked.append(word)
        return L(word)

    return LanguageOracle(L.name, L.alphabet, member), asked


def _counting_primes():
    return _counting(get_language("primes").oracle)


def test_split_depth_refuses_a_negative_cap_before_any_query():
    counted, asked = _counting_primes()
    with pytest.raises(StatelabError, match="word length must be nonnegative, got -1"):
        split_depth(counted, ["1", "10", "11"], -1)
    assert asked == []


def test_split_depth_asks_only_words_that_are_still_tied():
    words = odd_binary_words(8)
    counted, asked = _counting_primes()
    ledger = Budget(10**8)
    worst, undistinguished = split_depth(counted, words, 24, ledger)
    queries = ledger.asked
    assert (worst, undistinguished) == (5, 0)
    assert queries == len(asked) == 6_944
    # growing every signature to the last split level asks each of the 128
    # words on all 63 witnesses up to length 5, twice
    assert 2 * len(words) * Alphabet("01").count_up_to(worst) == 16_128
    # the re-check asks exactly the words the levels asked
    first, again = asked[:queries // 2], asked[queries // 2:]
    assert sorted(first) == sorted(again)


def test_split_depth_checks_each_level_and_the_recheck_against_its_budget():
    words = odd_binary_words(6)
    counted, asked = _counting_primes()
    ledger = Budget(10**8)
    worst, undistinguished = split_depth(counted, words, 8, ledger)
    queries = ledger.asked
    assert undistinguished == 0
    # queries of each level, read off the words asked before the re-check,
    # which asks all of them again
    per_level = Counter(len(q) - 6 for q in asked[:queries // 2])
    assert sorted(per_level) == list(range(worst + 1))
    through = list(accumulate(per_level[length] for length in range(worst + 1)))
    total = through[-1]
    assert queries == len(asked) == 2 * total
    # budget -> (queries asked before the refusal, queries the refused step needed)
    cases = {2 * total: None, 2 * total - 1: (total, 2 * total), total: (total, 2 * total)}
    for length, upto in enumerate(through):
        before = through[length - 1] if length else 0
        # one query short of a level, or none of it, refuses that level
        cases[upto - 1] = cases[before] = (before, upto)
    for budget, refused in cases.items():
        asked.clear()
        if refused is None:
            ledger = Budget(budget)
            assert split_depth(counted, words, 8, budget=ledger) == (worst, 0)
            assert len(asked) == ledger.asked == queries
            continue
        with pytest.raises(BudgetExceeded) as exc:
            split_depth(counted, words, 8, budget=budget)
        assert (len(asked), exc.value.needed, exc.value.budget) == (*refused, budget)


def test_budget_charges_a_batch_or_refuses_it_whole():
    ledger = Budget(10)
    ledger.charge(4)
    ledger.charge(6)
    assert (ledger.limit, ledger.asked) == (10, 10)
    ledger.charge(0)
    with pytest.raises(BudgetExceeded) as exc:
        ledger.charge(1)
    # the refusal names what the whole ledger would need, and charges nothing
    assert (exc.value.needed, exc.value.budget, ledger.asked) == (11, 10, 10)


def test_searches_that_share_a_budget_are_refused_as_one_run():
    words = odd_binary_words(6)
    counted, asked = _counting_primes()
    alpha = Alphabet("01")
    searched = Budget(10**8)
    split_depth(counted, words, 8, searched)
    swept = alpha.count_up_to(6) * alpha.count_up_to(3)
    run = searched.asked + swept
    # the search and the sweep fit one ledger of the run's queries
    asked.clear()
    ledger = Budget(run)
    split_depth(counted, words, 8, ledger)
    count_quotients(counted, 6, 3, ledger)
    assert len(asked) == ledger.asked == run
    # one query less refuses the sweep, naming what the whole run needs
    asked.clear()
    ledger = Budget(run - 1)
    split_depth(counted, words, 8, ledger)
    with pytest.raises(BudgetExceeded) as exc:
        count_quotients(counted, 6, 3, ledger)
    assert (exc.value.needed, exc.value.budget) == (run, run - 1)
    assert len(asked) == ledger.asked == searched.asked


@pytest.mark.parametrize("search, message", [
    (lambda L, b: count_quotients(L, -1, 2, b), "word length must be nonnegative, got -1"),
    (lambda L, b: count_quotients(L, 2, -1, b), "word length must be nonnegative, got -1"),
    (lambda L, b: query_table(L, -1, RowSpec.explicit(["1"]), b),
     "row length must be >= 0, got -1"),
    (lambda L, b: query_table(L, -1, RowSpec.explicit(["1"]), b,
                              columns=RowSpec.explicit([""])),
     "a column of length 0 is past order -1"),
], ids=["count_quotients-order", "count_quotients-witness-bound",
        "query_table-default-columns", "query_table-explicit-columns"])
def test_negative_lengths_are_refused_before_any_query(search, message):
    counted, asked = _counting_primes()
    ledger = Budget(10**8)
    with pytest.raises(StatelabError, match=message):
        search(counted, ledger)
    assert asked == [] and ledger.asked == 0


def test_split_depth_rechecks_every_signature():
    with pytest.raises(StatelabError, match="not pure"):
        split_depth(flaky_oracle(), ["0", "1"], 2)


def test_split_depth_rechecks_a_bit_only_a_tied_word_was_asked():
    # "0" is apart from "10" and "11" at level 0; those two stay tied and
    # are split at level 1, where "110" answers False once, then True
    stable = {"10", "11", "100", "111"}
    calls = Counter()

    def member(w):
        calls[w] += 1
        return w in stable or (w == "110" and calls[w] > 1)

    L = LanguageOracle("flaky-tied", Alphabet("01"), member)
    with pytest.raises(StatelabError, match="not pure: witness '0' unstable for prefix '11'"):
        split_depth(L, ["0", "10", "11"], 3)
    # the untied word was never asked on level 1
    assert calls["00"] == calls["01"] == 0


def test_budget_guard_reports_needed_and_given():
    primes = get_language("primes")
    with pytest.raises(BudgetExceeded) as info:
        count_quotients(primes.oracle, 8, 8, budget=1000)
    assert "1000" in str(info.value)
    assert info.value.needed > info.value.budget


def test_quotient_report_serializations():
    spec = get_language("count-eq3")
    report = count_quotients(spec.oracle, 1, 3)
    payload = json.loads(report.to_json())
    assert payload == {
        "language": "count-eq3",
        "order": 1,
        "witness_bound": 3,
        "count": 4,
        "representatives": ["", "a", "b", "c"],
    }
    lines = report.to_csv().splitlines()
    assert lines[0] == "class,representative"
    assert len(lines) == 5
    assert "4" in report.to_text()


def test_query_table_explicit_rows_and_profiles():
    spec = get_language("l-exp")
    rows = ["", "#0", "#1", "#0#1"]
    report = query_table(
        spec.oracle, 1, RowSpec.explicit(rows), include_profiles=True
    )
    assert report.count == 4
    assert report.profiles == {
        "": "0001",
        "#0": "0101",
        "#1": "0011",
        "#0#1": "0111",
    }
    assert report.row_spec == {"kind": "explicit", "rows": ["", "#0", "#1", "#0#1"]}


@pytest.mark.parametrize("language, order, rows", [
    ("l-exp", 1, RowSpec.explicit(["", "#0", "#1", "#0#1", "#1#0"])),
    ("count-eq3", 2, RowSpec.exhaustive(2)),
    ("primes", 3, RowSpec.exhaustive(3)),
], ids=["explicit", "exhaustive", "exhaustive-primes"])
def test_query_table_signatures_render_to_the_profiles(language, order, rows):
    L = get_language(language).oracle
    report = query_table(L, order, rows, include_profiles=True)
    width = L.alphabet.count_up_to(order)
    assert len(report.signatures) == report.count == len(set(report.signatures))
    for rep, sig in zip(report.representatives, report.signatures):
        assert "".join(str(sig >> i & 1) for i in range(width)) == report.profiles[rep]
    # hidden like QuotientCountReport.signatures: not rendered, not compared
    plain = query_table(L, order, rows)
    assert plain.signatures == report.signatures
    assert "signatures" not in report.to_json() and "signatures" not in repr(report)
    plain.profiles = report.profiles
    plain.signatures = []
    assert plain == report


def test_query_table_exhaustive_rows_match_quotient_counts():
    spec = get_language("count-eq3")
    table = query_table(spec.oracle, 4, RowSpec.exhaustive(2))
    direct = count_quotients(spec.oracle, 2, 4)
    assert table.count == direct.count
    assert table.representatives == direct.representatives


def test_query_table_reports_serialize():
    spec = get_language("l-exp")
    report = query_table(spec.oracle, 1, RowSpec.explicit(["", "#0"]))
    payload = json.loads(report.to_json())
    assert payload["language"] == "l-exp"
    assert payload["order"] == 1
    assert payload["count"] == 2
    assert payload["row_spec"]["kind"] == "explicit"
    lines = report.to_csv().splitlines()
    assert lines[0] == "profile,representative"


def test_a_report_shows_its_repr_fields_that_are_set():
    L = get_language("l-exp").oracle
    plain = query_table(L, 1, RowSpec.explicit(["", "#0"]))
    full = query_table(L, 1, RowSpec.explicit(["", "#0"]), include_profiles=True)
    shown = {"language", "order", "row_spec", "count", "representatives"}
    assert set(plain.payload()) == shown
    assert set(full.payload()) == shown | {"profiles"}
    assert json.loads(full.to_json()) == full.payload()


def test_render_joins_reports_in_each_format():
    L = get_language("count-eq3").oracle
    reports = [count_quotients(L, 0, 1), count_quotients(L, 1, 3)]
    assert render(reports, "json") == "\n".join(r.to_json() for r in reports)
    assert render(reports, "csv") == "class,representative\n0,\n0,\n1,a\n2,b\n3,c"
    assert render(reports, "text") == reports[0].to_text() + "\n\n" + reports[1].to_text()
    assert render(reports[1:], "csv") == reports[1].to_csv()
    with pytest.raises(StatelabError, match="unknown report format 'xml'"):
        render(reports, "xml")


def test_row_spec_validation():
    spec = get_language("count-eq3")
    with pytest.raises(StatelabError):
        query_table(spec.oracle, 1, RowSpec.explicit(["zz"]))
    # duplicates collapse, order is canonical
    rows = RowSpec.explicit(["b", "a", "b"]).row_words(spec.alphabet)
    assert rows == ["a", "b"]


def test_exhaustive_row_spec_refuses_a_negative_length():
    with pytest.raises(StatelabError, match="row length must be >= 0, got -1"):
        RowSpec.exhaustive(-1)
    assert RowSpec.exhaustive(0).row_words(Alphabet("01")) == [""]


def test_query_table_budget_guard():
    spec = get_language("l-exp")
    with pytest.raises(BudgetExceeded):
        query_table(spec.oracle, 6, RowSpec.exhaustive(6), budget=100)


@pytest.mark.parametrize("rows", [RowSpec.explicit(["1"]), RowSpec.exhaustive(40)],
                         ids=["explicit", "exhaustive"])
def test_query_table_guards_its_budget_before_listing_a_word(monkeypatch, rows):
    primes = get_language("primes").oracle

    def refuse(self, n):
        raise AssertionError(f"listed the words up to length {n}")

    monkeypatch.setattr(Alphabet, "words_up_to", refuse)
    with pytest.raises(BudgetExceeded):
        query_table(primes, 28, rows, budget=1000)


@pytest.mark.parametrize("language, order, rows", [
    ("l-exp", 1, RowSpec.explicit(["", "#0", "#1", "#0#1", "#1#0"])),
    ("count-eq3", 2, RowSpec.exhaustive(2)),
    ("primes", 3, RowSpec.exhaustive(3)),
], ids=["explicit", "exhaustive", "exhaustive-primes"])
def test_query_table_full_column_set_is_the_default(language, order, rows):
    L = get_language(language).oracle
    default = query_table(L, order, rows, include_profiles=True)
    full = query_table(L, order, rows, include_profiles=True,
                       columns=RowSpec.exhaustive(order))
    assert (full.count, full.representatives, full.signatures) == (
        default.count, default.representatives, default.signatures)
    assert full.to_json() == default.to_json()


@pytest.mark.parametrize("language, order, rows, columns", [
    ("l-exp", 2, ["", "#0", "#1", "#01", "#10", "#0#11"], ["00", "01", "10", "11"]),
    ("l-exp", 2, ["#0", "#1", "#0#1"], ["", "1", "#", "1#"]),
    ("l-hier:2", 4, ["#0", "#1", "#0#1", "#00"], ["◊◊0", "◊◊1", "◊0", ""]),
    ("primes", 3, ["1", "01", "11", "001"], ["100", "101", "110", "111"]),
    ("count-eq3", 2, ["", "a", "ab", "bc"], ["", "c", "ba"]),
    ("count-eq3", 2, ["a", "b"], []),
    ("primes", 3, ["1", "01"], RowSpec.exhaustive(1)),
])
def test_query_table_explicit_columns_match_brute_force(language, order, rows, columns):
    L = get_language(language).oracle
    columns = columns if isinstance(columns, RowSpec) else RowSpec.explicit(columns)
    report = query_table(L, order, RowSpec.explicit(rows), include_profiles=True,
                         columns=columns)
    listed = columns.row_words(L.alphabet)
    profiles = {w: "".join("1" if L(u + w) else "0" for u in listed)
                for w in RowSpec.explicit(rows).row_words(L.alphabet)}
    assert report.profiles == profiles
    for rep, sig in zip(report.representatives, report.signatures):
        assert [bool(sig >> i & 1) for i in range(len(listed))] == [L(u + rep) for u in listed]
    assert report.count == len(set(profiles.values()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(language=st.sampled_from(["l-exp", "count-eq3", "primes", "maj2"]),
       order=st.integers(0, 2), data=st.data())
def test_query_table_count_never_grows_when_columns_are_dropped(language, order, data):
    L = get_language(language).oracle
    every = list(L.alphabet.words_up_to(order))
    kept = data.draw(st.lists(st.sampled_from(every), unique=True))
    rows = RowSpec.exhaustive(2)
    full = query_table(L, order, rows)
    part = query_table(L, order, rows, columns=RowSpec.explicit(kept))
    assert part.count <= full.count


@pytest.mark.parametrize("columns, match", [
    (RowSpec.explicit(["0", "011"]), "column of length 3 is past order 2"),
    (RowSpec.exhaustive(3), "column of length 3 is past order 2"),
    (RowSpec.explicit(["0", "2"]), "letter '2' not in alphabet '01'"),
], ids=["explicit-too-long", "exhaustive-too-long", "bad-letter"])
def test_query_table_refuses_a_bad_column_before_any_query(columns, match):
    asked = []
    L = LanguageOracle("even-zeros", Alphabet("01"),
                       lambda w: asked.append(w) or w.count("0") % 2 == 0)
    with pytest.raises(StatelabError, match=match):
        query_table(L, 2, RowSpec.explicit(["", "1"]), columns=columns)
    assert asked == []


def test_query_table_budget_counts_the_columns_asked():
    L = even_zeros_oracle()
    columns = RowSpec.explicit(["00", "01", "10"])
    # 3 rows times 3 columns, not times the 7 words of {0,1}^{<=2}
    assert query_table(L, 2, RowSpec.exhaustive(1), budget=9, columns=columns).count == 2
    with pytest.raises(BudgetExceeded) as exc:
        query_table(L, 2, RowSpec.exhaustive(1), budget=8, columns=columns)
    assert (exc.value.needed, exc.value.budget) == (9, 8)


def test_oracle_union_and_intersection():
    L1 = even_zeros_oracle()
    alpha = Alphabet("01")
    L2 = LanguageOracle("has-one", alpha, lambda w: "1" in w)
    union = oracle_union(L1, L2)
    inter = oracle_intersection(L1, L2)
    for w in alpha.words_up_to(5):
        assert union(w) == (L1(w) or L2(w))
        assert inter(w) == (L1(w) and L2(w))
    assert union.name == "(even-zeros | has-one)"
    assert inter.name == "(even-zeros & has-one)"


def test_set_operations_require_matching_alphabets():
    L1 = even_zeros_oracle()
    L2 = LanguageOracle("other", Alphabet("ab"), lambda w: True)
    with pytest.raises(StatelabError):
        oracle_union(L1, L2)
    with pytest.raises(StatelabError):
        oracle_intersection(L1, L2)


def test_from_automaton_wraps_acceptance():
    m = get_language("maj2").automaton
    L = from_automaton(m)
    assert L("a")
    assert not L("ab")
    assert L.alphabet == m.alphabet


@pytest.mark.parametrize("search", [
    lambda L: distinguish(L, "1" + "0" * 62, "1" + "0" * 61 + "1", 4),
    lambda L: count_quotients(L, 40, 25, budget=10**30),
    lambda L: query_table(L, 2, RowSpec.explicit(["1" * 63])),
    lambda L: query_table(L, 70, RowSpec.explicit(["1"]), budget=10**30),
    lambda L: split_depth(L, ["1" + "0" * 62, "1" * 63], 4),
], ids=["distinguish", "count_quotients", "query_table", "query_table-long-columns",
        "split_depth"])
def test_over_long_primes_requests_fail_before_any_query(search):
    primes = get_language("primes").oracle
    asked = []

    def member(word):
        asked.append(word)
        return primes(word)

    counted = LanguageOracle(primes.name, primes.alphabet, member,
                             max_word_length=primes.max_word_length)
    with pytest.raises(UnsupportedError, match="up to 64 letters"):
        search(counted)
    assert asked == []
