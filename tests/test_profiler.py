import json
from fractions import Fraction

import pytest

from statelab import (
    Atom,
    AlternatingAutomaton,
    StatelabError,
    check_bound,
    get_language,
    profile,
)
from statelab.profiler import BOUND_CLASSES, CheckedProfile, bound_function
from statelab.quotients import render


def test_bound_function_shapes():
    const = bound_function("const")
    assert [const(n) for n in (0, 1, 10)] == [1, 1, 1]
    linear = bound_function("n")
    assert [linear(n) for n in (0, 1, 5)] == [1, 1, 5]
    square = bound_function("n^2")
    assert [square(n) for n in (0, 1, 4)] == [1, 1, 16]
    cube = bound_function("n^3")
    assert cube(2) == 8
    expo = bound_function("2^n")
    assert [expo(n) for n in (0, 3)] == [1, 8]


def test_bound_function_rejects_unknown_classes():
    for bad in ("m", "n^", "n^x", "3^n", "", "n^\u0663", "n^+3", "n^ 3", "n^3 ", "n^1_0"):
        with pytest.raises(StatelabError):
            bound_function(bad)
    assert "const" in BOUND_CLASSES


def test_check_bound_rejects_a_constant_below_one():
    prof = profile(get_language("maj2").automaton, 3)
    for bad in (0, -1):
        with pytest.raises(StatelabError, match=f"bound constant must be >= 1, got {bad}"):
            check_bound(prof, "n", bad)
    for bad in (1.5, True):
        with pytest.raises(StatelabError, match=f"bound constant must be an int, got {bad}"):
            check_bound(prof, "n", bad)


def test_profile_counts_and_name():
    m = get_language("maj2").automaton
    prof = profile(m, 5)
    assert prof.counts == [1, 3, 5, 7, 9, 11]
    assert prof.name == m.name
    assert prof.pairs() == [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9), (5, 11)]


def test_profile_is_deterministic():
    m = get_language("lex").automaton
    assert profile(m, 8).counts == profile(m, 8).counts
    assert profile(m, 8).counts == m.reachable_counts(8)


def test_profile_of_finite_automaton_levels_off():
    trans = {
        ("q", "a"): Atom("r"),
        ("q", "b"): Atom("q"),
        ("r", "a"): Atom("q"),
        ("r", "b"): Atom("r"),
    }
    m = AlternatingAutomaton("ab", "q", trans, {"r"}, states=["q", "r"])
    prof = profile(m, 6)
    assert prof.counts == [1, 2, 2, 2, 2, 2, 2]


def test_check_bound_passing_case():
    m = get_language("maj2").automaton
    prof = profile(m, 10)
    check = check_bound(prof, "n", 3)
    assert check.passed
    assert check.max_ratio == Fraction(3)
    assert check.verdicts.count(True) == len(prof.counts)
    assert "pass" in check.to_text()


def test_check_bound_failing_case():
    m = get_language("count-eq3").automaton
    prof = profile(m, 40)
    check = check_bound(prof, "n", 10)
    assert not check.passed
    payload = json.loads(check.to_json())
    assert payload["passed"] is False
    assert payload["failures"]
    assert any(depth == 40 for depth in payload["failures"])
    assert "FAIL" in check.to_text()


def test_check_bound_max_ratio_is_exact():
    m = get_language("lex").automaton
    prof = profile(m, 40)
    check = check_bound(prof, "n", 6)
    assert check.passed
    # 6n is attained exactly from depth 2 onwards
    assert check.max_ratio == Fraction(6)


def test_profile_serializations():
    m = get_language("maj2").automaton
    prof = profile(m, 3)
    payload = json.loads(prof.to_json())
    assert payload == {"automaton": m.name, "counts": [1, 3, 5, 7]}
    lines = render([prof], "csv").splitlines()
    assert lines[0] == "n,count"
    assert lines[1] == "0,1"
    assert lines[-1] == "3,7"
    assert m.name in prof.to_text()


def test_checked_profile_pairs_each_depth_with_its_verdict():
    prof = profile(get_language("maj2").automaton, 3)
    check = check_bound(prof, "n", 2)
    checked = CheckedProfile(prof, check)
    assert json.loads(checked.to_json()) == {
        "automaton": "maj2",
        "profile": [1, 3, 5, 7],
        "bound": json.loads(check.to_json()),
    }
    assert render([checked], "csv") == "n,count,within_bound\n0,1,true\n1,3,false\n2,5,false\n3,7,false"
    assert render([check], "csv") == "n,within_bound\n0,true\n1,false\n2,false\n3,false"
    assert checked.to_text() == prof.to_text() + "\n" + check.to_text()
