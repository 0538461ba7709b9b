import re
from fractions import Fraction

import pytest

from statelab import ComplexityProfile, StatelabError, check_bound, get_language, profile
from statelab.gallery import hierarchy_exponent, names


def test_registry_lists_every_language():
    listed = names()
    for name in ("count-eq3", "not-eq", "lex", "l-exp", "primes",
                 "l-log", "maj2", "rabin-half"):
        assert name in listed
    assert any(n.startswith("l-hier") for n in listed)


def test_unknown_names_are_rejected_with_the_known_list():
    with pytest.raises(StatelabError, match="count-eq3"):
        get_language("nope")
    with pytest.raises(StatelabError):
        get_language("l-hier:one")
    with pytest.raises(StatelabError):
        get_language("l-hier:1")


def test_count_eq3_membership():
    L = get_language("count-eq3").oracle
    assert L("")
    assert L("abc")
    assert L("cba")
    assert L("aabbcc")
    assert not L("ab")
    assert not L("aab")


def test_not_eq_membership():
    L = get_language("not-eq").oracle
    assert L("0#1")
    assert L("01#10")
    assert L("0#01")
    assert not L("0#0")
    assert not L("#")
    assert not L("0")
    assert not L("0#1#0")


def test_lex_membership():
    L = get_language("lex").oracle
    assert L("0#1")
    assert L("#0")
    assert L("0#00")
    assert not L("1#0")
    assert not L("0#0")
    assert not L("#")
    assert not L("00")


def test_reversed_block_membership():
    L = get_language("l-exp").oracle
    assert L("#")
    assert L("01#10")
    assert L("1#1")
    assert L("01#00#10")
    assert not L("01#01")
    assert not L("")
    assert not L("01")


def test_hierarchy_membership():
    L = get_language("l-hier:2").oracle
    assert L("◊01#01")
    assert L("◊◊01#01#11")
    assert L("◊#")
    assert not L("01#01")          # no diamond budget prefix
    assert not L("◊01#11")         # search block absent
    assert not L("◊01#01#11")      # two blocks exceed 1^2
    assert not L("◊01◊#01")        # diamond after the prefix
    assert not L("◊0101")          # no separator
    five_blocks = "◊◊" + "00" + "#00" * 5
    assert not L(five_blocks)      # five blocks exceed 2^2


def test_hierarchy_exponent_three_budget():
    L = get_language("l-hier:3").oracle
    assert L("◊0#0")                    # one block within budget 1^3
    assert not L("◊0#0" + "#1" * 7)     # eight blocks exceed 1^3
    assert L("◊◊0#0" + "#1" * 7)        # eight blocks within 2^3


_HIER_WORD = re.compile(r"(◊*)([01]*)((?:#[01]*)+)")


def _restated_hierarchy_member(w: str, power: int) -> bool:
    """A diamond prefix of length p, then u, then at most p^power blocks,
    each opened by '#', one of them equal to u; no other diamond."""
    match = _HIER_WORD.fullmatch(w)
    if match is None:
        return False
    diamonds, u, tail = match.groups()
    blocks = tail.split("#")[1:]
    return len(blocks) <= len(diamonds) ** power and u in blocks


@pytest.mark.parametrize("power", [2, 3])
def test_hierarchy_oracle_matches_the_restated_language_up_to_length_7(power):
    spec = get_language(f"l-hier:{power}")
    words = list(spec.alphabet.words_up_to(7))
    assert len(words) == sum(4 ** k for k in range(8))
    got = [spec.oracle(w) for w in words]
    assert got == [_restated_hierarchy_member(w, power) for w in words]
    assert any(got) and not all(got)
    # past length 7: four blocks within the budget 2^power, and three
    # blocks refused only by the budget 1^power
    for w, want in (("◊◊0#1#1#1#0", True), ("◊0#1#1#0", False)):
        assert _restated_hierarchy_member(w, power) is want
        assert spec.oracle(w) is want


def test_hierarchy_exponent_is_parsed_in_one_place():
    assert hierarchy_exponent("l-hier:3") == 3
    assert hierarchy_exponent("hierarchy:2") == 2
    for bad in ("l-hier:x", "l-hier:1", "l-hier:", "hierarchy:0", "l-hier: 3",
                "l-hier:+3", "l-hier:1_0", "l-hier:\u0663", "hierarchy:2 "):
        with pytest.raises(StatelabError, match="exponent"):
            hierarchy_exponent(bad)
    with pytest.raises(StatelabError, match="exponent >= 2"):
        get_language("l-hier:1")


def test_primes_membership():
    L = get_language("primes").oracle
    assert L("11")       # three
    assert L("010")      # two
    assert L("101")      # five
    assert not L("1")    # one
    assert not L("")     # zero
    assert not L("001")  # four


def test_log_prefix_membership():
    L = get_language("l-log").oracle
    assert L("#")
    assert L("000#00")
    assert L("0101#01")
    assert not L("")
    assert not L("0#")
    assert not L("0101#10")


def test_maj2_membership():
    L = get_language("maj2").oracle
    assert L("a")
    assert L("aab")
    assert L("baa")
    assert not L("")
    assert not L("ab")
    assert not L("abb")


def test_rabin_half_membership():
    spec = get_language("rabin-half")
    assert spec.prob_automaton is not None
    assert spec.automaton is None
    L = spec.oracle
    assert L("11")
    assert not L("1")
    assert not L("0")


def test_frozen_reachability_profiles():
    frozen = {
        "count-eq3": [1, 4, 10, 19, 31, 46, 64, 85],
        "not-eq": [1, 6, 14, 21, 28, 35, 42, 49],
        "lex": [1, 5, 12, 18, 24, 30, 36, 42],
        "maj2": [1, 3, 5, 7, 9, 11, 13, 15],
        "l-hier:2": [1, 2, 9, 31, 82, 177, 333, 566],
    }
    for name, counts in frozen.items():
        automaton = get_language(name).automaton
        assert automaton.reachable_counts(7) == counts, name


def test_oracle_and_automaton_agree_on_short_words():
    for name in ("count-eq3", "not-eq", "lex", "maj2", "l-hier:2"):
        spec = get_language(name)
        bound = min(spec.validation_bound, 6)
        for w in spec.alphabet.words_up_to(bound):
            assert spec.automaton.accepts(w) == spec.oracle(w), (name, w)


def test_declared_classes_present_where_promised():
    assert get_language("count-eq3").declared_class == ("n^2", 9)
    assert get_language("not-eq").declared_class == ("n", 7)
    assert get_language("lex").declared_class == ("n", 6)
    assert get_language("maj2").declared_class == ("n", 3)
    assert get_language("l-hier:2").declared_class == ("n^3", 3)
    assert get_language("l-exp").declared_class == ("2^n", 5)


def test_l_exp_automaton_agrees_with_its_oracle_on_every_word_to_length_9():
    spec = get_language("l-exp")
    assert spec.validation_bound == 9
    words = list(spec.alphabet.words_up_to(9))
    assert len(words) == 29_524
    accepted = spec.automaton.accepts_up_to(9)
    assert [w for w, a in zip(words, accepted) if a != spec.oracle(w)] == []


def test_l_exp_reachable_counts_follow_their_closed_form():
    # 5*2^n - 1 - e(n): ("u", u) for |u| <= n, ("skip", u) for |u| < n, and
    # ("chk", u, i) for |u| + 1 + i <= n and i <= |u|
    def e(n):
        return 2 ** ((n + 3) // 2) if n % 2 else 3 * 2 ** (n // 2)

    counts = get_language("l-exp").automaton.reachable_counts(16)
    assert counts == [5 * 2**n - 1 - e(n) for n in range(17)]
    assert counts[:4] == [1, 5, 13, 31]
    cls, constant = get_language("l-exp").declared_class
    assert check_bound(ComplexityProfile("l-exp", counts), cls, constant).passed


def test_specs_carry_consistent_alphabets():
    for name in ("count-eq3", "not-eq", "lex", "maj2", "l-hier:2"):
        spec = get_language(name)
        assert spec.automaton.alphabet == spec.alphabet
        assert spec.validation_bound >= 6


@pytest.fixture(scope="module")
def hier2_profile_48():
    return profile(get_language("l-hier:2").automaton, 48)


def test_hier2_declared_cubic_ceiling_holds_to_depth_48(hier2_profile_48):
    cls, constant = get_language("l-hier:2").declared_class
    check = check_bound(hier2_profile_48, cls, constant)
    assert check.passed
    # count / n^3 is still rising at 48, towards but below 3
    assert check.max_ratio == Fraction(273571, 48**3)


def test_hier2_former_quadratic_ceiling_fails_by_depth_40(hier2_profile_48):
    to_40 = ComplexityProfile("l-hier:2", hier2_profile_48.counts[:41])
    check = check_bound(to_40, "n^2", 71)
    assert not check.passed
    assert [n for n, ok in enumerate(check.verdicts) if not ok] == list(range(31, 41))


@pytest.mark.parametrize("name", sorted(set(names()) - {"l-hier:<l>"}) + ["l-hier:2", "l-hier:3"])
def test_every_spec_carries_one_name_and_one_alphabet(name):
    spec = get_language(name)
    assert spec.name == spec.oracle.name == name
    assert spec.oracle.alphabet == spec.alphabet
    if spec.automaton is not None:
        assert spec.automaton.name == name
        assert spec.automaton.alphabet == spec.alphabet
    if spec.prob_automaton is not None:
        assert spec.prob_automaton.alphabet == spec.alphabet
    assert spec.oracle.max_word_length == (64 if name == "primes" else None)
