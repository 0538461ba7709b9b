import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelab import Alphabet, StatelabError
from statelab.words import _mask


def test_alphabet_basics():
    alpha = Alphabet("abc")
    assert len(alpha) == 3
    assert list(alpha) == ["a", "b", "c"]
    assert "b" in alpha
    assert "d" not in alpha
    assert alpha == Alphabet("abc")
    assert alpha != Alphabet("acb")


def test_alphabet_rejects_bad_input():
    with pytest.raises(StatelabError):
        Alphabet("")
    with pytest.raises(StatelabError):
        Alphabet("aa")


def test_check_word():
    alpha = Alphabet("01")
    alpha.check_word("0110")
    alpha.check_word("")
    with pytest.raises(StatelabError):
        alpha.check_word("012")


def test_words_of_length_declared_order():
    alpha = Alphabet("ba")
    assert list(alpha.words_of_length(0)) == [""]
    assert list(alpha.words_of_length(1)) == ["b", "a"]
    assert list(alpha.words_of_length(2)) == ["bb", "ba", "ab", "aa"]


def test_words_up_to_is_length_then_letter_order():
    alpha = Alphabet("01")
    got = list(alpha.words_up_to(2))
    assert got == ["", "0", "1", "00", "01", "10", "11"]
    assert got == sorted(got, key=alpha.sort_key)


def test_count_up_to_matches_enumeration():
    for letters in ("a", "01", "abc"):
        alpha = Alphabet(letters)
        for n in range(6):
            assert alpha.count_up_to(n) == len(list(alpha.words_up_to(n)))


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.sampled_from(["0", "1"]), max_size=8),
       st.lists(st.sampled_from(["0", "1"]), max_size=8))
def test_sort_key_orders_shorter_first_then_by_rank(u_bits, v_bits):
    alpha = Alphabet("01")
    u, v = "".join(u_bits), "".join(v_bits)
    if len(u) < len(v):
        assert alpha.sort_key(u) < alpha.sort_key(v)
    elif u == v:
        assert alpha.sort_key(u) == alpha.sort_key(v)


def test_words_of_length_rejects_negative():
    alpha = Alphabet("01")
    with pytest.raises(StatelabError):
        list(alpha.words_of_length(-1))


@pytest.mark.parametrize("method", ["words_up_to", "count_up_to"])
def test_negative_lengths_raise_like_words_of_length(method):
    with pytest.raises(StatelabError, match="word length must be nonnegative, got -2"):
        getattr(Alphabet("ab"), method)(-2)


@pytest.mark.parametrize("letters", ["b", "10", "cab", "dbca"])
def test_words_up_to_matches_sorted_brute_force(letters):
    alpha = Alphabet(letters)
    for n in range(6):
        brute = {""}
        for _ in range(n):
            brute |= {w + a for w in brute for a in letters}
        assert list(alpha.words_up_to(n)) == sorted(brute, key=alpha.sort_key)


@pytest.mark.parametrize("word, bad", [
    ("x011", "x"),   # at the start
    ("01x1", "x"),   # in the middle
    ("011x", "x"),   # at the end
    ("0x1xx", "x"),  # repeated
    ("0yx1", "y"),   # the first of two different bad letters
    ("x", "x"),
])
def test_check_word_names_the_first_bad_letter(word, bad):
    with pytest.raises(StatelabError) as exc:
        Alphabet("01").check_word(word)
    assert str(exc.value) == f"letter {bad!r} not in alphabet '01'"


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="01xy", max_size=8))
def test_check_word_matches_a_letter_by_letter_walk(word):
    bad = [ch for ch in word if ch not in "01"]
    if not bad:
        Alphabet("01").check_word(word)
        return
    with pytest.raises(StatelabError) as exc:
        Alphabet("01").check_word(word)
    assert str(exc.value) == f"letter {bad[0]!r} not in alphabet '01'"


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=80))
def test_mask_sets_bit_i_iff_item_i_holds(items):
    # truthiness decides: holds may return any value, here the item itself
    for holds in (lambda x: x, lambda x: x % 2 == 0):
        want = sum(1 << i for i, x in enumerate(items) if holds(x))
        assert _mask(holds, items) == want
        assert _mask(holds, iter(items)) == want
