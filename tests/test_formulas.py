import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statelab
from statelab import (
    FALSE,
    TRUE,
    And,
    Atom,
    Or,
    StatelabError,
    atoms,
    conj,
    disj,
    evaluate,
    format_formula,
    parse_formula,
)


def test_truth_table_for_and_over_or():
    f = conj([Atom("p"), disj([Atom("q"), Atom("r")])])
    expected = {
        (False, False, False): False,
        (False, False, True): False,
        (False, True, False): False,
        (False, True, True): False,
        (True, False, False): False,
        (True, False, True): True,
        (True, True, False): True,
        (True, True, True): True,
    }
    for (p, q, r), want in expected.items():
        truth = {"p": p, "q": q, "r": r}
        assert evaluate(f, truth.__getitem__) is want


def test_constants_evaluate_without_atoms():
    assert evaluate(TRUE, lambda q: False) is True
    assert evaluate(FALSE, lambda q: True) is False


def test_evaluate_missing_atom_is_reported():
    with pytest.raises(StatelabError):
        evaluate(Atom("p"), {}.__getitem__)


def test_conj_disj_identities():
    a, b = Atom("a"), Atom("b")
    assert conj([]) is TRUE
    assert disj([]) is FALSE
    assert conj([a]) is a
    assert disj([b]) is b
    assert conj([a, FALSE, b]) is FALSE
    assert disj([a, TRUE]) is TRUE
    assert conj([a, TRUE, b]) == And((a, b))
    assert disj([a, FALSE, b]) == Or((a, b))


def test_conj_disj_flatten_same_operator():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert conj([a, conj([b, c])]) == And((a, b, c))
    assert disj([disj([a, b]), c]) == Or((a, b, c))
    # mixed operators keep their structure
    assert conj([a, disj([b, c])]) == And((a, Or((b, c))))


def test_empty_node_construction_is_rejected():
    with pytest.raises(StatelabError):
        And(())
    with pytest.raises(StatelabError):
        Or(())


def test_atoms_collects_every_state():
    f = conj([Atom(1), disj([Atom(2), Atom(3), Atom(1)])])
    assert set(atoms(f)) == {1, 2, 3}
    assert set(atoms(TRUE)) == set()


def test_format_uses_minimal_parentheses():
    q0, q1, q2 = Atom("q0"), Atom("q1"), Atom("q2")
    assert format_formula(conj([q1, disj([q0, q2])])) == "q1 & (q0 | q2)"
    assert format_formula(disj([q1, conj([q2, q0])])) == "q1 | q2 & q0"
    assert format_formula(TRUE) == "T"
    assert format_formula(FALSE) == "F"


def test_parse_precedence_and_round_trip():
    f = parse_formula("q1 | q2 & q3")
    assert f == Or((Atom("q1"), And((Atom("q2"), Atom("q3")))))
    for text in ("q1 & (q0 | q2)", "a | b & c", "T", "F", "x"):
        assert format_formula(parse_formula(text)) == text


def _random_formula(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return Atom(rng.choice(names))
    parts = [_random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(parts) if roll < 0.75 else disj(parts)


@settings(derandomize=True, max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 31))
def test_flipping_an_atom_true_never_loses_acceptance(seed, flip_mask_bits):
    """Positive formulas are monotone in their atom assignment."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d", "e"]
    f = _random_formula(rng, names, depth=3)
    truth = {q: bool(flip_mask_bits >> i & 1) for i, q in enumerate(names)}
    before = evaluate(f, truth.__getitem__)
    for q in names:
        if not truth[q]:
            bumped = dict(truth)
            bumped[q] = True
            after = evaluate(f, bumped.__getitem__)
            assert after or not before


def test_nodes_are_hashable_and_comparable():
    assert Atom("x") == Atom("x")
    assert len({Atom("x"), Atom("x"), Atom("y")}) == 2
    assert And((Atom("x"), Atom("y"))) != Or((Atom("x"), Atom("y")))


def test_nodes_have_no_instance_dict():
    for node in (Atom("x"), And((Atom("x"), TRUE)), Or((Atom("x"), FALSE))):
        assert not hasattr(node, "__dict__")


_REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "statelab" or m.startswith("statelab.")]:
        del sys.modules[name]
    return importlib.import_module("statelab")

old = weakref.ref(fresh().formulas.Atom)
fresh()
gc.collect()
print("collected" if old() is None else "alive")
"""


def test_reimport_releases_the_previous_formula_classes():
    src = str(Path(statelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _REIMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "collected"


@pytest.mark.parametrize("clone", [
    lambda f: pickle.loads(pickle.dumps(f)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_constants_stay_singletons_through_pickle_and_copy(clone):
    assert clone(TRUE) is TRUE
    assert clone(FALSE) is FALSE
    f = disj([conj([Atom("p"), TRUE]), And((Atom("q"), FALSE)), Or((Atom("r"), TRUE))])
    g = clone(f)
    assert g == f
    assert hash(g) == hash(f)
    assert evaluate(clone(TRUE), lambda q: False) is True
    assert evaluate(clone(FALSE), lambda q: True) is False
    for truth in ({"p": False, "q": True, "r": False}, {"p": False, "q": False, "r": False}):
        assert evaluate(g, truth.__getitem__) == evaluate(f, truth.__getitem__)


def _evaluate_with_all_any(formula, truth):
    """evaluate written with all() and any() over generators, kept as the reference."""
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
        return all(_evaluate_with_all_any(c, truth) for c in formula.children)
    if isinstance(formula, Or):
        return any(_evaluate_with_all_any(c, truth) for c in formula.children)
    raise StatelabError(f"not a formula: {formula!r}")


# Nodes are built directly rather than through conj/disj, so nested
# same-operator nodes, constants and single children stay in the tree;
# "u" is never given a truth value and "junk" is no formula at all.
_nodes = st.recursive(
    st.one_of(st.sampled_from("abcu").map(Atom), st.sampled_from([TRUE, FALSE]),
              st.just("junk")),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=1, max_size=4).map(lambda cs: Or(tuple(cs))),
    ),
    max_leaves=16,
)


def _outcome(evaluator, formula, values):
    looked_up = []

    def truth(q):
        looked_up.append(q)
        return values[q]

    try:
        result = evaluator(formula, truth)
    except StatelabError as exc:
        result = ("raised", str(exc))
    return result, looked_up


@settings(derandomize=True, max_examples=500)
@given(_nodes, st.fixed_dictionaries({q: st.integers(0, 2) for q in "abc"}))
def test_evaluate_matches_the_all_any_version(formula, values):
    """Same value, same error, and the same atoms looked up in the same order."""
    got = _outcome(evaluate, formula, values)
    assert got == _outcome(_evaluate_with_all_any, formula, values)
    assert type(got[0]) in (bool, tuple)


def test_evaluate_errors_name_the_missing_atom_and_the_non_formula():
    with pytest.raises(StatelabError, match=r"^no truth value for atom 'u'$"):
        evaluate(And((Atom("a"), Atom("u"))), {"a": True}.__getitem__)
    with pytest.raises(StatelabError, match=r"^not a formula: 'junk'$"):
        evaluate(Or((Atom("a"), "junk")), {"a": False}.__getitem__)


def _mirror_conj(parts):
    """conj written out on its own, kept as the reference."""
    out = []
    for p in parts:
        if p is TRUE:
            continue
        if p is FALSE:
            return FALSE
        if isinstance(p, And):
            out.extend(p.children)
        else:
            out.append(p)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def _mirror_disj(parts):
    """disj written out on its own, kept as the reference."""
    out = []
    for p in parts:
        if p is FALSE:
            continue
        if p is TRUE:
            return TRUE
        if isinstance(p, Or):
            out.extend(p.children)
        else:
            out.append(p)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


@settings(derandomize=True, max_examples=200)
@given(st.lists(_nodes, max_size=5))
def test_conj_and_disj_match_the_two_mirror_builders(parts):
    # the lists hold constants, nested And/Or nodes, singletons and []
    for build, mirror in ((conj, _mirror_conj), (disj, _mirror_disj)):
        got, want = build(iter(parts)), mirror(parts)
        assert type(got) is type(want)
        assert got == want if isinstance(want, (And, Or)) else got is want


def test_and_and_or_stay_apart_through_equality_repr_and_pickle():
    children = (Atom("x"), Or((Atom("y"), TRUE)))
    both = And(children), Or(children)
    assert both[0] != both[1] and both[1] != both[0]
    assert [repr(f) for f in both] == [
        "And(Atom('x'), Or(Atom('y'), TRUE))",
        "Or(Atom('x'), Or(Atom('y'), TRUE))",
    ]
    for f in both:
        g = pickle.loads(pickle.dumps(f))
        assert type(g) is type(f) and g == f and hash(g) == hash(f)
    for node in (And, Or):
        with pytest.raises(StatelabError, match=f"^{node.__name__} needs at least one child$"):
            node(())


_EVERY_NODE = [Atom("x"), And((Atom("x"), TRUE)), Or((Atom("x"), FALSE))]


@pytest.mark.parametrize("node", _EVERY_NODE, ids=["Atom", "And", "Or"])
@pytest.mark.parametrize("name", ["state", "children", "y"])
def test_nodes_refuse_every_assignment_and_deletion(node, name):
    before = repr(node)
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(node, name, 1)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(node, name)
    assert repr(node) == before


@pytest.mark.parametrize("clone", [
    lambda f: pickle.loads(pickle.dumps(f)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_nodes_keep_equality_hash_and_repr(clone):
    x, y = Atom(("q", 1)), Atom("y")
    nodes = [x, And((x, y)), Or((x, y)), And((Or((x, TRUE)), FALSE))]
    assert [repr(f) for f in nodes] == [
        "Atom(('q', 1))",
        "And(Atom(('q', 1)), Atom('y'))",
        "Or(Atom(('q', 1)), Atom('y'))",
        "And(Or(Atom(('q', 1)), TRUE), FALSE)",
    ]
    assert [hash(f) for f in nodes] == [hash((("q", 1),)), hash(((x, y),)), hash(((x, y),)),
                                        hash(((Or((x, TRUE)), FALSE),))]
    for f in nodes:
        g = clone(f)
        assert type(g) is type(f) and g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert not hasattr(g, "__dict__")
    # equality asks for the exact class, never a subclass or a look-alike
    assert x != ("q", 1) and x != y and And((x, y)) != Or((x, y))
    assert (x == 1) is False and x.__eq__(1) is NotImplemented
