"""Golden bytes: the canonical JSON of reports must not change under refactors.

The experiment reports are pinned by length and sha256 of their canonical
JSON (the claims make them long); the smaller reports, the interchange
text and the CLI output are pinned verbatim. A change to any of these bytes is a change to the
published results and needs its own justification. Every pinned JSON
payload is also walked for floats, which no report may hold.
"""

import hashlib
import json
from collections import deque

import pytest

from statelab import (
    FALSE,
    TRUE,
    AlternatingAutomaton,
    Atom,
    ComplexityProfile,
    RowSpec,
    check_bound,
    atoms,
    conj,
    count_quotients,
    disj,
    get_language,
    profile,
    query_table,
    rabin_automaton,
    run_experiment,
    serialize_automaton,
    serialize_prob_automaton,
)
from statelab.cli import main


def assert_no_float(text):
    """Walk every JSON line of `text`, however deeply nested, and fail on
    any float: ratios and probabilities are exact strings, counts ints."""
    for line in text.splitlines():
        stack = [json.loads(line)]
        while stack:
            value = stack.pop()
            assert not isinstance(value, float), (value, line)
            if isinstance(value, dict):
                stack.extend(value.values())
            elif isinstance(value, list):
                stack.extend(value)


@pytest.mark.parametrize("text", ['{"a":[1,{"b":[0.5]}]}', '{"a":1.0}', '[NaN]',
                                  '{"a":{"b":1e3}}'])
def test_the_float_guard_finds_a_float_anywhere(text):
    with pytest.raises(AssertionError):
        assert_no_float(text)
    assert_no_float('{"a":[1,{"b":["1/2",true,null]}]}')


EXPERIMENT_DIGESTS = [
    ("exp-alt", {"n": 1}, 379,
     "71bc3424554a394a5532cbf0861dfaa0277143207aea8e96549382383e697efc"),
    ("hierarchy:2", {}, 367,
     "f23031c04c4e513281d2e18aa014e73d40c04bbe06141f42123bd2f629973994"),
    ("primes-hs", {"n": 4}, 654,
     "a1339f70aeec5ded8892d7066ba3ab05b6a47c26614bcce08039da5245a33f42"),
    ("primes-linear", {"n": 2}, 548,
     "2b526d0578e2a2d7ec673a8eda0054f6f76889d078e94d735cc58cc287433e29"),
    ("rabin-claim", {"n": 3}, 532,
     "f1e823703d79fea07f39079752162913963d2e25b2468c2f0e4396bdea46af50"),
    ("core-crosscheck", {"seed": 7, "count": 25, "mono_pairs": 200}, 519,
     "fc1b3f25db84925917b56bd114f52d236592907ba46a28964f3b62602619f402"),
]


@pytest.mark.parametrize(
    "exp_id,overrides,length,digest", EXPERIMENT_DIGESTS,
    ids=[exp_id for exp_id, *_ in EXPERIMENT_DIGESTS],
)
def test_experiment_report_bytes(exp_id, overrides, length, digest):
    text = run_experiment(exp_id, **overrides).to_json()
    actual = (len(text), hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert actual == (length, digest), text
    assert_no_float(text)


def test_rabin_claim_report_bytes_at_the_benchmark_order():
    # n = 7 is what the rabin-separation benchmark workload runs
    test_experiment_report_bytes(
        "rabin-claim", {"n": 7}, 769,
        "ec1d0fb1ed2ca282c6d6ce10835928baca0f8e7fd7f110b24871f97e0d8337aa")


# the primes runs at benchmark scale, where the quotient sweep and the
# prime oracle do most of their work
PRIMES_DIGESTS = [
    ("primes-hs", {"n": 10}, 1247,
     "0373d27e1f682f83648e47187dff503f0352f975cea51a010fe7f6fd41585a4f"),
    ("primes-linear", {"n": 5}, 694,
     "8c06b5d9c452d77db5ba361945190814c11a62f7c47f4985d53f83b413651441"),
]


@pytest.mark.parametrize(
    "exp_id,overrides,length,digest", PRIMES_DIGESTS,
    ids=[f"{exp_id}-n{overrides['n']}" for exp_id, overrides, *_ in PRIMES_DIGESTS],
)
def test_primes_report_bytes_at_benchmark_scale(exp_id, overrides, length, digest):
    test_experiment_report_bytes(exp_id, overrides, length, digest)


def test_complexity_profile_bytes():
    prof = profile(get_language("maj2").automaton, 4)
    assert prof.to_json() == '{"automaton":"maj2","counts":[1,3,5,7,9]}'
    assert_no_float(prof.to_json())


def test_bound_check_bytes():
    check = check_bound(ComplexityProfile("toy", [1, 1, 7]), "n^2", 1)
    assert check.to_json() == (
        '{"class":"n^2","constant":1,"failures":[2],"max_ratio":"7/4","passed":false}'
    )
    assert_no_float(check.to_json())


def test_quotient_count_report_bytes():
    report = count_quotients(get_language("count-eq3").oracle, 1, 3)
    assert report.to_json() == (
        '{"count":4,"language":"count-eq3","order":1,'
        '"representatives":["","a","b","c"],"witness_bound":3}'
    )
    assert_no_float(report.to_json())


def test_query_table_report_bytes():
    rows = RowSpec.explicit(["", "#0", "#1", "#0#1"])
    report = query_table(get_language("l-exp").oracle, 1, rows, include_profiles=True)
    assert report.to_json() == (
        '{"count":4,"language":"l-exp","order":1,'
        '"profiles":{"":"0001","#0":"0101","#0#1":"0111","#1":"0011"},'
        '"representatives":["","#0","#1","#0#1"],'
        '"row_spec":{"kind":"explicit","rows":["","#0","#1","#0#1"]}}'
    )
    assert_no_float(report.to_json())


def test_cli_profile_json_bytes(capsys):
    assert main(["profile", "maj2", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"automaton":"maj2","bound":{"class":"n","constant":3,"failures":[],'
        '"max_ratio":"3","passed":true},"profile":[1,3,5,7,9]}\n'
    )
    assert_no_float(out)


def test_serialize_prob_automaton_bytes():
    assert serialize_prob_automaton(rabin_automaton()) == (
        "alphabet: 0 1 #\n"
        "states: dead q0 q1\n"
        "initial: q0\n"
        "accepting: q1\n"
        "ptrans dead 0 -> dead:1/1\n"
        "ptrans dead 1 -> dead:1/1\n"
        "ptrans dead # -> dead:1/1\n"
        "ptrans q0 0 -> q0:1/1\n"
        "ptrans q0 1 -> q0:1/2 q1:1/2\n"
        "ptrans q0 # -> dead:1/1\n"
        "ptrans q1 0 -> q0:1/2 q1:1/2\n"
        "ptrans q1 1 -> q1:1/1\n"
        "ptrans q1 # -> q0:1/1\n"
    )


def test_serialize_automaton_bytes_with_renamed_states():
    # tuple and spaced state names are not tokens, so all three are renamed
    s, t, u = (0, 0), (1, 1), "x y"
    trans = {
        (s, "a"): conj([Atom(t), disj([Atom(s), Atom(u)])]),
        (s, "b"): Atom(s),
        (t, "a"): TRUE,
        (t, "b"): disj([Atom(s), conj([Atom(t), Atom(u)])]),
        (u, "a"): FALSE,
        (u, "b"): Atom(t),
    }
    m = AlternatingAutomaton("ab", s, trans, {t, u}, states=[s, t, u])
    assert serialize_automaton(m) == (
        "alphabet: a b\n"
        "states: s0 s1 s2\n"
        "initial: s0\n"
        "accepting: s1 s2\n"
        "trans s0 a -> s1 & (s0 | s2)\n"
        "trans s0 b -> s0\n"
        "trans s1 a -> T\n"
        "trans s1 b -> s0 | s1 & s2\n"
        "trans s2 a -> F\n"
        "trans s2 b -> s1\n"
    )


def test_hierarchy_transition_formulas():
    # every transition of l-hier:2 out of reachable(20), in breadth-first
    # discovery order, hashed as repr((q, a, delta(q, a))) one after another
    A = get_language("l-hier:2").automaton
    depth = {A.initial: 0}
    queue = deque([A.initial])
    digest = hashlib.sha256()
    while queue:
        q = queue.popleft()
        for a in A.alphabet:
            f = A.delta(q, a)
            digest.update(repr((q, a, f)).encode("utf-8"))
            if depth[q] < 20:
                for p in atoms(f):
                    if p not in depth:
                        depth[p] = depth[q] + 1
                        queue.append(p)
    assert len(depth) == A.reachable_counts(20)[-1] == 17847
    assert digest.hexdigest() == (
        "b28a15b81536ce0b64bd951c3d8cc6d087900486c6ab6932fed09fbef72bb874"
    )


@pytest.mark.parametrize("name,depth,tail", [
    ("l-hier:2", 40, [133101, 144235, 155974]),
    ("count-eq3", 80, [9244, 9481, 9721]),
    ("maj2", 80, [157, 159, 161]),
])
def test_reachable_counts_tail(name, depth, tail):
    assert get_language(name).automaton.reachable_counts(depth)[-3:] == tail


def test_gallery_equiv_report_bytes():
    # the one report that runs every gallery automaton against its oracle
    test_experiment_report_bytes(
        "gallery-equiv", {}, 912,
        "eeb90560c3ba6126ad288d3e568850aa66a169153dbc4bbf892ed02340680b79",
    )


def test_cli_experiment_all_json_bytes(capsys):
    # every registered experiment at its default scale, as the CLI prints it
    assert main(["experiment", "all", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        4951, "7def6397fc7b2615d7f075d0663c125c5ea176569ad1da85e7792dc762a13fd7")
    assert len(out.splitlines()) == 7
    assert_no_float(out.decode("utf-8"))
