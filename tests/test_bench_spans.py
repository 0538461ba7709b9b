"""The benchmark's tracer still fits the package it wraps.

`bench/spans.py` `install` patches statelab's functions and classes in
place, so it runs in a fresh interpreter: the subprocess imports
statelab, installs the tracer, calls each wrapped entry point once and
prints, per call, the span calls and counters that call added.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import statelab as sl
import spans

tracer = spans.Tracer()
spans.install(tracer, sl)
primes = sl.get_language("primes").oracle
small = sl.AlternatingAutomaton(
    "ab", 0, {(0, "a"): sl.Atom(1), (0, "b"): sl.Atom(0),
              (1, "a"): sl.Atom(1), (1, "b"): sl.Atom(1)}, {1}, states=[0, 1])
prof = sl.profile(sl.get_language("lex").automaton, 3)
calls = {
    "reachable_counts": lambda: sl.get_language("maj2").automaton.reachable_counts(3),
    "determinize_finite": lambda: sl.determinize_finite(small),
    "count_quotients": lambda: sl.count_quotients(primes, 2, 2),
    "query_table-exhaustive": lambda: sl.query_table(primes, 1, sl.RowSpec.exhaustive(1)),
    "query_table-explicit": lambda: sl.query_table(primes, 1, sl.RowSpec.explicit(["1", "11"])),
    "distinguish": lambda: sl.distinguish(primes, "1", "11", 2),
    "check_bound": lambda: sl.check_bound(prof, "n", 3),
    "distribution": lambda: sl.rabin_automaton().distribution("01"),
    "exp-alt": lambda: sl.run_experiment("exp-alt", n=1),
    "primes-hs": lambda: sl.run_experiment("primes-hs", n=4),
}
out = {}
for label, call in calls.items():
    counters = dict(tracer.counters)
    spans_called = {k: v[0] for k, v in tracer.stats.items()}
    call()
    out[label] = {
        "counters": {k: v - counters.get(k, 0) for k, v in tracer.counters.items()},
        "calls": {k: v[0] - spans_called.get(k, 0) for k, v in tracer.stats.items()},
    }
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("label,span,counters", [
    ("reachable_counts", "automata.reachable_counts", ["automata.states_reached"]),
    ("determinize_finite", "automata.determinize_finite",
     ["automata.determinize_finite.states"]),
    ("count_quotients", "quotients.count_quotients",
     ["quotients.query_estimate", "quotients.membership_queries"]),
    ("query_table-exhaustive", "quotients.query_table",
     ["quotients.query_estimate", "quotients.membership_queries"]),
    ("query_table-explicit", "quotients.query_table",
     ["quotients.query_estimate", "quotients.membership_queries"]),
    ("distinguish", "quotients.distinguish", []),
    ("check_bound", "profiler.check_bound", []),
    ("distribution", "prob.distribution", ["prob.distribution.letters"]),
    ("exp-alt", "experiments.exp-alt", ["quotients.membership_queries"]),
])
def test_install_traces_each_wrapped_entry_point(traced, label, span, counters):
    step = traced[label]
    assert step["calls"].get(span, 0) == 1
    for name in counters:
        assert step["counters"].get(name, 0) > 0


def test_primes_hs_asks_only_the_queries_of_its_one_sweep(traced):
    # every length's class count is read from one count_quotients sweep,
    # so the queries issued are exactly the ones its budget guard estimates
    step = traced["primes-hs"]
    assert step["calls"].get("quotients.count_quotients", 0) == 1
    queries = step["counters"].get("quotients.membership_queries", 0)
    assert queries > 0
    assert queries == step["counters"].get("quotients.query_estimate", 0)
