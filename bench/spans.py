"""Spans and counters around statelab's public functions, for the traced run.

`install(tracer, sl)` replaces public functions and methods of the
imported statelab package `sl` with wrappers that record a span (name,
start, end, parent) per call, or a count where a span per call would
cost more than the work it measures. The untraced runs never call
`install`; a traced run installs it on a fresh import and never removes
it.

A span's self time is its duration minus the time its child spans
cover. Module-level functions are replaced wherever a statelab module
refers to them, so calls inside their own module are traced too, except
for `evaluate`, whose recursion inside `statelab.formulas` stays one
span. Generators (`Alphabet.words_up_to`) get no span: the time spent
inside each of their steps is added to their self time and counted as
child time of whichever span consumed the step.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter as clock
from typing import Callable, Dict, List

SPAN_CAP = 100_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.origin = clock()
        self.stack: List[list] = []  # open spans: [span_id, child_seconds, start]
        self.stats: Dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []  # (id, parent_id, name, start, end)
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._ids = itertools.count(1)

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def enter(self) -> list:
        frame = [next(self._ids), 0.0, clock()]
        self.stack.append(frame)
        return frame

    def leave(self, name: str, frame: list) -> None:
        end = clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[2]
        st = self.stats.get(name) or self.stat(name)
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[1]
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        # outer spans are always kept; the flood of leaf spans is capped
        if len(self.spans) < self.span_cap or len(stack) < 2:
            self.spans.append((frame[0], parent, name, frame[2] - self.origin, end - self.origin))
        else:
            self.spans_dropped += 1

    def child_time(self, seconds: float) -> None:
        """Charge time spent outside any span (a generator step) to the open span."""
        if self.stack:
            self.stack[-1][1] += seconds

    def wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """Span named `name` around fn; after(args, kwargs, result) runs inside it."""

        def traced(*args, **kwargs):
            frame = self.enter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.leave(name, frame)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self.enter()
        try:
            yield
        finally:
            self.leave(name, frame)

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


def _statelab_modules() -> list:
    return [m for name, m in sys.modules.items()
            if name == "statelab" or name.startswith("statelab.")]


def _replace_everywhere(orig: Callable, replacement: Callable, skip: tuple = ()) -> None:
    for module in _statelab_modules():
        if module.__name__ in skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def _count_up_to(letters: int, n: int) -> int:
    return n + 1 if letters == 1 else (letters ** (n + 1) - 1) // (letters - 1)


def install(tracer: Tracer, sl) -> None:
    """Wrap the public functions of the imported statelab package `sl`."""
    count = tracer.counters

    def function(module, attr, name=None, after=None, skip=()):
        orig = getattr(module, attr)
        label = name or f"{module.__name__.split('.')[-1]}.{attr}"
        _replace_everywhere(orig, tracer.wrap(label, orig, after), skip)

    # formulas: evaluate recurses through its module global, so only calls
    # from other modules are spans; atoms is a generator that every caller
    # drains, so the wrapper drains it inside the span
    function(sl.formulas, "evaluate", skip=("statelab.formulas",))
    atoms = sl.formulas.atoms
    _replace_everywhere(atoms, tracer.wrap("formulas.atoms", lambda f: list(atoms(f))))

    # words
    words_stat = tracer.stat("words.words_up_to")
    words_up_to = sl.Alphabet.words_up_to

    def traced_words_up_to(self, n):
        words_stat[0] += 1
        it = words_up_to(self, n)
        while True:
            start = clock()
            try:
                word = next(it)
            except StopIteration:
                spent = clock() - start
                words_stat[1] += spent
                words_stat[2] += spent
                tracer.child_time(spent)
                return
            spent = clock() - start
            words_stat[1] += spent
            words_stat[2] += spent
            tracer.child_time(spent)
            count["words.words_emitted"] += 1
            yield word

    sl.Alphabet.words_up_to = traced_words_up_to

    # automata: delta is counted, not spanned; a call is a memo miss when
    # the automaton's transition memo grew during it
    AA = sl.AlternatingAutomaton
    delta = AA.delta

    def counted_delta(self, q, a):
        memo = self._cache
        before = len(memo)
        f = delta(self, q, a)
        count["automata.delta.calls"] += 1
        if len(memo) != before:
            count["automata.delta.misses"] += 1
        return f

    AA.delta = counted_delta
    AA.accepts = tracer.wrap("automata.accepts", AA.accepts)

    def states_reached(args, kwargs, counts):
        count["automata.states_reached"] += counts[-1]

    AA.reachable_counts = tracer.wrap("automata.reachable_counts", AA.reachable_counts,
                                      states_reached)
    function(sl.automata, "game_tree_accepts")

    def det_states(args, kwargs, det):
        count["automata.determinize_finite.states"] += len(det.states)

    function(sl.automata, "determinize_finite", after=det_states)

    # prob
    PA = sl.ProbAutomaton

    def letters_read(args, kwargs, dist):
        count["prob.distribution.letters"] += len(args[1])

    PA.distribution = tracer.wrap("prob.distribution", PA.distribution, letters_read)
    for attr in ("separate_quotients", "dyadic_witness", "bin_int"):
        function(sl.prob, attr)

    # primes
    for attr in ("is_prime", "find_isolated_prime"):
        function(sl.primes, attr)

    # quotients: the guarded searches get an oracle that counts the
    # membership queries they really issue, next to the number their
    # budget guard estimates
    def guarded(attr, estimate):
        orig = getattr(sl.quotients, attr)
        signature = inspect.signature(orig)
        inner = tracer.wrap(f"quotients.{attr}", orig)

        def traced(L, *args, **kwargs):
            bound = signature.bind(L, *args, **kwargs).arguments
            count["quotients.query_estimate"] += estimate(L, bound)
            member = L.membership

            def counted(word):
                count["quotients.membership_queries"] += 1
                return member(word)

            return inner(dataclasses.replace(L, membership=counted), *args, **kwargs)

        _replace_everywhere(orig, traced)

    letters = lambda L: len(L.alphabet.letters)
    guarded("count_quotients", lambda L, b: _count_up_to(letters(L), b["order"])
            * _count_up_to(letters(L), b["witness_bound"]))
    guarded("query_table", lambda L, b: _count_up_to(letters(L), b["order"]) * (
        len(set(b["rows"].words)) if b["rows"].kind == "explicit"
        else _count_up_to(letters(L), b["rows"].max_length)))
    for attr in ("distinguish", "quotient_member"):
        function(sl.quotients, attr)

    # gallery: every resolved spec's brute-force predicate becomes a span
    get_language = sl.gallery.get_language
    oracle_call = lambda membership: tracer.wrap("gallery.oracle", membership)

    def with_traced_oracle(args, kwargs, spec):
        spec.oracle = dataclasses.replace(spec.oracle, membership=oracle_call(spec.oracle.membership))

    _replace_everywhere(get_language, tracer.wrap("gallery.get_language", get_language,
                                                  with_traced_oracle))

    # profiler
    function(sl.profiler, "check_bound")

    # experiments: one span per experiment, named by its id
    run_experiment = sl.experiments.run_experiment

    def traced_run_experiment(exp_id, **overrides):
        frame = tracer.enter()
        try:
            return run_experiment(exp_id, **overrides)
        finally:
            tracer.leave("experiments." + exp_id.replace(":", "-"), frame)

    _replace_everywhere(run_experiment, traced_run_experiment)


def layer_metrics(tracer: Tracer, experiment_ids: list) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced setup and pass."""
    stat = lambda name: tracer.stats.get(name, [0, 0.0, 0.0])
    count = tracer.counters
    out: Dict[str, float] = {}

    def calls(name):
        out[f"{name}.calls"] = stat(name)[0]

    def self_s(name):
        out[f"{name}.self_s"] = stat(name)[2]

    calls("words.words_up_to")
    out["words.words_emitted"] = count["words.words_emitted"]
    out["words.self_s"] = stat("words.words_up_to")[2]
    for name in ("formulas.evaluate", "formulas.atoms", "automata.accepts",
                 "prob.distribution", "prob.bin_int", "primes.is_prime",
                 "quotients.distinguish", "gallery.get_language", "gallery.oracle"):
        calls(name)
        self_s(name)
    delta_calls = count["automata.delta.calls"]
    delta_misses = count["automata.delta.misses"]
    out["automata.delta.calls"] = delta_calls
    out["automata.delta.misses"] = delta_misses
    out["automata.delta.hit_ratio"] = 1 - delta_misses / delta_calls if delta_calls else 0.0
    for name in ("automata.game_tree_accepts", "automata.determinize_finite",
                 "automata.reachable_counts", "prob.dyadic_witness",
                 "primes.find_isolated_prime", "quotients.count_quotients",
                 "quotients.query_table", "profiler.check_bound"):
        self_s(name)
    out["automata.determinize_finite.states"] = count["automata.determinize_finite.states"]
    out["automata.states_reached"] = count["automata.states_reached"]
    calls("prob.separate_quotients")
    out["prob.distribution.letters"] = count["prob.distribution.letters"]
    queries = count["quotients.membership_queries"]
    estimate = count["quotients.query_estimate"]
    out["quotients.membership_queries"] = queries
    out["quotients.query_estimate"] = estimate
    out["quotients.query_use_ratio"] = queries / estimate if estimate else 0.0
    calls("quotients.quotient_member")
    for exp_id in experiment_ids:
        name = "experiments." + exp_id.replace(":", "-")
        out[f"{name}.s"] = stat(name)[1]
    return out
