import functools
import inspect
import json
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from statelab import (
    Alphabet,
    BudgetExceeded,
    ProbAutomaton,
    StatelabError,
    UsageError,
    get_language,
    query_table,
    rabin_automaton,
    run_experiment,
    separate_quotients,
)
from statelab.experiments import (
    REGISTRY,
    ExperimentReport,
    _runner_overrides,
    _subset_rows,
    _window_composite_by_trial_division,
    random_automaton,
    run_core_crosscheck,
)


def test_registry_order_is_stable():
    assert list(REGISTRY) == [
        "rabin-claim",
        "exp-alt",
        "hierarchy:2",
        "primes-hs",
        "primes-linear",
        "gallery-equiv",
        "core-crosscheck",
    ]


def test_unknown_experiment_is_rejected():
    with pytest.raises(UsageError, match="rabin-claim"):
        run_experiment("nope")
    with pytest.raises(StatelabError):
        run_experiment("hierarchy:x")
    with pytest.raises(StatelabError):
        run_experiment("hierarchy:1")


def test_unknown_override_is_a_usage_error():
    with pytest.raises(UsageError, match="bogus"):
        run_experiment("exp-alt", bogus=5)
    # the exponent of hierarchy:<l> comes from the id alone
    with pytest.raises(UsageError, match="power"):
        run_experiment("hierarchy:2", power=3)
    # None means "use the default", as the CLI passes unset flags
    assert run_experiment("exp-alt", n=1, count=None, limit=None).passed


def test_overrides_are_checked_before_the_run(monkeypatch):
    import statelab.experiments as exps

    ran = []

    def probe(n: int = 1):
        ran.append(n)
        return ExperimentReport(
            experiment="probe", claim="", parameters={}, measured={},
            bound="", verdict="pass",
        )

    monkeypatch.setattr(exps, "REGISTRY", {"probe": probe})
    with pytest.raises(UsageError, match="takes no override bogus; it takes: n"):
        exps.run_experiment("probe", n=2, bogus=5)
    assert ran == []
    # seed and budget go to every experiment; one that takes neither ignores them
    assert exps.run_experiment("probe", n=2, seed=3, budget=10).passed
    assert ran == [2]


def test_run_all_refuses_a_single_experiment_override_before_any_runner(monkeypatch):
    import statelab.experiments as exps

    called = []

    def counting(exp_id, runner):
        # wraps keeps the real signature for _runner_overrides
        @functools.wraps(runner)
        def fake(**kwargs):
            called.append(exp_id)
            return SimpleNamespace()

        return fake

    monkeypatch.setattr(exps, "REGISTRY", {k: counting(k, r) for k, r in REGISTRY.items()})
    monkeypatch.setattr(exps, "run_hierarchy", counting("hierarchy:2", REGISTRY["hierarchy:2"]))
    for key in ("n", "limit", "count"):
        with pytest.raises(UsageError, match=rf"^--{key} applies to a single experiment"):
            exps.run_all(seed=3, **{key: 2})
    assert called == []
    exps.run_all(seed=3, budget=10**8, n=None, limit=None, count=None)
    assert called == list(REGISTRY)


@pytest.mark.parametrize("exp_id", REGISTRY)
def test_every_runner_parameter_is_an_accepted_override(exp_id):
    runner = REGISTRY[exp_id]
    params = dict.fromkeys(inspect.signature(runner).parameters, 1)
    fixed = {"power": 2} if exp_id.startswith("hierarchy:") else {}
    for key in fixed:
        params.pop(key)
    taken = _runner_overrides(exp_id, runner, dict(params, seed=0, budget=1), fixed)
    assert set(taken) == set(params)


def test_subset_rows_enumeration():
    rows = _subset_rows(1, reverse_blocks=False)
    assert rows == ["", "#0", "#1", "#0#1"]
    reversed_rows = _subset_rows(2, reverse_blocks=True)
    assert reversed_rows[0] == ""
    assert "#10" in reversed_rows  # block for the word "01"
    assert len(reversed_rows) == 16


def test_rabin_claim_small_run_passes():
    report = run_experiment("rabin-claim", n=3)
    assert report.passed
    assert report.parameters == {"n": 3}
    assert report.measured["orders"]["3"]["pairs"] == 28
    assert report.measured["orders"]["3"]["distinct_quotients"] == 8


def test_rabin_claim_fails_when_a_separator_splits_nothing(monkeypatch):
    import statelab.experiments as exps

    # after '#' the rabin machine has no mass left in its accepting state
    monkeypatch.setattr(exps, "separate_quotients", lambda u, v: "#")
    report = run_experiment("rabin-claim", n=2)
    assert report.measured["orders"] == {
        "1": {"pairs": 1, "separated": 0, "distinct_quotients": 0},
        "2": {"pairs": 6, "separated": 0, "distinct_quotients": 0},
    }
    assert report.verdict == "fail"


def _short_suffix(u, v):
    # a suffix that splits some pairs and not others
    return "#" + (v + u)[:3]


@pytest.mark.parametrize("separator", [separate_quotients, _short_suffix],
                         ids=["dyadic", "short"])
def test_rabin_claim_counts_the_pairs_the_whole_word_route_splits(monkeypatch, separator):
    import statelab.experiments as exps

    monkeypatch.setattr(exps, "separate_quotients", separator)
    report = run_experiment("rabin-claim", n=5)
    m = rabin_automaton()
    mixed = False
    for length in range(1, 6):
        words = Alphabet("01").words_of_length(length)
        split = [m.accepts(u + "1" + s) != m.accepts(v + "1" + s)
                 for u, v in combinations(words, 2) for s in [separator(u, v)]]
        assert report.measured["orders"][str(length)]["separated"] == sum(split)
        mixed = mixed or 0 < sum(split) < len(split)
    assert mixed == (separator is _short_suffix)


def test_rabin_claim_runs_each_prefix_once_per_order(monkeypatch):
    runs = []
    distribution = ProbAutomaton.distribution

    def recording(self, word, start=None):
        runs.append((word, start is None))
        return distribution(self, word, start)

    monkeypatch.setattr(ProbAutomaton, "distribution", recording)
    assert run_experiment("rabin-claim", n=4).passed
    # one run from the initial state per word u of each length, on u + "1"
    whole = [word for word, fresh in runs if fresh]
    assert len(whole) == 2 + 4 + 8 + 16
    assert sorted(whole) == sorted(u + "1" for length in range(1, 5)
                                   for u in Alphabet("01").words_of_length(length))
    # and the two sides of every pair continue from them
    assert len(runs) - len(whole) == 2 * (1 + 6 + 28 + 120)


def test_rabin_claim_charges_its_budget_before_any_work(monkeypatch):
    import statelab.experiments as exps

    def refuse(*args, **kwargs):
        raise AssertionError("rabin-claim did work before its budget check")

    monkeypatch.setattr(exps, "separate_quotients", refuse)
    monkeypatch.setattr(exps, "rabin_automaton", refuse)
    # two queries per pair: 2 at order 1, 12 more at order 2
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("rabin-claim", n=2, budget=1)
    assert (exc.value.needed, exc.value.budget) == (2, 1)
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("rabin-claim", n=2, budget=13)
    assert (exc.value.needed, exc.value.budget) == (14, 13)
    # the default budget takes n = 13 and refuses n = 14, counting the
    # orders up to the first that does not fit
    with pytest.raises(AssertionError, match="before its budget check"):
        run_experiment("rabin-claim", n=13)
    for n in (14, 10**12):
        with pytest.raises(BudgetExceeded) as exc:
            run_experiment("rabin-claim", n=n)
        assert exc.value.needed == sum(4**k - 2**k for k in range(1, 15))
        assert exc.value.budget == 10**8


def test_rabin_claim_fits_the_budget_it_asks():
    report = run_experiment("rabin-claim", n=2, budget=14)
    # the budget is not a parameter of the claim, so the report bytes keep it out
    assert report.passed and report.parameters == {"n": 2}


def test_exp_alt_small_run_passes():
    report = run_experiment("exp-alt", n=1)
    assert report.passed
    assert report.measured == {"1": {"profiles": 4, "required": 4}}


def test_hierarchy_run_passes_and_validates_shape():
    report = run_experiment("hierarchy:2")
    assert report.passed
    assert report.parameters == {"power": 2, "n": 2, "order": 4}
    assert report.measured == {"profiles": 16, "required": 16}
    with pytest.raises(StatelabError, match="multiple"):
        run_experiment("hierarchy:2", n=3)


def test_primes_linear_small_run_passes():
    report = run_experiment("primes-linear", n=2, limit=10**6)
    assert report.passed
    entry = report.measured["2"]
    assert entry["k_by_residue"] == {"1": 13, "3": 52}
    assert entry["profiles"] == 2
    assert entry["single_hit"] is True
    assert entry["isolation_recheck"] is True


def test_primes_linear_single_hit_needs_distinct_columns(monkeypatch):
    import statelab.experiments as exps

    # over "01" at n = 2 the table asks the odd length-2 columns "10" and
    # "11", bits 0 and 1 of each profile; each fake breaks one condition
    tables = [
        # two profiles, but the second row hits no odd column
        SimpleNamespace(count=2, signatures=[1 << 0, 0]),
        # two profiles, but the second row hits both "10" and "11"
        SimpleNamespace(count=2, signatures=[1 << 1, 1 << 0 | 1 << 1]),
        # one hit each, but both rows share it ("10"), so one profile
        SimpleNamespace(count=1, signatures=[1 << 0]),
    ]
    for table in tables:
        monkeypatch.setattr(exps, "query_table", lambda *args, **kwargs: table)
        report = run_experiment("primes-linear", n=2, limit=10**6)
        assert report.measured["2"]["single_hit"] is False
        assert not report.passed


@pytest.mark.parametrize("exp_id,n", [
    *(("exp-alt", n) for n in range(4)),
    ("hierarchy:2", 0), ("hierarchy:2", 2), ("hierarchy:3", 0), ("hierarchy:3", 3),
    *(("primes-linear", n) for n in range(2, 6)),
])
def test_tables_over_the_proof_columns_keep_every_full_table_profile(monkeypatch, exp_id, n):
    import statelab.experiments as exps

    tables = []

    def with_full_table(L, order, rows, budget, columns):
        part = query_table(L, order, rows, budget=budget, columns=columns)
        tables.append((query_table(L, order, rows, budget=budget), part, columns))
        return part

    monkeypatch.setattr(exps, "query_table", with_full_table)
    assert run_experiment(exp_id, n=n).passed
    (full, part, columns), = tables
    # the restricted profiles are the full ones read at the chosen columns,
    # and they keep every full profile apart
    alphabet = get_language(full.language).alphabet
    index = {u: i for i, u in enumerate(alphabet.words_up_to(full.order))}
    picked = [index[u] for u in columns.row_words(alphabet)]
    assert {sum((sig >> i & 1) << j for j, i in enumerate(picked))
            for sig in full.signatures} == set(part.signatures)
    assert part.count == full.count


def test_primes_linear_budget_is_checked_before_any_search(monkeypatch):
    import statelab.experiments as exps

    def refuse(*args, **kwargs):
        raise AssertionError("isolated primes searched for over budget")

    monkeypatch.setattr(exps, "find_isolated_primes", refuse)
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("primes-linear", n=9, budget=1000)
    # query_table's own estimate: 2^(n-1) rows times 2^(n-1) odd length-n columns
    assert exc.value.needed == 256 * 256
    assert exc.value.budget == 1000


def _count_primes_hs_queries(monkeypatch, member=None):
    """The words primes-hs asks of its oracle, collected as it runs.

    `member`, when given, answers in place of the primes oracle.
    """
    import dataclasses

    import statelab.experiments as exps

    asked = []

    def counted_language(name):
        spec = get_language(name)
        answer = member or spec.oracle.membership

        def counting(word):
            asked.append(word)
            return answer(word)

        spec.oracle = dataclasses.replace(spec.oracle, membership=counting)
        return spec

    monkeypatch.setattr(exps, "get_language", counted_language)
    return asked


def test_primes_hs_checks_its_budget_before_the_first_query(monkeypatch):
    import statelab.experiments as exps

    asked = _count_primes_hs_queries(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("primes-hs", n=11, budget=1000)
    # the least the sweep asks: every prefix of length <= 11 once
    assert (exc.value.needed, exc.value.budget) == (2 ** 12 - 1, 1000)
    assert asked == []

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran after a split search went over budget")

    # past that check (2^9 - 1 <= 600), the split_depth searches refuse
    # a level before the sweep is reached, within the budget of the run
    monkeypatch.setattr(exps, "count_quotients", no_sweep)
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("primes-hs", n=8, budget=600)
    assert 0 < len(asked) <= 600 < exc.value.needed
    assert exc.value.budget == 600


@pytest.mark.parametrize("n, cap, member", [
    (3, 24, None),
    (8, 24, None),
    # "100" and "101" both start with "10" and are never split, so the
    # search of length 3 runs to the cap though its last split is at level 0
    (4, 3, lambda w: w.startswith("11")),
], ids=["primes-3", "primes-8", "unsplit-pairs"])
def test_primes_hs_charges_each_search_exactly(monkeypatch, n, cap, member):
    asked = _count_primes_hs_queries(monkeypatch, member)
    # the run fits a budget of what it asks, and one query less stops it short
    full = run_experiment("primes-hs", n=n, cap=cap)
    used = len(asked)
    asked.clear()
    assert run_experiment("primes-hs", n=n, cap=cap, budget=used).measured == full.measured
    assert len(asked) == used
    asked.clear()
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment("primes-hs", n=n, cap=cap, budget=used - 1)
    assert len(asked) < used
    assert (exc.value.needed, exc.value.budget) == (used, used - 1)


def test_primes_linear_stops_at_the_first_residue_without_an_isolated_prime(monkeypatch):
    import statelab.experiments as exps

    real = exps.find_isolated_primes
    calls = []

    def none_for_residue_3(n_bits, limit):
        calls.append(n_bits)
        return {**real(n_bits, limit), 3: None}

    monkeypatch.setattr(exps, "find_isolated_primes", none_for_residue_3)
    report = run_experiment("primes-linear", limit=10**6)
    # the default ns are 2, 3, 4: residue 3 at n = 2 ends the run, and the
    # report keeps only the residues before it
    assert calls == [2]
    assert report.verdict == "fail"
    assert report.measured == {"2": {"k_by_residue": {"1": 13}, "no_isolated_prime_for": 3}}

    calls.clear()
    assert run_experiment("primes-linear", n=3, limit=10**6).verdict == "fail"
    assert calls == [3]


def test_primes_hs_small_run_passes():
    report = run_experiment("primes-hs", n=3)
    assert report.passed
    assert report.measured["3"]["undistinguished"] == 0
    assert report.measured["3"]["classes"] >= 4


def test_primes_hs_reads_every_length_from_one_quotient_sweep(monkeypatch):
    import statelab.experiments as exps

    calls = []
    count_quotients = exps.count_quotients

    def recording(L, order, witness_bound, budget):
        calls.append((order, witness_bound))
        return count_quotients(L, order, witness_bound, budget)

    monkeypatch.setattr(exps, "count_quotients", recording)
    report = run_experiment("primes-hs", n=7)
    assert report.passed
    worst = {int(k): entry["max_witness_length"] for k, entry in report.measured.items()}
    assert calls == [(7, max(worst.values()))]
    primes = get_language("primes").oracle
    for length, m in worst.items():
        assert report.measured[str(length)]["classes"] == count_quotients(primes, length, m).count


def _refuse(*args, **kwargs):
    raise AssertionError("an out-of-range run got as far as building its language")


@pytest.mark.parametrize("exp_id,overrides", [
    ("primes-linear", {"n": 0}),
    ("primes-linear", {"n": -2}),
    ("primes-hs", {"n": 0}),
    ("primes-hs", {"n": 1}),
    ("primes-hs", {"n": 4, "cap": -1}),
    ("rabin-claim", {"n": 0}),
    ("primes-linear", {"limit": 0}),
    ("exp-alt", {"n": -1}),
    ("hierarchy:2", {"n": -2}),
    ("core-crosscheck", {"count": 0}),
    ("core-crosscheck", {"count": 1}),
    ("core-crosscheck", {"word_bound": -1}),
    ("core-crosscheck", {"mono_pairs": 0}),
], ids=["primes-linear-n0", "primes-linear-n-2", "primes-hs-n0", "primes-hs-n1",
        "primes-hs-cap-1", "rabin-claim-n0", "primes-linear-limit0", "exp-alt-n-1",
        "hierarchy-2-n-2", "core-crosscheck-count0", "core-crosscheck-count1",
        "core-crosscheck-word-bound-1", "core-crosscheck-mono-pairs0"])
def test_out_of_range_sizes_fail_before_any_work(monkeypatch, exp_id, overrides):
    import statelab.experiments as exps

    monkeypatch.setattr(exps, "get_language", _refuse)
    monkeypatch.setattr(exps, "rabin_automaton", _refuse)
    monkeypatch.setattr(exps, "random_automaton", _refuse)
    with pytest.raises(UsageError, match=">= "):
        run_experiment(exp_id, **overrides)


def test_hierarchy_size_off_the_exponent_is_a_usage_error(monkeypatch):
    import statelab.experiments as exps

    monkeypatch.setattr(exps, "get_language", _refuse)
    with pytest.raises(UsageError, match="multiple of 3"):
        run_experiment("hierarchy:3", n=4)


@pytest.mark.parametrize("exp_id,n,language,order", [
    ("exp-alt", 5, "l-exp", 5),
    ("hierarchy:2", 6, "l-hier:2", 6 + 2**3),
])
def test_subset_row_budget_is_checked_before_any_row(monkeypatch, exp_id, n, language, order):
    import statelab.experiments as exps

    def refuse(*args, **kwargs):
        raise AssertionError("subset rows built or queried over budget")

    monkeypatch.setattr(exps, "_subset_rows", refuse)
    monkeypatch.setattr(exps, "query_table", refuse)
    with pytest.raises(BudgetExceeded) as exc:
        run_experiment(exp_id, n=n, budget=1000)
    # query_table's own estimate: one query per row and column, one
    # column per word of {0,1}^n, fewer than all of A^{<=order}
    assert exc.value.needed == 2 ** 2 ** n * 2 ** n
    assert exc.value.needed < 2 ** 2 ** n * get_language(language).alphabet.count_up_to(order)
    assert exc.value.budget == 1000


@pytest.mark.parametrize("exp_id", ["exp-alt", "hierarchy:3"])
def test_subset_rows_past_length_eight_are_a_usage_error(monkeypatch, exp_id):
    import statelab.experiments as exps

    monkeypatch.setattr(exps, "get_language", _refuse)
    with pytest.raises(UsageError, match=f"{exp_id} needs n <= 8, got 9"):
        run_experiment(exp_id, n=9, budget=10**1000)


def test_gallery_equiv_profiles_each_automaton_once(monkeypatch):
    import statelab.experiments as exps

    depths = []
    profile = exps.profile

    def recording(automaton, depth):
        depths.append((automaton.name, depth))
        return profile(automaton, depth)

    monkeypatch.setattr(exps, "profile", recording)
    assert exps.run_gallery_equiv().passed
    names = [name for name, _ in depths]
    assert len(names) == len(set(names)) == len(exps._EQUIV_LANGS)
    assert ("count-eq3", 40) in depths


def test_core_crosscheck_is_deterministic_for_a_seed():
    r1 = run_core_crosscheck(seed=7, count=25, mono_pairs=200)
    r2 = run_core_crosscheck(seed=7, count=25, mono_pairs=200)
    assert r1.passed and r2.passed
    assert r1.to_json() == r2.to_json()


def test_core_crosscheck_asks_each_route_once_per_automaton_and_word(monkeypatch):
    import statelab.experiments as exps

    automata, calls = [], {"backward": [], "game": [], "det": []}

    def counted(route, fn):
        def wrapper(A, w):
            calls[route].append((id(A), w))
            return fn(A, w)
        return wrapper

    real_determinize = exps.determinize_finite

    def determinize(A):
        automata.append(A)
        D = real_determinize(A)
        accepts = D.accepts

        def counted_accepts(w):
            calls["det"].append((id(A), w))
            return accepts(w)

        D.accepts = counted_accepts
        return D

    monkeypatch.setattr(exps, "backward_accepts", counted("backward", exps.backward_accepts))
    monkeypatch.setattr(exps, "game_tree_accepts", counted("game", exps.game_tree_accepts))
    monkeypatch.setattr(exps, "determinize_finite", determinize)
    report = run_core_crosscheck(seed=5, count=6, word_bound=3, mono_pairs=1)
    assert report.passed
    words = ["".join(t) for n in range(4) for t in product("ab", repeat=n)]
    expected = [(id(A), w) for A in automata for w in words]
    assert len(automata) == 6
    for route in ("backward", "game", "det"):
        assert calls[route] == expected, route


@pytest.mark.parametrize("broken", ["oracle_union", "oracle_intersection"])
def test_core_crosscheck_catches_a_broken_lattice_oracle(monkeypatch, broken):
    import statelab.experiments as exps

    swap = {"oracle_union": exps.oracle_intersection,
            "oracle_intersection": exps.oracle_union}
    monkeypatch.setattr(exps, broken, swap[broken])
    report = run_core_crosscheck(seed=0, count=10, word_bound=3, mono_pairs=1)
    assert report.measured["lattice_failures"] > 0
    assert report.measured["agreement_failures"] == 0
    assert report.verdict == "fail"


@pytest.mark.parametrize("route", ["backward_accepts", "game_tree_accepts"])
def test_core_crosscheck_counts_a_route_that_flips_one_word(monkeypatch, route):
    import statelab.experiments as exps

    real = getattr(exps, route)
    monkeypatch.setattr(exps, route, lambda A, w: real(A, w) != (w == "ab"))
    report = run_core_crosscheck(seed=0, count=10, word_bound=3, mono_pairs=1)
    # every automaton disagrees on "ab" and is counted once
    assert report.measured == {"agreement_failures": 10, "lattice_failures": 0,
                               "monotonicity_failures": 0}
    assert report.verdict == "fail"


def test_core_crosscheck_catches_an_evaluator_that_is_not_monotone(monkeypatch):
    import statelab.experiments as exps

    real = exps.evaluate
    monkeypatch.setattr(exps, "evaluate", lambda f, truth: not real(f, truth))
    report = run_core_crosscheck(seed=0, count=2, word_bound=2, mono_pairs=200)
    assert report.measured["monotonicity_failures"] >= 1
    assert report.measured["agreement_failures"] == report.measured["lattice_failures"] == 0
    assert report.verdict == "fail"


def test_isolation_recheck_by_trial_division():
    # 23 is the only prime in [20, 26]; [19, 27] also holds 19
    assert _window_composite_by_trial_division(23, 3)
    assert not _window_composite_by_trial_division(23, 4)
    assert not _window_composite_by_trial_division(2, 1)
    for composite in (0, 1, 4, 15, 25):
        assert not _window_composite_by_trial_division(composite, 1)


def test_random_automata_have_bounded_shape():
    import random

    rng = random.Random(3)
    for _ in range(50):
        m = random_automaton(rng)
        assert 1 <= len(m.states) <= 5
        assert m.initial == 0
        assert list(m.alphabet) == ["a", "b"]


def test_canonical_json_excludes_duration():
    report = run_experiment("exp-alt", n=1)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "experiment", "claim", "parameters", "measured", "bound", "verdict",
    }
    assert report.duration_seconds >= 0


def test_run_experiment_is_the_one_place_that_times_a_run(monkeypatch):
    import time

    import statelab.experiments as exps

    def slow(**overrides):
        time.sleep(0.01)
        return ExperimentReport(
            experiment="slow", claim="", parameters={}, measured={},
            bound="", verdict="pass",
        )

    monkeypatch.setattr(exps, "REGISTRY", {"slow": slow})
    assert slow().duration_seconds == 0.0
    assert exps.run_experiment("slow").duration_seconds >= 0.01
    assert run_core_crosscheck(seed=7, count=2, mono_pairs=5).duration_seconds == 0.0


def test_reports_render_as_text():
    report = run_experiment("exp-alt", n=1)
    text = report.to_text()
    assert "exp-alt" in text
    assert "verdict: pass" in text


def test_run_all_respects_registry_order(monkeypatch):
    import statelab.experiments as exps

    def fake(name):
        def runner(**overrides):
            return ExperimentReport(
                experiment=name, claim="", parameters={}, measured={},
                bound="", verdict="pass",
            )
        return runner

    fake_registry = {"one": fake("one"), "two": fake("two"), "three": fake("three")}
    monkeypatch.setattr(exps, "REGISTRY", fake_registry)
    serial = exps.run_all()
    assert [r.experiment for r in serial] == ["one", "two", "three"]
