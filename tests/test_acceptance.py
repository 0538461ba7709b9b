"""Acceptance gate: ten desk-scale checks with explicit size and time budgets.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
The measured values come from the library itself at test time; nothing here
is stubbed or replayed.
"""

import time
from fractions import Fraction

import pytest

from statelab import (
    Alphabet,
    bin_frac,
    rabin_automaton,
    run_experiment,
)


def _criterion(number: int, description: str, ok: bool, elapsed: float, limit: float):
    in_time = elapsed < limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"{verdict} criterion {number}: {description} "
          f"[{elapsed:.1f}s of {limit:.0f}s allowed]")
    assert ok, f"criterion {number} failed: {description}"
    assert in_time, f"criterion {number} overran: {elapsed:.1f}s >= {limit}s"


@pytest.fixture(scope="module")
def gallery_equiv_report():
    return run_experiment("gallery-equiv")


def test_criterion_1_single_block_probability_identity():
    t0 = time.time()
    machine = rabin_automaton()
    alpha = Alphabet("01")
    ok = all(
        machine.acceptance_probability(u) == bin_frac(u)
        for u in alpha.words_up_to(12)
    )
    _criterion(
        1,
        "acceptance probability equals the binary fraction on all "
        "8191 binary words up to length 12",
        ok,
        time.time() - t0,
        30,
    )


def test_criterion_2_multi_block_probability_product():
    t0 = time.time()
    machine = rabin_automaton()
    alpha = Alphabet("01#")
    ok = True
    for w in alpha.words_up_to(8):
        expected = Fraction(1)
        for block in w.split("#"):
            expected *= bin_frac(block)
        if machine.acceptance_probability(w) != expected:
            ok = False
            break
    _criterion(
        2,
        "acceptance probability factors as the product of per-block binary "
        "fractions on all words up to length 8 over the three-letter alphabet",
        ok,
        time.time() - t0,
        60,
    )


def test_criterion_3_quotient_separation_for_all_short_pairs():
    report = run_experiment("rabin-claim", n=8)
    ok = report.passed and all(
        entry["distinct_quotients"] == 2**int(n)
        for n, entry in report.measured["orders"].items()
    )
    _criterion(
        3,
        "every pair of distinct binary words of each length 1..8 is split "
        "by an explicit separator, certifying 2^n distinct quotients",
        ok,
        report.duration_seconds,
        120,
    )


def test_criterion_4_gallery_automata_match_their_oracles(gallery_equiv_report):
    report = gallery_equiv_report
    m = report.measured
    required_bounds = {"count-eq3": 10, "not-eq": 9, "lex": 9, "l-hier:2": 8}
    ok = report.passed
    for name, bound in required_bounds.items():
        entry = m[name]
        ok = ok and entry["validation_bound"] == bound
        ok = ok and entry["mismatches"] == 0
    _criterion(
        4,
        "gallery automata agree with brute-force oracles on every word up "
        "to length 10 (count-eq3), 9 (not-eq, lex) and 8 (l-hier:2)",
        ok,
        report.duration_seconds,
        300,
    )


def test_criterion_5_declared_state_growth_ceilings_hold(gallery_equiv_report):
    report = gallery_equiv_report
    m = report.measured
    ok = report.passed
    for name in ("lex", "not-eq"):
        ok = ok and m[name]["bound_passed"] and m[name]["bound"].endswith("*n")
    ok = ok and m["l-hier:2"]["bound_passed"]
    ok = ok and m["l-hier:2"]["bound"].endswith("*n^3")
    ok = ok and m["count-eq3"]["bound_passed"]
    ok = ok and m["count-eq3"]["within_(2n+1)^2"]
    _criterion(
        5,
        "reachable-state counts stay under C*n for lex and not-eq (n<=40), "
        "C*n^3 for l-hier:2 (n<=30), and both 9*n^2 and (2n+1)^2 for "
        "count-eq3 (n<=40)",
        ok,
        report.duration_seconds,
        60,
    )


def test_criterion_6_reversed_block_language_profile_explosion():
    report = run_experiment("exp-alt")
    m = report.measured
    ok = (
        report.passed
        and m["1"] == {"profiles": 4, "required": 4}
        and m["2"] == {"profiles": 16, "required": 16}
    )
    _criterion(
        6,
        "subset-witness rows exhibit 4 profiles at order 1 and 16 at "
        "order 2 for the reversed-block language",
        ok,
        report.duration_seconds,
        30,
    )


def test_criterion_7_hierarchy_language_profile_explosion():
    report = run_experiment("hierarchy:2")
    ok = (
        report.passed
        and report.parameters == {"power": 2, "n": 2, "order": 4}
        and report.measured == {"profiles": 16, "required": 16}
    )
    _criterion(
        7,
        "16 subset-witness rows give 16 distinct profiles of order 4 for "
        "the exponent-2 block-budget language",
        ok,
        report.duration_seconds,
        60,
    )


def test_criterion_8_primes_quotients_grow_exponentially():
    report = run_experiment("primes-hs", n=8, cap=24)
    m = report.measured
    ok = report.passed
    for length in range(2, 9):
        entry = m[str(length)]
        ok = ok and entry["undistinguished"] == 0
        ok = ok and entry["classes"] >= 2 ** (length - 1)
    _criterion(
        8,
        "all pairs of distinct odd binary words of lengths 2..8 are "
        "distinguished and at least 2^(n-1) quotient classes exist per length",
        ok,
        report.duration_seconds,
        300,
    )


def test_criterion_9_isolated_primes_give_single_hit_profiles():
    report = run_experiment("primes-linear", limit=10**7)
    m = report.measured
    ok = report.passed
    for bits in (2, 3, 4):
        entry = m[str(bits)]
        ok = ok and entry["profiles"] == 2 ** (bits - 1)
        ok = ok and entry["single_hit"] and entry["isolation_recheck"]
        ok = ok and len(entry["k_by_residue"]) == 2 ** (bits - 1)
    _criterion(
        9,
        "every odd residue below 2^n (n = 2, 3, 4) yields an isolated prime "
        "within the 10^7 search limit and the encoded rows give single-hit, "
        "pairwise-distinct profiles",
        ok,
        report.duration_seconds,
        120,
    )


def test_criterion_10_independent_routes_cross_check():
    report = run_experiment("core-crosscheck", seed=0)
    ok = report.passed and report.measured == {
        "agreement_failures": 0,
        "lattice_failures": 0,
        "monotonicity_failures": 0,
    }
    _criterion(
        10,
        "1000 random automata: memoized, game-tree and determinized "
        "acceptance agree on all words up to length 6; quotient oracles "
        "respect union and intersection; 10000 monotonicity flips hold",
        ok,
        report.duration_seconds,
        180,
    )
