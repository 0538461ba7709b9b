"""Named desk-scale experiments, each checking one concrete claim.

Every experiment re-derives its measured values through the library
operations (no expected profiles are hardcoded as data) and returns an
ExperimentReport whose canonical JSON is byte-deterministic given the
parameters; the duration that run_experiment measures is carried on the
object and printed in text form but excluded from the canonical bytes.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional

from .automata import (
    AlternatingAutomaton,
    backward_accepts,
    determinize_finite,
    game_tree_accepts,
)
from .errors import UsageError
from .formulas import FALSE, TRUE, Atom, conj, disj, evaluate
from .gallery import get_language, hierarchy_exponent
from .prob import rabin_automaton, separate_quotients
from .primes import find_isolated_primes
from .profiler import check_bound, profile
from .quotients import (
    DEFAULT_BUDGET,
    Budget,
    Report,
    RowSpec,
    count_quotients,
    from_automaton,
    oracle_intersection,
    oracle_union,
    query_table,
    quotient_member,
    split_depth,
)
from .words import Alphabet


@dataclass
class ExperimentReport(Report):
    experiment: str
    claim: str
    parameters: dict
    measured: dict
    bound: str
    verdict: str  # "pass" | "fail"
    duration_seconds: float = field(default=0.0, repr=False)

    CSV_HEADER = "experiment,verdict"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def csv_rows(self) -> List[str]:
        return [f"{self.experiment},{self.verdict}"]

    def to_text(self) -> str:
        lines = [
            f"experiment: {self.experiment}",
            f"claim: {self.claim}",
            f"parameters: {json.dumps(self.parameters, sort_keys=True)}",
            f"measured: {json.dumps(self.measured, sort_keys=True)}",
            f"bound: {self.bound}",
            f"verdict: {self.verdict}  ({self.duration_seconds:.2f}s)",
        ]
        return "\n".join(lines)


def _need(exp_id: str, name: str, value: Optional[int], least: int,
          most: Optional[int] = None) -> None:
    """A size below `least` leaves nothing to check, and one above `most`
    cannot be checked: a usage error up front."""
    if value is not None and value < least:
        raise UsageError(f"{exp_id} needs {name} >= {least}, got {value}")
    if value is not None and most is not None and value > most:
        raise UsageError(f"{exp_id} needs {name} <= {most}, got {value}")


def _report(experiment, claim, parameters, measured, bound, ok) -> ExperimentReport:
    return ExperimentReport(
        experiment=experiment,
        claim=claim,
        parameters=parameters,
        measured=measured,
        bound=bound,
        verdict="pass" if ok else "fail",
    )


# ---------------------------------------------------------------------------
# rabin-claim

def run_rabin_claim(n: int = 8, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Pairwise-distinct quotients for all binary words of each length <= n."""
    _need("rabin-claim", "n", n, 1)
    # two membership queries per pair, 2^L * (2^L - 1) at order L, all
    # charged before any word is built; one ledger, so a refusal counts
    # the orders up to the first that does not fit
    ledger = Budget(budget)
    for length in range(1, n + 1):
        ledger.charge((1 << length) * ((1 << length) - 1))
    machine = rabin_automaton()
    alpha = Alphabet("01")
    per_order = {}
    ok = True
    for length in range(1, n + 1):
        words = list(alpha.words_of_length(length))
        pairs = len(words) * (len(words) - 1) // 2
        # each word's prefix u + "1" is run once; its pairs continue from it
        prefix = {u: machine.distribution(u + "1") for u in words}
        separated = 0
        for u, v in combinations(words, 2):
            s = separate_quotients(u, v)
            if machine.accepts(s, prefix[u]) != machine.accepts(s, prefix[v]):
                separated += 1
        if separated < pairs:
            ok = False
        per_order[str(length)] = {
            "pairs": pairs,
            "separated": separated,
            "distinct_quotients": len(words) if separated == pairs else 0,
        }
    return _report(
        "rabin-claim",
        "Appending '1' plus a dyadic separator suffix splits every pair of "
        "distinct equal-length binary words at the 1/2 cut point, so the "
        "threshold language has at least 2^n left quotients of order n+1.",
        {"n": n},
        {"orders": per_order},
        "all pairs separated, certifying 2^n distinct quotients per length",
        ok,
    )


# ---------------------------------------------------------------------------
# exp-alt

def _subset_rows(length: int, reverse_blocks: bool) -> List[str]:
    """One row per subset of {0,1}^length: a '#'-joined block list."""
    base = list(Alphabet("01").words_of_length(length))
    rows = []
    for mask in range(1 << len(base)):
        blocks = [
            base[i][::-1] if reverse_blocks else base[i]
            for i in range(len(base))
            if mask >> i & 1
        ]
        rows.append("".join("#" + b for b in blocks))
    return rows


# 2^(2^9) = 2^512 subset rows are past any budget; the cap also keeps
# the budget estimate a number small enough to build and print
_SUBSET_MAX_LENGTH = 8


def _subset_table(spec, length: int, order: int, reverse_blocks: bool, budget: int):
    """`query_table` of `spec` at `order` over the `_subset_rows` rows and the
    columns the proof reads: "◊" * (order - length) + u for u in {0,1}^length,
    no padding when order == length. Its budget estimate, 2^(2^length) rows
    times 2^length columns, is checked before any row is built."""
    Budget(budget).charge((1 << (1 << length)) * (1 << length))
    pad = "◊" * (order - length)
    columns = [pad + u for u in Alphabet("01").words_of_length(length)]
    rows = _subset_rows(length, reverse_blocks)
    return query_table(spec.oracle, order, RowSpec.explicit(rows), budget=budget,
                       columns=RowSpec.explicit(columns))


def run_exp_alt(n: Optional[int] = None, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Doubly-exponential query-table growth for the reversed-block language."""
    _need("exp-alt", "n", n, 0, _SUBSET_MAX_LENGTH)
    orders = [n] if n is not None else [1, 2]
    spec = get_language("l-exp")
    measured = {}
    ok = True
    for order in orders:
        report = _subset_table(spec, order, order, True, budget)
        want = 1 << (1 << order)
        measured[str(order)] = {"profiles": report.count, "required": want}
        ok = ok and report.count == want
    return _report(
        "exp-alt",
        "The language 'first block reappears reversed among the later blocks' "
        "has at least 2^(2^n) distinct query-table profiles of order n, "
        "exhibited by one row per subset of the length-n binary words.",
        {"orders": orders},
        measured,
        "profile count equals 2^(2^n) at every tested order",
        ok,
    )


# ---------------------------------------------------------------------------
# hierarchy:<l>

def run_hierarchy(power: int = 2, n: Optional[int] = None,
                  budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Query-table lower bound for the block-budget language at order n + 2^(n/l)."""
    if n is None:
        n = power
    _need(f"hierarchy:{power}", "n", n, 0, _SUBSET_MAX_LENGTH)
    if n % power != 0:
        raise UsageError(f"n must be a multiple of {power} so 2^(n/l) is integral")
    order = n + (1 << (n // power))
    report = _subset_table(get_language(f"l-hier:{power}"), n, order, False, budget)
    want = 1 << (1 << n)
    ok = report.count == want
    return _report(
        f"hierarchy:{power}",
        "The diamond-prefixed block-budget language with exponent l has at "
        "least 2^(2^n) distinct query-table profiles of order n + 2^(n/l), "
        "exhibited by one subset-witness row per subset of {0,1}^n.",
        {"power": power, "n": n, "order": order},
        {"profiles": report.count, "required": want},
        "profile count equals 2^(2^n)",
        ok,
    )


# ---------------------------------------------------------------------------
# primes-hs

def run_primes_hs(n: int = 8, cap: int = 24, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Distinct quotients for distinct odd binary words of each length 2..n."""
    _need("primes-hs", "n", n, 2)
    _need("primes-hs", "cap", cap, 0)
    spec = get_language("primes")
    # the sweep below asks at least every prefix of length <= n once
    Budget(budget).charge(spec.alphabet.count_up_to(n))
    splits = {}
    # every search and the sweep charge one ledger, so a refusal counts the run
    ledger = Budget(budget)
    for length in range(2, n + 1):
        words = [w for w in spec.alphabet.words_of_length(length) if w[0] == "1"]
        splits[length] = split_depth(spec.oracle, words, cap, budget=ledger)
    # witnesses up to a length's worst observed witness separate all its
    # pairs, so counting with that bound certifies >= 2^(length-1)
    # classes; one sweep to the longest of them holds every length's
    # count: a class meets A^{<=length} iff its first member does, and
    # the witnesses of length <= worst are the low bits of each signature
    sweep = count_quotients(spec.oracle, n, max(worst for worst, _ in splits.values()),
                            budget=ledger)
    measured = {}
    ok = True
    for length, (worst, undistinguished) in splits.items():
        mask = (1 << spec.alphabet.count_up_to(worst)) - 1
        classes = len({sig & mask for sig, rep in zip(sweep.signatures, sweep.representatives)
                       if len(rep) <= length})
        need = 1 << (length - 1)
        measured[str(length)] = {
            "pairs": need * (need - 1) // 2,
            "undistinguished": undistinguished,
            "max_witness_length": worst,
            "classes": classes,
            "required_classes": need,
        }
        ok = ok and undistinguished == 0 and classes >= need
    return _report(
        "primes-hs",
        "Distinct odd binary words of equal length have different left "
        "quotients of the primes language: every pair is split by a short "
        "explicit witness, certifying at least 2^(n-1) quotients of order n.",
        {"n": n, "witness_cap": cap},
        measured,
        "all pairs distinguished and class count >= 2^(n-1) at each length",
        ok,
    )


# ---------------------------------------------------------------------------
# primes-linear

def _window_composite_by_trial_division(p: int, radius: int) -> bool:
    """Independent isolation re-check: no other prime in [p-radius, p+radius]."""

    def definitely_prime(q: int) -> bool:
        if q < 2:
            return False
        d = 2
        while d * d <= q:
            if q % d == 0:
                return False
            d += 1
        return True

    if not definitely_prime(p):
        return False
    return all(
        not definitely_prime(q)
        for q in range(max(p - radius, 2), p + radius + 1)
        if q != p
    )


def run_primes_linear(n: Optional[int] = None, limit: int = 10**7,
                      budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Isolated primes in every odd residue class; single-hit profile rows."""
    _need("primes-linear", "n", n, 1)
    _need("primes-linear", "limit", limit, 1)
    ns = [n] if n is not None else [2, 3, 4]
    spec = get_language("primes")
    # query_table's estimate, one row per odd residue and one column per
    # odd length-n word, is checked before any isolated prime is searched for
    for bits in ns:
        Budget(budget).charge((1 << (bits - 1)) ** 2)
    measured = {}
    ok = True
    for bits in ns:
        step = 1 << bits
        ks = {}
        rows = []
        isolation_ok = True
        for a, k in find_isolated_primes(bits, limit).items():
            if k is None:
                break
            p = a + step * k
            if not _window_composite_by_trial_division(p, step):
                isolation_ok = False
            ks[str(a)] = k
            # k's binary word, least significant bit first: the inverse of bin_int
            rows.append(format(k, "b")[::-1])
        if k is None:
            # one residue without an isolated prime up to limit fails the
            # claim, so the report ends there and no larger n is tried
            measured[str(bits)] = {"k_by_residue": ks, "no_isolated_prime_for": a}
            ok = False
            break
        # the profiles over the odd length-n columns are the rows' hits
        odd = [u for u in spec.alphabet.words_of_length(bits) if u[0] == "1"]
        report = query_table(spec.oracle, bits, RowSpec.explicit(rows), budget=budget,
                             columns=RowSpec.explicit(odd))
        # one odd column per row, none shared; rows that share a profile
        # leave fewer profiles than rows
        single_hit = (len(report.signatures) == len(rows)
                      and all(h.bit_count() == 1 for h in report.signatures))
        need = 1 << (bits - 1)
        measured[str(bits)] = {
            "k_by_residue": ks,
            "profiles": report.count,
            "required_profiles": need,
            "single_hit": single_hit,
            "isolation_recheck": isolation_ok,
        }
        ok = ok and report.count == need and single_hit and isolation_ok
    return _report(
        "primes-linear",
        "Every odd residue a below 2^n has an isolated prime a + 2^n*k (no "
        "other prime within distance 2^n), and the words encoding those k "
        "values give 2^(n-1) pairwise-distinct query-table profiles of order "
        "n, each true on exactly one odd length-n column.",
        {"ns": ns, "limit": limit},
        measured,
        "2^(n-1) distinct single-hit profiles with isolation re-verified",
        ok,
    )


# ---------------------------------------------------------------------------
# gallery-equiv

# each language with its profile depth, in the report's order
_EQUIV_LANGS = {"count-eq3": 40, "not-eq": 40, "lex": 40, "l-hier:2": 30, "maj2": 40}


def run_gallery_equiv() -> ExperimentReport:
    """Oracle agreement plus declared profile ceilings for every gallery automaton."""
    measured = {}
    ok = True
    for name, depth in _EQUIV_LANGS.items():
        spec = get_language(name)
        words = spec.alphabet.words_up_to(spec.validation_bound)
        accepted = spec.automaton.accepts_up_to(spec.validation_bound)
        member = spec.oracle.membership
        mismatches = sum(a != member(w) for w, a in zip(words, accepted, strict=True))
        entry = {"validation_bound": spec.validation_bound, "mismatches": mismatches}
        prof = profile(spec.automaton, depth)
        if spec.declared_class is not None:
            cls, constant = spec.declared_class
            check = check_bound(prof, cls, constant)
            entry["bound"] = f"{constant}*{cls}"
            entry["bound_passed"] = check.passed
            entry["max_ratio"] = str(check.max_ratio)
            ok = ok and check.passed
        if name == "count-eq3":
            # the reachable set of the two-counter automaton also fits
            # under the direct (2n+1)^2 ceiling
            direct = all(c <= (2 * k + 1) ** 2 for k, c in enumerate(prof.counts))
            entry["within_(2n+1)^2"] = direct
            ok = ok and direct
        measured[name] = entry
        ok = ok and mismatches == 0
    return _report(
        "gallery-equiv",
        "Every gallery automaton agrees with its brute-force oracle on all "
        "words up to the per-language validation bound, and every declared "
        "state-complexity ceiling holds at every profiled depth.",
        {"languages": list(_EQUIV_LANGS)},
        measured,
        "zero mismatches and all declared ceilings hold",
        ok,
    )


# ---------------------------------------------------------------------------
# core-crosscheck

def random_formula(rng: random.Random, states: List[int], depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        return Atom(rng.choice(states))
    if roll < 0.60:
        return TRUE if rng.random() < 0.5 else FALSE
    parts = [random_formula(rng, states, depth - 1)
             for _ in range(rng.randint(2, 3))]
    return conj(parts) if roll < 0.80 else disj(parts)


def random_automaton(rng: random.Random) -> AlternatingAutomaton:
    n_states = rng.randint(1, 5)
    states = list(range(n_states))
    trans = {
        (q, a): random_formula(rng, states)
        for q in states
        for a in "ab"
    }
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return AlternatingAutomaton(
        "ab", 0, trans, accepting, states=states, name="random"
    )


def run_core_crosscheck(seed: int = 0, count: int = 1000,
                        word_bound: int = 6, mono_pairs: int = 10000) -> ExperimentReport:
    """Four acceptance routes agree; quotients distribute; formulas monotone."""
    # fewer than two automata leave the lattice suite without a pair
    _need("core-crosscheck", "count", count, 2)
    _need("core-crosscheck", "word_bound", word_bound, 0)
    _need("core-crosscheck", "mono_pairs", mono_pairs, 1)
    rng = random.Random(seed)
    alpha = Alphabet("ab")
    words = list(alpha.words_up_to(word_bound))
    automata = [random_automaton(rng) for _ in range(count)]

    agreement_failures = 0
    for A in automata:
        D = determinize_finite(A)
        for w in words:
            # the right fold, the backward recursion, game-tree play and
            # the determinized automaton: four independent routes
            a1 = A.accepts(w)
            if (a1 != backward_accepts(A, w) or a1 != game_tree_accepts(A, w)
                    or a1 != D.accepts(w)):
                agreement_failures += 1
                break

    lattice_failures = 0
    for A, B in zip(automata[0::2], automata[1::2]):
        L1, L2 = from_automaton(A, "L1"), from_automaton(B, "L2")
        union = oracle_union(L1, L2)
        inter = oracle_intersection(L1, L2)
        bad = False
        for a in alpha:
            for w in words:
                m1, m2 = quotient_member(L1, a, w), quotient_member(L2, a, w)
                if quotient_member(union, a, w) != (m1 or m2):
                    bad = True
                if quotient_member(inter, a, w) != (m1 and m2):
                    bad = True
        if bad:
            lattice_failures += 1

    atoms_pool = list(range(5))
    monotonicity_failures = 0
    for _ in range(mono_pairs):
        f = random_formula(rng, atoms_pool, depth=3)
        truth = {q: rng.random() < 0.5 for q in atoms_pool}
        before = evaluate(f, truth.__getitem__)
        false_atoms = [q for q in atoms_pool if not truth[q]]
        if not false_atoms:
            continue
        flipped = dict(truth)
        flipped[rng.choice(false_atoms)] = True
        after = evaluate(f, flipped.__getitem__)
        if before and not after:
            monotonicity_failures += 1

    ok = agreement_failures == lattice_failures == monotonicity_failures == 0
    return _report(
        "core-crosscheck",
        "Memoized acceptance, explicit game-tree play, and acceptance after "
        "determinization agree on random finite automata; letter quotients "
        "distribute over union and intersection of oracles; flipping an atom "
        "from false to true never turns a positive formula false.",
        {"seed": seed, "count": count, "word_bound": word_bound,
         "monotonicity_pairs": mono_pairs},
        {
            "agreement_failures": agreement_failures,
            "lattice_failures": lattice_failures,
            "monotonicity_failures": monotonicity_failures,
        },
        "zero failures in all three suites",
        ok,
    )


# ---------------------------------------------------------------------------
# registry

REGISTRY: Dict[str, Callable[..., ExperimentReport]] = {
    "rabin-claim": run_rabin_claim,
    "exp-alt": run_exp_alt,
    "hierarchy:2": run_hierarchy,
    "primes-hs": run_primes_hs,
    "primes-linear": run_primes_linear,
    "gallery-equiv": run_gallery_equiv,
    "core-crosscheck": run_core_crosscheck,
}

# the only overrides run_all takes, as they apply to every experiment; a
# runner that does not take one of these simply does not get it
_SHARED_OVERRIDES = frozenset({"seed", "budget"})


def _runner_overrides(exp_id: str, runner, overrides: dict, fixed: dict) -> dict:
    """The overrides `runner` takes; any other key is a usage error."""
    takes = set(inspect.signature(runner).parameters) - set(fixed)
    unknown = sorted(set(overrides) - takes - _SHARED_OVERRIDES)
    if unknown:
        raise UsageError(
            f"experiment {exp_id!r} takes no override {', '.join(unknown)}; "
            f"it takes: {', '.join(sorted(takes)) or 'none'}"
        )
    return {k: v for k, v in overrides.items() if k in takes}


def run_experiment(exp_id: str, **overrides) -> ExperimentReport:
    """Run one experiment by id and time it; 'hierarchy:<l>' takes any l >= 2.

    A None override means "use the default". Any other override the
    experiment does not take raises UsageError before anything runs,
    except `seed` and `budget`, which experiments that do not use them
    ignore.
    """
    clean = {k: v for k, v in overrides.items() if v is not None}
    if exp_id.startswith("hierarchy:"):
        fixed = {"power": hierarchy_exponent(exp_id)}
        runner = run_hierarchy
    else:
        fixed = {}
        runner = REGISTRY.get(exp_id)
        if runner is None:
            raise UsageError(
                f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}"
            )
    clean = _runner_overrides(exp_id, runner, clean, fixed)
    start = time.perf_counter()
    report = runner(**clean, **fixed)
    report.duration_seconds = time.perf_counter() - start
    return report


def run_all(**overrides) -> List[ExperimentReport]:
    """Run the whole registry; reports come back in registry order.

    An override other than seed and budget that is not None raises
    UsageError before anything runs."""
    for key, value in overrides.items():
        if value is not None and key not in _SHARED_OVERRIDES:
            raise UsageError(f"--{key} applies to a single experiment, not to 'all'")
    return [run_experiment(exp_id, **overrides) for exp_id in REGISTRY]
