"""The benchmark's four workloads: inputs, one timed pass, and its checks.

Each workload has three parts:

- `build(sl, seed)` makes the inputs from the seed with the imported
  statelab package `sl` (gallery specs, word lists, seeded random
  automata). It is the timed set-up.
- `run(sl, inputs, k)` is pass number k of the workload's job, the timed
  part. It returns a list of (operation, output) pairs; every pass over
  the same input set performs the same operations.
- `check(sl, inputs, k, outputs, cache)` compares a pass's outputs with
  the references in `reference.py` and returns (operation, status,
  detail) triples. Status is "ok", "wrong", or "known-fault" for the one
  operation that fails because of a fault the program is known to have.

Scales are chosen so that one pass takes one to seven seconds on a
2-core machine; the README gives the reasoning for each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Tuple

import reference

OK, WRONG, KNOWN_FAULT = "ok", "wrong", "known-fault"


def _status(ok: bool) -> str:
    return OK if ok else WRONG


def _random_word(rng: random.Random, letters: str, length: int) -> str:
    return "".join(rng.choice(letters) for _ in range(length))


def _check_experiment(op: str, output) -> tuple:
    verdict, _ = output
    return (f"{op}.verdict", _status(verdict == "pass"), verdict)


# ---------------------------------------------------------------------------
# alt-crosscheck: core-crosscheck on seeded random finite alternating automata

ALT_COUNT = 300
ALT_WORD_BOUND = 5
ALT_MONO_PAIRS = 1000
# Work per automaton is heavy-tailed, so one run cycles through several
# independently seeded sets and reports the median pass: the figure then
# depends on the distribution of random automata, not on one draw.
ALT_INPUT_SETS = 8


def build_alt(sl, seed: int) -> dict:
    rng = random.Random(seed)
    sets = []
    for _ in range(ALT_INPUT_SETS):
        exp_seed = rng.randrange(1 << 32)
        # the same generator and seed as the experiment, so the tables are
        # exactly the automata the experiment checks
        gen = random.Random(exp_seed)
        tables = []
        for _ in range(ALT_COUNT):
            A = sl.experiments.random_automaton(gen)
            trans = {(q, a): A.delta(q, a) for q in A.states for a in "ab"}
            accepting = frozenset(q for q in A.states if A.state_accepting(q))
            tables.append((list(A.states), trans, accepting))
        sets.append((exp_seed, tables))
    words = list(sl.Alphabet("ab").words_up_to(ALT_WORD_BOUND))
    return {"sets": sets, "words": words}


def run_alt(sl, inputs: dict, k: int) -> list:
    exp_seed, tables = inputs["sets"][k % ALT_INPUT_SETS]
    report = sl.run_experiment("core-crosscheck", seed=exp_seed, count=ALT_COUNT,
                               word_bound=ALT_WORD_BOUND, mono_pairs=ALT_MONO_PAIRS)
    out = [("core-crosscheck", (report.verdict, report.measured))]
    words = inputs["words"]
    for i, (states, trans, accepting) in enumerate(tables):
        A = sl.AlternatingAutomaton("ab", 0, trans, accepting, states=states)
        out.append((f"accepts[{i}]", tuple(A.accepts(w) for w in words)))
    return out


def check_alt(sl, inputs: dict, k: int, outputs: list, cache: dict) -> list:
    _, tables = inputs["sets"][k % ALT_INPUT_SETS]
    (op, report), rows = outputs[0], outputs[1:]
    results = [_check_experiment(op, report)]
    measured = report[1]
    for key in ("agreement_failures", "lattice_failures", "monotonicity_failures"):
        results.append((f"{op}.{key}", _status(measured.get(key) == 0), measured.get(key)))
    words = inputs["words"]
    for (op, row), (states, trans, accepting) in zip(rows, tables):
        want = tuple(reference.accepts_backward(0, lambda q, a: trans[(q, a)],
                                                accepting.__contains__, w, sl)
                     for w in words)
        results.append((op, _status(row == want), "agrees" if row == want else "differs"))
    return results


# ---------------------------------------------------------------------------
# rabin-separation: rabin-claim plus seeded separator checks

RABIN_N = 7
RABIN_SAMPLE = 200


def build_rabin(sl, seed: int) -> dict:
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < RABIN_SAMPLE:
        length = rng.randint(1, RABIN_N)
        u = _random_word(rng, "01", length)
        v = _random_word(rng, "01", length)
        if u != v:
            pairs.append((u, v))
    return {"machine": sl.rabin_automaton(), "pairs": pairs}


def run_rabin(sl, inputs: dict, k: int) -> list:
    report = sl.run_experiment("rabin-claim", n=RABIN_N)
    out = [("rabin-claim", (report.verdict, report.measured))]
    machine = inputs["machine"]
    for i, (u, v) in enumerate(inputs["pairs"]):
        s = sl.separate_quotients(u, v)
        out.append((f"separate[{i}]", (s, machine.acceptance_probability(u + "1" + s),
                                       machine.acceptance_probability(v + "1" + s))))
    return out


def check_rabin(sl, inputs: dict, k: int, outputs: list, cache: dict) -> list:
    (op, report), samples = outputs[0], outputs[1:]
    results = [_check_experiment(op, report)]
    orders = report[1]["orders"]
    results.append((f"{op}.orders", _status(sorted(orders, key=int) ==
                                            [str(n) for n in range(1, RABIN_N + 1)]),
                    sorted(orders)))
    for n in range(1, RABIN_N + 1):
        entry = orders.get(str(n), {})
        want = comb(1 << n, 2)
        ok = (entry.get("pairs") == entry.get("separated") == want
              and entry.get("distinct_quotients") == 1 << n)
        results.append((f"{op}.order[{n}]", _status(ok), entry))
    half = Fraction(1, 2)
    for (op, (s, pu, pv)), (u, v) in zip(samples, inputs["pairs"]):
        wu, wv = u + "1" + s, v + "1" + s
        ok = (s[:1] == "#" and set(s[1:]) <= {"0", "1"}
              and pu == reference.rabin_probability(wu)
              and pv == reference.rabin_probability(wv)
              and (pu > half) == reference.above_half(wu)
              and (pv > half) == reference.above_half(wv)
              and reference.above_half(wu) != reference.above_half(wv))
        results.append((op, _status(ok), f"{u},{v} -> {s}"))
    return results


# ---------------------------------------------------------------------------
# gallery-growth: gallery-equiv plus deeper profiles of lazy infinite automata

# l-hier:2 beyond its documented depth of 30, where its declared n^2
# ceiling no longer holds; count-eq3 and maj2 well past their
# experiment depth of 40
GALLERY_PROFILES = (("l-hier:2", 40), ("count-eq3", 80), ("maj2", 80))
GALLERY_SAMPLE = 40
# the one operation that fails today: l_hierarchy grows as n^3 while the
# gallery declares HIER2_CONSTANT * n^2, measured only to depth 30
GALLERY_KNOWN_FAULT = "ceiling[l-hier:2]"


def _gallery_word(rng: random.Random, name: str) -> str:
    if name in ("lex", "not-eq"):
        u = _random_word(rng, "01", rng.randint(0, 10))
        roll = rng.random()
        if roll < 0.3:
            v = u
        elif roll < 0.6 and u:
            i = rng.randrange(len(u))
            v = u[:i] + "10"[int(u[i])] + u[i + 1:]
        else:
            v = _random_word(rng, "01", rng.randint(0, 10))
        word = u + "#" + v
        if rng.random() < 0.1:
            i = rng.randrange(len(word) + 1)
            word = word[:i] + "#" + word[i:]
        return word
    if name == "maj2":
        return _random_word(rng, "ab", rng.randint(10, 30))
    if rng.random() < 0.5:
        letters = list("abc" * rng.randint(3, 8))
        rng.shuffle(letters)
        return "".join(letters)
    return _random_word(rng, "abc", rng.randint(9, 24))


def build_gallery(sl, seed: int) -> dict:
    rng = random.Random(seed)
    specs = {name: sl.get_language(name) for name in reference.RESTATED}
    samples = {name: [_gallery_word(rng, name) for _ in range(GALLERY_SAMPLE)]
               for name in reference.RESTATED}
    return {"specs": specs, "samples": samples}


def run_gallery(sl, inputs: dict, k: int) -> list:
    report = sl.run_experiment("gallery-equiv")
    out = [("gallery-equiv", (report.verdict, report.measured))]
    for name, depth in GALLERY_PROFILES:
        # a fresh automaton per pass, so every pass starts with an empty
        # transition memo, as the experiment's own automata do
        spec = sl.get_language(name)
        prof = sl.profile(spec.automaton, depth)
        cls, constant = spec.declared_class
        bound = sl.check_bound(prof, cls, constant)
        out.append((f"profile[{name}]", tuple(prof.counts)))
        out.append((f"ceiling[{name}]", (cls, constant, bound.passed, bound.max_ratio)))
    for name, words in inputs["samples"].items():
        spec = inputs["specs"][name]
        for i, w in enumerate(words):
            out.append((f"member[{name}:{i}]", (w, spec.automaton.accepts(w), spec.oracle(w))))
    return out


def _exponent(cls: str) -> int:
    return 1 if cls == "n" else int(cls.split("^")[1])


def check_gallery(sl, inputs: dict, k: int, outputs: list, cache: dict) -> list:
    results = []
    for op, value in outputs:
        if op == "gallery-equiv":
            results.append(_check_experiment(op, value))
            for name, entry in sorted(value[1].items()):
                ok = (entry.get("mismatches") == 0 and entry.get("bound_passed", True)
                      and entry.get("within_(2n+1)^2", True))
                results.append((f"{op}[{name}]", _status(ok), entry))
        elif op.startswith("profile["):
            name = op[len("profile["):-1]
            counts = value
            key = (name, len(counts) - 1)
            if key not in cache:
                A = sl.get_language(name).automaton
                cache[key] = reference.bfs_counts(A.initial, A.delta, A.alphabet.letters,
                                                  key[1], sl)
            ok = list(counts) == cache[key]
            if name == "maj2":
                ok = ok and all(c == 2 * n + 1 for n, c in enumerate(counts))
            if name == "count-eq3":
                ok = ok and all(c <= (2 * n + 1) ** 2 for n, c in enumerate(counts))
            results.append((op, _status(ok), f"{counts[-1]} states at depth {key[1]}"))
        elif op.startswith("ceiling["):
            name = op[len("ceiling["):-1]
            cls, constant, passed, max_ratio = value
            counts = dict(outputs)[f"profile[{name}]"]
            holds = reference.within_ceiling(counts, _exponent(cls), constant)
            worst = max(Fraction(c, max(n ** _exponent(cls), 1)) for n, c in enumerate(counts))
            detail = (f"declared {constant}*{cls} to depth {len(counts) - 1}: "
                      f"max ratio {max_ratio} ~ {float(max_ratio):.2f}")
            if passed != holds or max_ratio != worst:
                status = WRONG
            elif passed:
                status = OK
            else:
                status = KNOWN_FAULT if op == GALLERY_KNOWN_FAULT else WRONG
            results.append((op, status, detail))
        else:
            name = op[len("member["):op.index(":")]
            w, accepted, member = value
            want = reference.RESTATED[name](w)
            results.append((op, _status(accepted == member == want), w))
    return results


# ---------------------------------------------------------------------------
# oracle-tables: primes quotients and query tables above default scale

ORACLE_EXPERIMENTS = (
    ("primes-hs", {"n": 10}),
    ("primes-linear", {"n": 5}),
    ("exp-alt", {}),
    ("exp-alt", {"n": 3}),
    ("hierarchy:2", {}),
    ("hierarchy:3", {}),
)
ORACLE_PAIR_LENGTH = 12
ORACLE_SAMPLE = 100
ORACLE_CAP = 24
ORACLE_SIEVE = 1 << 21


def build_oracle(sl, seed: int) -> dict:
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < ORACLE_SAMPLE:
        u = "1" + _random_word(rng, "01", ORACLE_PAIR_LENGTH - 1)
        v = "1" + _random_word(rng, "01", ORACLE_PAIR_LENGTH - 1)
        if u != v:
            pairs.append((u, v))
    return {"primes": sl.get_language("primes"), "pairs": pairs}


def _op_name(exp_id: str, overrides: dict) -> str:
    return exp_id + "".join(f",{k}={v}" for k, v in sorted(overrides.items()))


def run_oracle(sl, inputs: dict, k: int) -> list:
    out = []
    for exp_id, overrides in ORACLE_EXPERIMENTS:
        report = sl.run_experiment(exp_id, **overrides)
        out.append((_op_name(exp_id, overrides), (report.verdict, report.measured)))
    oracle = inputs["primes"].oracle
    for i, (u, v) in enumerate(inputs["pairs"]):
        out.append((f"distinguish[{i}]", sl.distinguish(oracle, u, v, ORACLE_CAP)))
    return out


def _prime_member(cache: dict) -> Callable[[str], bool]:
    if "sieve" not in cache:
        cache["sieve"] = reference.prime_table(ORACLE_SIEVE)
    table = cache["sieve"]

    def member(word: str) -> bool:
        value = reference.lsb_value(word)
        return bool(table[value]) if value < len(table) else reference.is_prime_trial(value)

    return member


def _check_primes_linear(op: str, measured: dict, cache: dict) -> list:
    table = cache["sieve"]
    results = []
    for bits_key, entry in measured.items():
        bits = int(bits_key)
        step = 1 << bits

        def isolated_prime(p: int) -> bool:
            return bool(table[p]) and not any(
                table[q] for q in range(max(p - step, 2), p + step + 1) if q != p)

        for a in range(1, step, 2):
            k = entry["k_by_residue"].get(str(a))
            p = a + step * k if k is not None else None
            ok = (k is not None and p + step < len(table)
                  and reference.is_prime_trial(p)
                  and not any(reference.is_prime_trial(q)
                              for q in range(p - step, p + step + 1) if q != p)
                  and not any(isolated_prime(a + step * j) for j in range(1, k)))
            results.append((f"{op}.residue[{bits}:{a}]", _status(ok), f"k={k}"))
        need = 1 << (bits - 1)
        ok = (entry["profiles"] == entry["required_profiles"] == need
              and entry["single_hit"] is True and entry["isolation_recheck"] is True)
        results.append((f"{op}.profiles[{bits}]", _status(ok), entry["profiles"]))
    return results


def check_oracle(sl, inputs: dict, k: int, outputs: list, cache: dict) -> list:
    member = _prime_member(cache)
    results = []
    expected = dict((_op_name(e, o), o) for e, o in ORACLE_EXPERIMENTS)
    for op, value in outputs:
        if op.startswith("distinguish["):
            u, v = inputs["pairs"][int(op[len("distinguish["):-1])]
            want = reference.shortest_witness(member, u, v, "01", ORACLE_CAP)
            results.append((op, _status(value is not None and value == want), f"{u},{v} -> {value}"))
            continue
        results.append(_check_experiment(op, value))
        measured = value[1]
        if op.startswith("primes-hs"):
            for length_key, entry in sorted(measured.items(), key=lambda kv: int(kv[0])):
                length = int(length_key)
                witnesses = list(reference.canonical_words("01", entry["max_witness_length"]))
                prefixes = list(reference.canonical_words("01", length))
                classes = reference.class_count(member, prefixes, witnesses)
                need = 1 << (length - 1)
                ok = (entry["undistinguished"] == 0 and entry["pairs"] == comb(need, 2)
                      and entry["classes"] == classes and classes >= need)
                results.append((f"{op}.length[{length}]", _status(ok), f"{classes} classes"))
        elif op.startswith("primes-linear"):
            results.extend(_check_primes_linear(op, measured, cache))
        elif op.startswith("exp-alt"):
            orders = [expected[op]["n"]] if "n" in expected[op] else [1, 2]
            for order in orders:
                got = measured.get(str(order), {}).get("profiles")
                results.append((f"{op}.order[{order}]", _status(got == 1 << (1 << order)), got))
        else:
            n = int(op.split(":")[1])
            got = measured.get("profiles")
            results.append((f"{op}.profiles", _status(got == 1 << (1 << n)), got))
    return results


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    run: Callable
    check: Callable
    experiments: Tuple[str, ...]
    input_sets: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("alt-crosscheck", build_alt, run_alt, check_alt, ("core-crosscheck",),
                 ALT_INPUT_SETS),
        Workload("rabin-separation", build_rabin, run_rabin, check_rabin, ("rabin-claim",)),
        Workload("gallery-growth", build_gallery, run_gallery, check_gallery,
                 ("gallery-equiv",)),
        Workload("oracle-tables", build_oracle, run_oracle, check_oracle,
                 tuple(dict.fromkeys(e for e, _ in ORACLE_EXPERIMENTS))),
    )
}
