"""Command line front end.

Exit codes follow the usual convention: 0 success (word accepted, bound
holds, experiments pass), 1 checked failure (word rejected, bound broken,
experiment failed, runtime error), 2 usage error (bad flags, unknown
names, malformed input files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .automata import AlternatingAutomaton
from .errors import BudgetExceeded, FormatError, StatelabError, UsageError
from .experiments import REGISTRY_ORDER, run_all, run_experiment
from .gallery import LanguageSpec, get_language, names
from .interchange import load_automaton, load_prob_automaton
from .prob import ProbAutomaton, separate_quotients
from .profiler import check_bound, profile
from .quotients import (
    DEFAULT_BUDGET,
    LanguageOracle,
    RowSpec,
    canonical_json,
    count_quotients,
    from_automaton,
    query_table,
)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _gallery_spec(ref: str) -> Optional[LanguageSpec]:
    """The gallery language named `ref`, or None when `ref` names none."""
    try:
        return get_language(ref)
    except StatelabError:
        return None


def _read_file(ref: str, load):
    """Parse the interchange file `ref` with `load`; bad input is a usage error."""
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"{ref!r} is neither a gallery language nor a file")
    try:
        return load(path.read_text(encoding="utf-8"))
    except FormatError as exc:
        raise UsageError(f"{ref}: {exc}") from exc


def _load_alternating(ref: str, spec: Optional[LanguageSpec]) -> AlternatingAutomaton:
    """The automaton of gallery `spec`, or, without one, of the file `ref`."""
    if spec is None:
        automaton = _read_file(ref, load_automaton)
        automaton.name = Path(ref).stem
        return automaton
    if spec.automaton is None:
        raise UsageError(f"gallery language {ref!r} has no alternating automaton")
    return spec.automaton


def _load_oracle(ref: str) -> LanguageOracle:
    spec = _gallery_spec(ref)
    if spec is not None:
        return spec.oracle
    return from_automaton(_load_alternating(ref, None), name=ref)


def _load_prob(ref: str) -> ProbAutomaton:
    spec = _gallery_spec(ref)
    if spec is None:
        return _read_file(ref, load_prob_automaton)
    if spec.prob_automaton is None:
        raise UsageError(f"gallery language {ref!r} is not probabilistic")
    return spec.prob_automaton


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return report.to_csv()
    return report.to_text()


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    automaton = _load_alternating(args.ref, _gallery_spec(args.ref))
    try:
        automaton.alphabet.check_word(args.word)
    except StatelabError as exc:
        raise UsageError(str(exc)) from exc
    accepted = automaton.accepts(args.word)
    print("accept" if accepted else "reject")
    return 0 if accepted else 1


def cmd_profile(args) -> int:
    spec = _gallery_spec(args.ref)
    automaton = _load_alternating(args.ref, spec)
    bound_class = args.bound_class
    constant = args.constant
    if bound_class is None and spec is not None and spec.declared_class is not None:
        bound_class, declared = spec.declared_class
        if constant is None:
            constant = declared
    if bound_class is None and constant is not None:
        raise UsageError(f"--constant needs a ceiling: {args.ref!r} declares none, "
                         "so give --bound-class")
    prof = profile(automaton, args.depth)
    if bound_class is None:
        _emit(_render(prof, args.format), args.out)
        return 0
    check = check_bound(prof, bound_class, 1 if constant is None else constant)
    if args.format == "json":
        text = canonical_json(
            {"automaton": prof.name, "profile": prof.counts, "bound": check.payload()}
        )
    elif args.format == "csv":
        lines = ["n,count,within_bound"]
        lines.extend(
            f"{n},{c},{'true' if ok else 'false'}"
            for (n, c), ok in zip(prof.pairs(), check.verdicts)
        )
        text = "\n".join(lines) + "\n"
    else:
        text = prof.to_text() + "\n" + check.to_text()
    _emit(text, args.out)
    return 0 if check.passed else 1


def cmd_quotients(args) -> int:
    oracle = _load_oracle(args.ref)
    report = count_quotients(oracle, args.order, args.witness, budget=args.budget)
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_query_table(args) -> int:
    oracle = _load_oracle(args.ref)
    if args.rows is not None:
        spec = RowSpec.explicit(args.rows)
    elif args.rows_max is not None:
        spec = RowSpec.exhaustive(args.rows_max)
    else:
        raise UsageError("need --rows or --rows-max")
    report = query_table(
        oracle, args.order, spec,
        budget=args.budget, include_profiles=args.profiles,
    )
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_prob_eval(args) -> int:
    machine = _load_prob(args.ref)
    print(machine.acceptance_probability(args.word))
    return 0


def cmd_prob_separate(args) -> int:
    suffix = separate_quotients(args.u, args.v)
    print(suffix)
    return 0


def cmd_experiment(args) -> int:
    if args.list:
        print("\n".join(REGISTRY_ORDER))
        return 0
    if args.id is None:
        raise UsageError("need an experiment id, 'all', or --list")
    fmt = args.format
    if args.id == "all":
        for flag in ("n", "limit", "count"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies to a single experiment, not to 'all'")
        reports = run_all(seed=args.seed, budget=args.budget)
    else:
        overrides = {
            "seed": args.seed,
            "budget": args.budget,
            "n": args.n,
            "limit": args.limit,
            "count": args.count,
        }
        reports = [run_experiment(args.id, **overrides)]
    if fmt == "json":
        text = "\n".join(r.canonical_json() for r in reports)
    elif fmt == "csv":
        lines = ["experiment,verdict"]
        lines += [f"{r.experiment},{r.verdict}" for r in reports]
        text = "\n".join(lines)
    else:
        text = "\n\n".join(r.to_text() for r in reports)
    _emit(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_gallery(args) -> int:
    print("\n".join(names()))
    return 0


# ---------------------------------------------------------------------------
# parser

def non_negative_int(text: str) -> int:
    """argparse type of a length or depth."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statelab",
        description="State-counting workbench for alternating and "
        "probabilistic automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text", help="output format")
        p.add_argument("--out", help="write the report to this file")

    def budget(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="membership query budget")

    p = sub.add_parser("eval", help="run one word through an automaton")
    p.add_argument("ref", help="gallery language name or interchange file")
    p.add_argument("word")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="count reachable states per depth")
    p.add_argument("ref")
    p.add_argument("depth", type=non_negative_int)
    p.add_argument("--bound-class", help="ceiling shape: const, n, n^<k>, 2^n")
    p.add_argument("--constant", type=int,
                   help="multiplier for the declared or --bound-class "
                   "ceiling (default: the declared constant, else 1)")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("quotients", help="count distinguishable prefixes")
    p.add_argument("ref")
    p.add_argument("--order", type=non_negative_int, required=True,
                   help="max prefix length")
    p.add_argument("--witness", type=non_negative_int, required=True,
                   help="max witness length")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("query-table", help="count membership-profile rows")
    p.add_argument("ref")
    p.add_argument("--order", type=non_negative_int, required=True,
                   help="max column length")
    p.add_argument("--rows", nargs="*", default=None,
                   help="explicit row words")
    p.add_argument("--rows-max", type=non_negative_int, default=None,
                   help="use all words up to this length as rows")
    p.add_argument("--profiles", action="store_true",
                   help="include each representative's profile bits")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_query_table)

    p = sub.add_parser("prob", help="probabilistic automaton operations")
    psub = p.add_subparsers(dest="prob_command", required=True)

    q = psub.add_parser("eval", help="exact acceptance probability of a word")
    q.add_argument("ref")
    q.add_argument("word")
    q.set_defaults(func=cmd_prob_eval)

    q = psub.add_parser("separate",
                        help="suffix splitting two binary words at the "
                        "1/2 cut point once each is extended by '1'")
    q.add_argument("u")
    q.add_argument("v")
    q.set_defaults(func=cmd_prob_separate)

    p = sub.add_parser("experiment", help="run recorded experiments")
    p.add_argument("id", nargs="?", help="experiment id or 'all'")
    p.add_argument("--list", action="store_true",
                   help="list known experiment ids")
    p.add_argument("--n", type=int, default=None,
                   help="override the main size parameter")
    p.add_argument("--limit", type=int, default=None,
                   help="override the search limit (primes-linear)")
    p.add_argument("--count", type=int, default=None,
                   help="override the sample count (core-crosscheck)")
    p.add_argument("--seed", type=lambda s: int(s) % (1 << 64), default=0,
                   help="seed for randomized checks (unsigned 64-bit)")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gallery", help="list built-in languages")
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
