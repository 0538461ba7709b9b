"""Command line front end.

Exit codes follow the usual convention: 0 success (word accepted, bound
holds, experiments pass), 1 checked failure (word rejected, bound broken,
experiment failed, runtime error), 2 usage error (bad flags, unknown
names, malformed input files).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

from .errors import FormatError, StatelabError, UsageError
from .experiments import REGISTRY, run_all, run_experiment
from .gallery import get_language, names
from .interchange import load_automaton, load_prob_automaton
from .prob import separate_quotients
from .profiler import CheckedProfile, bound_function, check_bound, profile
from .quotients import (
    DEFAULT_BUDGET,
    RowSpec,
    count_quotients,
    from_automaton,
    query_table,
    render,
)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _resolve(ref: str, field: str, load):
    """(spec, spec.<field>) for a gallery name, else (None, the file `ref`
    parsed by `load(text, name=<file stem>)`); a missing, unreadable or
    malformed file, or a gallery language without `field`, is a usage error."""
    try:
        spec = get_language(ref)
    except StatelabError as exc:
        path = Path(ref)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise UsageError(f"{ref!r} is neither a gallery language nor a file: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {ref!r}: {exc}") from None
        try:
            return None, load(text, name=path.stem)
        except FormatError as exc:
            raise UsageError(f"{ref}: {exc}") from exc
    value = getattr(spec, field)
    if value is None:
        raise UsageError(f"gallery language {ref!r} has no {field.replace('_', ' ')}")
    return spec, value


def _oracle(ref: str):
    """The membership oracle of a gallery language or of an automaton file."""
    return _resolve(ref, "oracle", lambda text, name: from_automaton(
        load_automaton(text, name=name), name=ref))[1]


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    _, automaton = _resolve(args.ref, "automaton", load_automaton)
    accepted = automaton.accepts(args.word)
    print("accept" if accepted else "reject")
    return 0 if accepted else 1


def cmd_profile(args) -> int:
    spec, automaton = _resolve(args.ref, "automaton", load_automaton)
    bound_class = args.bound_class
    constant = args.constant
    if bound_class is None and spec is not None and spec.declared_class is not None:
        bound_class, declared = spec.declared_class
        if constant is None:
            constant = declared
    if bound_class is None and constant is not None:
        raise UsageError(f"--constant needs a ceiling: {args.ref!r} declares none, "
                         "so give --bound-class")
    report = profile(automaton, args.depth)
    if bound_class is not None:
        check = check_bound(report, bound_class, 1 if constant is None else constant)
        report = CheckedProfile(report, check)
    _emit(render([report], args.format), args.out)
    return 0 if bound_class is None or report.check.passed else 1


def cmd_quotients(args) -> int:
    oracle = _oracle(args.ref)
    report = count_quotients(oracle, args.order, args.witness, budget=args.budget)
    _emit(render([report], args.format), args.out)
    return 0


def cmd_query_table(args) -> int:
    oracle = _oracle(args.ref)
    if args.rows is not None:
        spec = RowSpec.explicit(args.rows)
    else:
        spec = RowSpec.exhaustive(args.rows_max)
    report = query_table(
        oracle, args.order, spec,
        budget=args.budget, include_profiles=args.profiles,
    )
    _emit(render([report], args.format), args.out)
    return 0


def cmd_prob_eval(args) -> int:
    _, machine = _resolve(args.ref, "prob_automaton", load_prob_automaton)
    print(machine.acceptance_probability(args.word))
    return 0


def cmd_prob_separate(args) -> int:
    print(separate_quotients(args.u, args.v))
    return 0


def cmd_experiment(args) -> int:
    if args.list:
        print("\n".join(REGISTRY))
        return 0
    if args.id is None:
        raise UsageError("need an experiment id, 'all', or --list")
    overrides = {k: getattr(args, k) for k in ("seed", "budget", "n", "limit", "count")}
    if args.id == "all":
        reports = run_all(**overrides)
    else:
        reports = [run_experiment(args.id, **overrides)]
    _emit(render(reports, args.format), args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_gallery(args) -> int:
    print("\n".join(names()))
    return 0


# ---------------------------------------------------------------------------
# parser

def whole(least: Optional[int] = None):
    """argparse type of an integer: ASCII digits after at most one '-' (bare
    int() also takes '٣', '1_0', ' 3' and '+3'), at least `least` if given."""

    def read(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
        value = int(text)
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return read


def bound_class(text: str) -> str:
    """argparse type of a ceiling shape: a name `profiler.bound_function` knows."""
    try:
        bound_function(text)
    except StatelabError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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
        p.add_argument("--budget", type=whole(0), default=DEFAULT_BUDGET,
                       help="membership query budget")

    p = sub.add_parser("eval", help="run one word through an automaton")
    p.add_argument("ref", help="gallery language name or interchange file")
    p.add_argument("word")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="count reachable states per depth")
    p.add_argument("ref")
    p.add_argument("depth", type=whole(0))
    p.add_argument("--bound-class", type=bound_class, help="ceiling shape: const, n, n^<k>, 2^n")
    p.add_argument("--constant", type=whole(1),
                   help="multiplier for the declared or --bound-class "
                   "ceiling (default: the declared constant, else 1)")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("quotients", help="count distinguishable prefixes")
    p.add_argument("ref")
    p.add_argument("--order", type=whole(0), required=True,
                   help="max prefix length")
    p.add_argument("--witness", type=whole(0), required=True,
                   help="max witness length")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("query-table", help="count membership-profile rows")
    p.add_argument("ref")
    p.add_argument("--order", type=whole(0), required=True,
                   help="max column length")
    rows = p.add_mutually_exclusive_group(required=True)
    rows.add_argument("--rows", nargs="+", default=None,
                      help="explicit row words")
    rows.add_argument("--rows-max", type=whole(0), default=None,
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
    p.add_argument("--n", type=whole(), default=None,
                   help="override the main size parameter")
    p.add_argument("--limit", type=whole(), default=None,
                   help="override the search limit (primes-linear)")
    p.add_argument("--count", type=whole(), default=None,
                   help="override the sample count (core-crosscheck)")
    p.add_argument("--seed", type=lambda text: whole()(text) % (1 << 64), default=0,
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
    except StatelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
