"""Workbench for automata over infinite state spaces.

Alternating automata with lazily generated states, acceptance-game
evaluation, left-quotient and query-table lower bounds, exact-rational
probabilistic automata, and a gallery of example languages with
measured state-complexity profiles.
"""

from .automata import (
    AlternatingAutomaton,
    backward_accepts,
    determinize_finite,
    game_tree_accepts,
)
from .errors import (
    BudgetExceeded,
    FormatError,
    KindError,
    StatelabError,
    UnsupportedError,
    UsageError,
)
from .experiments import ExperimentReport, run_all, run_experiment
from .formulas import FALSE, TRUE, And, Atom, Or, atoms, conj, disj, evaluate, format_formula
from .gallery import LanguageSpec, get_language
from .interchange import (
    load_automaton,
    load_prob_automaton,
    parse_formula,
    serialize_automaton,
    serialize_prob_automaton,
)
from .primes import find_isolated_prime, find_isolated_primes, is_prime, sieve
from .prob import (
    ProbAutomaton,
    ThresholdLanguage,
    bin_frac,
    bin_int,
    dyadic_witness,
    rabin_automaton,
    separate_quotients,
)
from .profiler import BoundCheck, ComplexityProfile, check_bound, profile
from .quotients import (
    DEFAULT_BUDGET,
    Budget,
    LanguageOracle,
    QueryTableReport,
    QuotientCountReport,
    RowSpec,
    count_quotients,
    distinguish,
    from_automaton,
    oracle_intersection,
    oracle_union,
    query_table,
    quotient_member,
    split_depth,
)
from .words import Alphabet

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlternatingAutomaton",
    "And",
    "Atom",
    "BoundCheck",
    "Budget",
    "BudgetExceeded",
    "ComplexityProfile",
    "DEFAULT_BUDGET",
    "FALSE",
    "FormatError",
    "KindError",
    "LanguageOracle",
    "LanguageSpec",
    "Or",
    "ProbAutomaton",
    "QueryTableReport",
    "QuotientCountReport",
    "RowSpec",
    "StatelabError",
    "ThresholdLanguage",
    "TRUE",
    "UnsupportedError",
    "UsageError",
    "atoms",
    "backward_accepts",
    "bin_frac",
    "bin_int",
    "check_bound",
    "conj",
    "count_quotients",
    "determinize_finite",
    "disj",
    "distinguish",
    "dyadic_witness",
    "evaluate",
    "ExperimentReport",
    "find_isolated_prime",
    "find_isolated_primes",
    "format_formula",
    "from_automaton",
    "game_tree_accepts",
    "get_language",
    "is_prime",
    "load_automaton",
    "load_prob_automaton",
    "oracle_intersection",
    "oracle_union",
    "parse_formula",
    "profile",
    "query_table",
    "quotient_member",
    "rabin_automaton",
    "run_all",
    "run_experiment",
    "separate_quotients",
    "serialize_automaton",
    "serialize_prob_automaton",
    "sieve",
    "split_depth",
    "__version__",
]
