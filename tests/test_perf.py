"""Timings of two hot primitives, through pytest-benchmark.

Each case runs one round (`benchmark.pedantic`), so the suite pays for
one call and still checks its result. To keep the timings, run

    PYTHONPATH=src python -m pytest tests/test_perf.py --benchmark-autosave

which adds one run to `.benchmarks/`; `--benchmark-compare` sets a later
run against the last one saved.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from statelab import Atom, get_language  # noqa: E402

ATOMS = 100_000


def _build_atoms():
    return [Atom(i) for i in range(ATOMS)]


def test_atom_construction(benchmark):
    built = benchmark.pedantic(_build_atoms, rounds=1, iterations=1)
    assert len(built) == ATOMS and built[-1] == Atom(ATOMS - 1)


def test_reachable_counts_of_l_hier_2_to_depth_30(benchmark):
    # a fresh automaton, so the search starts from an empty transition memo
    automaton = get_language("l-hier:2").automaton
    counts = benchmark.pedantic(automaton.reachable_counts, args=(30,), rounds=1, iterations=1)
    assert counts[:8] == [1, 2, 9, 31, 82, 177, 333, 566]
    assert counts[-1] == 63_877
