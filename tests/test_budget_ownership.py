"""The membership-query budget has one owner: `quotients.Budget`.

Each `src/statelab/*.py` is parsed with `ast`. Only `quotients.py`
constructs `BudgetExceeded(...)`, from `Budget.charge`, and no module
subtracts from a budget (`budget - asked`, `budget -= asked`): a search
that shares a run's budget charges the run's one `Budget` instead, so
every refusal names what the whole run needs.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "statelab").glob("*.py"))


def _named(node: ast.AST) -> str:
    """The name a bare or dotted reference ends in, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def budget_arithmetic(module: str, source: str) -> list:
    """(line, what) of each budget refusal built outside `quotients` and of
    each subtraction from a budget, in the module named `module`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _named(node.func) == "BudgetExceeded":
            if module != "quotients":
                found.append((node.lineno, "BudgetExceeded(...)"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if _named(node.left) == "budget":
                found.append((node.lineno, "budget - ..."))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
            if _named(node.target) == "budget":
                found.append((node.lineno, "budget -= ..."))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_budget_ledger_refuses_or_spends_a_budget(path):
    assert budget_arithmetic(path.stem, path.read_text(encoding="utf-8")) == []


def test_the_check_sees_refusals_and_budget_subtraction():
    source = (
        "def run(budget, asked, exc):\n"
        "    left = budget - asked\n"
        "    self.budget -= asked\n"
        "    spare = asked - budget\n"
        "    raise errors.BudgetExceeded(asked + exc.needed, budget)\n"
    )
    assert budget_arithmetic("experiments", source) == [
        (2, "budget - ..."), (3, "budget -= ..."), (5, "BudgetExceeded(...)"),
    ]
    # the ledger's own module may refuse, but not subtract
    assert budget_arithmetic("quotients", source) == [(2, "budget - ..."), (3, "budget -= ...")]
