"""One budget rule: every BudgetError comes from `errors.charge`.

Each exponential search in the package is guarded by a named budget, and
each refusal reads "<what> exceed the <name> budget <budget>".  This test
walks `src/circuitbench` with `ast` and fails on any other place that
builds or raises a BudgetError, so a new guard cannot bring back its own
check and its own message.
"""

import ast
from pathlib import Path

import pytest

from circuitbench.errors import BudgetError, charge

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circuitbench"


def _builds_budget_error(node):
    """True for a `BudgetError(...)` call and for a bare `raise BudgetError`."""
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.Raise):
        node = node.exc
    else:
        return False
    return "BudgetError" in (getattr(node, "id", None), getattr(node, "attr", None))


def test_only_charge_constructs_budget_error():
    sites, charge_lines = [], None
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if _builds_budget_error(node):
                sites.append((path.name, node.lineno))
            if path.name == "errors.py" and getattr(node, "name", None) == "charge":
                charge_lines = range(node.lineno, node.end_lineno + 1)
    assert len(sites) == 1, sites
    assert sites[0][0] == "errors.py" and sites[0][1] in charge_lines, sites


def test_charge_refuses_only_work_over_the_budget():
    charge("eval", 10, 10, "10 assignments")
    with pytest.raises(BudgetError) as info:
        charge("eval", 10, 11, "11 assignments")
    assert str(info.value) == "11 assignments exceed the eval budget 10"
    assert info.value.reached == 11
