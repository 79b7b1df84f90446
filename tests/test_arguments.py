"""One argument rule: every lower-bound and composite-modulus refusal comes
from `errors.at_least` or `primes.require_prime`.

Each refusal of an integer argument below its bound reads "<name> must be
>= <low>, got <value>", and each refusal of a composite modulus "modulus <p>
is not prime".  This test walks `src/circuitbench` with `ast` and fails on
any other place that builds a ValueError with either text, so a new check
cannot bring back its own message.  ParseError, which carries a line
number, is exempt.
"""

import ast
from pathlib import Path

import pytest

from circuitbench.errors import at_least
from circuitbench.primes import require_prime

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circuitbench"


def _literal_text(node):
    """The constant text of a string literal or f-string, else ''."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(part) for part in node.values)
    return ""


def _builds_value_error(node, text):
    """True for a `ValueError(...)` call whose literal message contains `text`."""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    func = node.func
    if "ValueError" not in (getattr(func, "id", None), getattr(func, "attr", None)):
        return False
    return text in _literal_text(node.args[0])


@pytest.mark.parametrize(
    "text, module, helper",
    [("must be >=", "errors.py", "at_least"), ("is not prime", "primes.py", "require_prime")],
)
def test_only_the_helper_builds_the_refusal(text, module, helper):
    sites, helper_lines = [], None
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if _builds_value_error(node, text):
                sites.append((path.name, node.lineno))
            if path.name == module and getattr(node, "name", None) == helper:
                helper_lines = range(node.lineno, node.end_lineno + 1)
    assert len(sites) == 1, sites
    assert sites[0][0] == module and sites[0][1] in helper_lines, sites


def test_at_least_refuses_only_values_below_the_bound():
    at_least("--limit", 0, 0)
    at_least("level count", 1, 1)
    with pytest.raises(ValueError) as info:
        at_least("--limit", -1, 0)
    assert str(info.value) == "--limit must be >= 0, got -1"
    with pytest.raises(ValueError) as info:
        at_least("level count", 0, 1)
    assert str(info.value) == "level count must be >= 1, got 0"


@pytest.mark.parametrize("p", [2, 3, 101])
def test_require_prime_accepts_primes(p):
    require_prime(p)


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 561])
def test_require_prime_refuses_every_other_modulus(p):
    with pytest.raises(ValueError) as info:
        require_prime(p)
    assert str(info.value) == f"modulus {p} is not prime"
