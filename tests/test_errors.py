"""The scalar argument checks: `errors.checked_real` is the one owner of what a finite real
argument is, and no other module decides it for itself."""
import ast
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from markovext.errors import DomainError, InvalidArgumentError, checked_real

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "markovext")


@pytest.mark.parametrize("value,expected", [
    (7, 7.0), (-2.5, -2.5), (Fraction(7, 3), 7 / 3), (np.float32(1.5), 1.5),
    (np.int64(3), 3.0), (np.float64(0.1), 0.1), (10 ** 300, 1e300),
], ids=["int", "float", "fraction", "float32", "int64", "float64", "int_in_float_range"])
def test_checked_real_returns_the_float(value, expected):
    x = checked_real(value, "x")
    assert type(x) is float and x == expected


@pytest.mark.parametrize("value", [
    True, np.True_, "7", None, Decimal("7"), 1j, [1.0], math.nan, math.inf, -math.inf,
    np.float32("inf"), 10 ** 400, -10 ** 400, Fraction(10 ** 400, 3),
], ids=["bool", "numpy_bool", "str", "none", "decimal", "complex", "list", "nan", "inf",
        "-inf", "float32_inf", "huge_int", "-huge_int", "huge_fraction"])
def test_checked_real_refuses_what_is_not_a_finite_real(value):
    with pytest.raises(DomainError, match="^eps must be a finite real number"):
        checked_real(value, "eps")
    with pytest.raises(InvalidArgumentError):
        checked_real(value, "weight", InvalidArgumentError)


def _finiteness_tests(path):
    """(enclosing function, dotted name) for each `math.isfinite` and `numbers.Real` in a
    module, whether reached as an attribute or imported by name."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in (("math", "isfinite"), ("numbers", "Real"))):
            found.append((where, f"{node.value.id}.{node.attr}"))
        if isinstance(node, ast.ImportFrom) and node.module in ("math", "numbers"):
            found.extend((where, f"{node.module}.{a.name}") for a in node.names
                         if a.name in ("isfinite", "Real", "*"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    with open(path) as fh:
        visit(ast.parse(fh.read()), None)
    return found


def test_only_the_owners_decide_what_a_finite_real_is():
    # errors.py owns the rule; cli._finite_float parses flag text, which is not yet a number
    stray = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "errors.py":
            found = [f for f in _finiteness_tests(os.path.join(SRC, name))
                     if not (name == "cli.py" and f == ("_finite_float", "math.isfinite"))]
            if found:
                stray[name] = found
    assert stray == {}
