"""Arithmetic in ``ordmet`` stays exact: a walk of every module's syntax
tree refuses each construct that makes a float."""

import ast
import re
from pathlib import Path

import pytest

import ordmet

MODULES = sorted(Path(ordmet.__file__).parent.glob("*.py"))
# numpy's float and complex scalar types, read as attributes (np.float64)
FLOAT_DTYPES = re.compile(r"(float|complex)(\d+|_)?|c?(half|single|double|longdouble)|floating")
# the math functions that return an int on ints
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def inexact(tree):
    """Each node of ``tree`` that makes a float, with what it is: true
    division, a float or complex constant, the name ``float`` (called or
    passed as a dtype), a numpy float dtype and a float-valued ``math``
    function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node, f"constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node, "float"
        elif isinstance(node, ast.Attribute) and FLOAT_DTYPES.fullmatch(node.attr):
            yield node, f"dtype .{node.attr}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in INT_MATH:
                yield node, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INT_MATH:
                    yield node, f"math.{alias.name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_make_no_float(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{node.lineno}: {what}" for node, what in inexact(tree)] == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("q = a / b", ["true division"]),
        ("q /= b", ["true division"]),
        ("x = 0.5", ["constant 0.5"]),
        ("x = 2j", ["constant 2j"]),
        ("x = float(y)", ["float"]),
        ("m = np.zeros(3, dtype=float)", ["float"]),
        ("m = np.zeros(3, dtype=np.float64)", ["dtype .float64"]),
        ("m = a.astype(np.double)", ["dtype .double"]),
        ("r = math.sqrt(2)", ["math.sqrt"]),
        ("from math import lcm, log", ["math.log"]),
        ("q = a // b\nm = np.zeros(3, dtype=np.int64)\nr = math.lcm(2, 3)", []),
    ],
)
def test_the_guard_finds_each_construct(source, found):
    assert [what for _, what in inexact(ast.parse(source))] == found
