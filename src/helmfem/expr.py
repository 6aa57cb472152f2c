"""Tiny arithmetic grammar for boundary data and coefficients in configs.

Supported: + - * / and unary minus, the functions sin/cos/exp, numeric
literals, the constants pi and i (the imaginary unit, also accepted as a
numeric suffix: ``3.333i``, ``.5i``), and the coordinates x and y.
Anything else is rejected, so config typos fail loudly instead of
evaluating.
"""

from __future__ import annotations

import ast
import re

import numpy as np


class ExprError(ValueError):
    pass


_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTS = {"i": 1j, "pi": np.pi}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

# "2i", "3.333i", ".5i", "1e-2i" -> python complex literals
_IMAG_SUFFIX = re.compile(r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)[iI]\b")


def _validate(node, allow_xy: bool):
    if isinstance(node, ast.Expression):
        _validate(node.body, allow_xy)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExprError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.left, allow_xy)
        _validate(node.right, allow_xy)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ExprError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.operand, allow_xy)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ExprError(f"unknown function in expression")
        if node.keywords or len(node.args) != 1:
            raise ExprError("functions take exactly one positional argument")
        _validate(node.args[0], allow_xy)
    elif isinstance(node, ast.Name):
        names = set(_CONSTS) | ({"x", "y"} if allow_xy else set())
        if node.id not in names:
            raise ExprError(f"unknown name {node.id!r} in expression")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, complex)):
            raise ExprError(f"literal {node.value!r} not allowed")
    else:
        raise ExprError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(text: str, allow_xy: bool = True):
    """Compile an expression string to a vectorized f(x, y) -> complex."""
    source = _IMAG_SUFFIX.sub(r"(\1*1j)", text.strip())
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    _validate(tree, allow_xy)
    code = compile(tree, "<expression>", "eval")
    env = {"__builtins__": {}, **_FUNCS, **_CONSTS}

    def fn(x, y):
        value = eval(code, env, {"x": x, "y": y})
        return np.asarray(value, dtype=complex) + np.zeros(np.shape(x), dtype=complex)

    return fn


def parse_complex(text: str) -> complex:
    """Evaluate a constant expression (no x/y) to a finite complex number."""
    fn = compile_expression(text, allow_xy=False)
    value = complex(fn(0.0, 0.0))
    if not np.isfinite(value):
        raise ExprError(f"expression {text!r} evaluates to the non-finite value {value}")
    return value
