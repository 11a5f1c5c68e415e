"""Recursive-descent parser for test-function expressions.

Grammar:
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus and associates to the right, so
"-2^2" is -4 and "2^-1" is 0.5.  The identifier sets are fixed:
variables {rho, zr, zi, R, x1, x2, x3, x4} and functions
{exp, log, sin, cos, sqrt}.  Errors carry the byte offset of the
offending token.

Evaluation works on floats and on jets alike.  Every intermediate result
must be finite: an overflow, an inf or a NaN anywhere in the tree raises
EvaluationDomainError, as does leaving the domain of log or sqrt.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

VARIABLES = ("rho", "zr", "zi", "R", "x1", "x2", "x3", "x4")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvaluationDomainError(Exception):
    """log or sqrt left its domain, a division or negative power hit zero,
    or an intermediate result overflowed or was not finite (a scalar, or
    any coefficient of a jet)."""


@dataclass(frozen=True)
class Node:
    kind: str  # "num" | "var" | "call" | "neg" | "+" | "-" | "*" | "/" | "^"
    value: object = None
    args: tuple = ()


@dataclass(frozen=True)
class TestFnExpr:
    source: str
    root: Node

    def variables(self) -> set:
        out = set()

        def walk(n):
            if n.kind == "var":
                out.add(n.value)
            for a in n.args:
                walk(a)

        walk(self.root)
        return out

    def __call__(self, env: dict):
        # overflow and division by zero surface as EvaluationDomainError
        # below, not as numpy warnings
        with np.errstate(all="ignore"):
            return _evaluate(self.root, env)


# ---------------------------------------------------------------------------
# lexer


_MINUS = {"-", "−"}


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < n and (src[j].isdigit() or src[j] == "." or src[j] in "eE"
                             or (src[j] in "+-" and j > i and src[j - 1] in "eE")):
                if src[j] in "eE":
                    if seen_e:
                        break
                    seen_e = True
                j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} overflows", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _MINUS:
            tokens.append(("op", "-", i))
            i += 1
            continue
        if ch in "+*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                node = Node(value, args=(node, self.term()))
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                node = Node(value, args=(node, self.factor()))
            else:
                return node

    def factor(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Node("neg", args=(self.factor(),))
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Node("^", args=(node, self.factor()))  # right associative
        return node

    def base(self) -> Node:
        kind, value, offset = self.advance()
        if kind == "num":
            return Node("num", value=value)
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Node("call", value=value, args=(arg,))
            if value not in VARIABLES:
                raise ParseError(f"unknown identifier {value!r}", offset)
            return Node("var", value=value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, identifier or parenthesis", offset)


def parse_testfn(src: str) -> TestFnExpr:
    return TestFnExpr(source=src, root=_Parser(src).parse())


# ---------------------------------------------------------------------------
# evaluation and printing


def _real_value(x) -> float:
    from .jets import Jet

    return x.value.real if isinstance(x, Jet) else float(getattr(x, "real", x))


def _is_finite(x) -> bool:
    from .jets import Jet

    if isinstance(x, Jet):
        return bool(np.isfinite(x.c).all())
    return cmath.isfinite(x)


def _evaluate(node: Node, env: dict):
    """Value of `node`; raises EvaluationDomainError at the first node whose
    result overflows or is not finite."""
    label = node.value if node.kind in ("call", "var") else node.kind
    try:
        out = _evaluate_node(node, env)
        if _is_finite(out):
            return out
    except (OverflowError, ZeroDivisionError) as err:
        raise EvaluationDomainError(f"{label!r} is out of range: {err}") from None
    raise EvaluationDomainError(f"{label!r} is not finite")


def _evaluate_node(node: Node, env: dict):
    if node.kind == "num":
        return node.value
    if node.kind == "var":
        try:
            return env[node.value]
        except KeyError:
            raise EvaluationDomainError(f"variable {node.value!r} is not available here") from None
    if node.kind == "neg":
        return -_evaluate(node.args[0], env)
    if node.kind == "call":
        arg = _evaluate(node.args[0], env)
        return _apply_function(node.value, arg)
    a = _evaluate(node.args[0], env)
    b = _evaluate(node.args[1], env)
    if node.kind == "+":
        return a + b
    if node.kind == "-":
        return a - b
    if node.kind == "*":
        return a * b
    if node.kind == "/":
        return a / b
    if node.kind == "^":
        return _power(a, b)
    raise AssertionError(f"unknown node kind {node.kind!r}")


def _apply_function(name: str, arg):
    from .jets import Jet

    if name in ("log", "sqrt") and _real_value(arg) <= 0.0:
        raise EvaluationDomainError(f"{name} argument must be positive at sampled points")
    if isinstance(arg, Jet):
        return getattr(arg, name)()
    fn = getattr(math, name)
    return fn(arg)


def _power(a, b):
    from .jets import Jet

    bval = _real_value(b)
    if isinstance(b, Jet) and b.c.size > 1 and np.abs(b.c[1:]).max() > 0.0:
        # genuinely variable exponent: a^b = exp(b log a)
        if _real_value(a) <= 0.0:
            raise EvaluationDomainError("variable-exponent power needs a positive base")
        return ((a.log() if isinstance(a, Jet) else math.log(a)) * b).exp()
    if float(bval).is_integer():
        return a ** int(bval)
    if _real_value(a) <= 0.0:
        raise EvaluationDomainError("fractional power of a non-positive base")
    if isinstance(a, Jet):
        return (a.log() * bval).exp()
    return a**bval


def pretty_print(expr: TestFnExpr | Node) -> str:
    node = expr.root if isinstance(expr, TestFnExpr) else expr
    return _print(node, 0)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print(node: Node, parent_prec: int) -> str:
    if node.kind == "num":
        text = repr(node.value)
        # a negative literal reads back as unary minus, so it binds like one
        return f"({text})" if text.startswith("-") and parent_prec > _PRECEDENCE["neg"] else text
    if node.kind == "var":
        return node.value
    if node.kind == "call":
        return f"{node.value}({_print(node.args[0], 0)})"
    if node.kind == "neg":
        inner = _print(node.args[0], _PRECEDENCE["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    prec = _PRECEDENCE[node.kind]
    # right-assoc ^ keeps the bare right child; left-assoc ops parenthesize it
    left = _print(node.args[0], prec if node.kind != "^" else prec + 1)
    right = _print(node.args[1], prec + 1 if node.kind != "^" else prec)
    text = f"{left}{node.kind}{right}"
    return f"({text})" if parent_prec > prec else text
