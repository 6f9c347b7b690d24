"""A small arithmetic expression language over the series index ``n``.

Grammar (EBNF, ``^`` right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)?
    base   := number | "n" | "(" expr ")" | func "(" args ")"
    func   := "ln" | "exp" | "iterlog"

A number is a run of decimal digits with an optional fraction and exponent
(``2``, ``0.5``, ``1e-3``).  ``iterlog`` takes a literal integer depth as its
first argument: ``iterlog(2, n)`` is ln(ln(n)).  In this language
``iterlog(k, x)`` is defined only where the result is strictly positive,
since expressions feed series terms and weights that must stay positive;
evaluation outside that region raises :class:`~demorgan.errors.EvalError`.

Every input either parses or raises :class:`ExpressionSyntaxError` with a
position; nothing panics, including pathologically nested input or a chain
of thousands of terms.  Parsing compiles the expression, once, into nested
closures that bind their operations (``+ - * / ^``, ``ln``, ``exp``, ``iterlog``)
from a table, ``_FLOAT_OPS``; over another table the AST runs in another number system.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import DomainError, EvalError, ExpressionSyntaxError
from .iterlog import K_MAX_NUMERIC, iterlog

# Deepest nesting of groups, function arguments and ``^`` operands.
_MAX_DEPTH = 99

_FUNCTIONS = ("ln", "exp", "iterlog")

# Binding strength of each binary operator; only ``^`` is right-associative.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

# ``\d`` is exactly what int() and float() accept, so every number token converts.
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,)
  | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of every token, ending with an ``end`` token."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
    return toks


# AST nodes: ("num", float) | ("n",) | ("bin", op, lhs, rhs) | ("call", name, args...)
Node = Union[tuple]


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def next(self) -> tuple[str, str, int]:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, kind: str, what: str) -> None:
        t_kind, text, pos = self.next()
        if t_kind != kind:
            raise ExpressionSyntaxError(f"unexpected {t_kind} {text!r}", pos, expected=what)

    def parse(self) -> Node:
        node = self.expr(1, 0)
        kind, text, pos = self.toks[self.i]
        if kind != "end":
            raise ExpressionSyntaxError(
                f"trailing input {text!r}", pos, expected="end of expression"
            )
        return node

    def expr(self, min_prec: int, depth: int) -> Node:
        """Operands joined by operators that bind at least ``min_prec``."""
        if depth > _MAX_DEPTH:
            raise ExpressionSyntaxError("expression nested too deeply", self.toks[self.i][2])
        node = self.base(depth)
        while self.toks[self.i][0] == "op" and _PRECEDENCE[self.toks[self.i][1]] >= min_prec:
            op = self.next()[1]
            prec = _PRECEDENCE[op]
            # A left-associative chain loops here; only a ``^`` chain nests.
            rhs =self.expr(prec, depth + 1) if op == "^" else self.expr(prec + 1, depth)
            node = ("bin", op, node, rhs)
        return node

    def base(self, depth: int) -> Node:
        kind, text, pos = self.next()
        if kind == "num":
            return ("num", float(text))
        if kind == "ident":
            if text == "n":
                return ("n",)
            if text in _FUNCTIONS:
                return self.call(text, depth)
            raise ExpressionSyntaxError(
                f"unknown name {text!r}", pos, expected="'n', 'ln', 'exp' or 'iterlog'"
            )
        if kind == "lparen":
            node = self.expr(1, depth + 1)
            self.expect("rparen", "')'")
            return node
        raise ExpressionSyntaxError(
            f"unexpected {kind} {text!r}", pos, expected="number, 'n', '(' or a function",
        )

    def call(self, name: str, depth: int) -> Node:
        self.expect("lparen", "'(' after function name")
        if name != "iterlog":
            node = ("call", name, self.expr(1, depth + 1))
        else:
            kind, text, pos = self.next()
            if kind != "num" or not text.isdecimal():
                raise ExpressionSyntaxError(
                    "iterlog needs a literal integer depth", pos,
                    expected="integer between 1 and 4",
                )
            try:
                k = int(text)
            except ValueError:  # more digits than int() converts
                k = math.inf
            if not 1 <= k <= K_MAX_NUMERIC:
                raise ExpressionSyntaxError(
                    f"iterlog depth {k} out of range", pos,
                    expected=f"integer between 1 and {K_MAX_NUMERIC}",
                )
            self.expect("comma", "',' between iterlog arguments")
            node = ("call", "iterlog", k, self.expr(1, depth + 1))
        self.expect("rparen", "')'")
        return node


def _compile(node: Node, ops: dict[str, Callable]) -> Callable[[float], float]:
    """Closures evaluating ``node`` at n over ``ops``, with every runtime check of the language.

    The left spine of binary operators, as in ``a + b - c / d``, is one
    closure applying them in turn from the left, so its length costs no
    recursion; operands nest only as deep as the parser allows.
    """
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda n: value
    if kind == "n":
        return lambda n: n
    if kind == "bin":
        steps = []
        while node[0] == "bin":
            steps.append((ops[node[1]], _compile(node[3], ops)))
            node = node[2]
        first, steps = _compile(node, ops), steps[::-1]

        def chain(n):
            a = first(n)
            for apply, rhs in steps:
                b = rhs(n)
                try:  # only "/" divides by zero, and only "^" leaves its range or domain
                    a = apply(a, b)
                except ZeroDivisionError:
                    raise EvalError(f"division by zero at n={n}") from None
                except OverflowError:
                    raise EvalError(f"overflow evaluating '^' at n={n}") from None
                except ValueError as exc:
                    raise EvalError(f"domain error evaluating '^' at n={n}: {exc}") from None
            return a
        return chain
    name, arg, op = node[1], _compile(node[-1], ops), ops[node[1]]
    if name == "iterlog":
        k = node[2]

        def iterated_log(n):
            x = arg(n)
            try:
                v = op(k, x)
            except DomainError as exc:
                raise EvalError(str(exc)) from None
            if v <= 0.0:
                raise EvalError(
                    f"iterlog({k}, {x}) = {v} is not positive; outside this language's domain"
                )
            return v
        return iterated_log
    if name == "ln":
        def ln(n):
            x = arg(n)
            if x <= 0.0:
                raise EvalError(f"ln of non-positive value {x} at n={n}")
            return op(x)
        return ln

    def exp(n):
        x = arg(n)
        try:
            return op(x)
        except OverflowError:
            raise EvalError(f"overflow in exp({x})") from None
    return exp


_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": math.pow, "ln": math.log, "exp": math.exp, "iterlog": iterlog}


@dataclass(frozen=True)
class Expression:
    """A parsed expression, compiled once and callable at any real index."""

    text: str
    ast: Node = field(repr=False, compare=False)  # fixed by the text
    fn: Callable[[float], float] = field(repr=False, compare=False)

    def __call__(self, n: float) -> float:
        v = self.fn(float(n))
        if not math.isfinite(v):
            raise EvalError(f"{self.text!r} is not finite at n={n}")
        return v


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an evaluable function of n.

    Raises ExpressionSyntaxError (with position and expected-token info) on
    malformed input; the returned callable raises EvalError on runtime
    domain violations.
    """
    if not isinstance(text, str):
        raise ExpressionSyntaxError("expression must be a string", 0)
    ast = _Parser(text).parse()
    return Expression(text, ast, _compile(ast, _FLOAT_OPS))
