"""A small arithmetic expression language over the series index ``n``.

Grammar (EBNF, ``^`` right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)? | "-" factor
    base   := number | "n" | "(" expr ")" | func "(" args ")"
    func   := "ln" | "exp" | "iterlog"

A number is a run of decimal digits with an optional fraction and exponent
(``2``, ``0.5``, ``1e-3``).  Unary minus binds looser than ``^`` and tighter
than ``*``: ``-n^2`` is -(n^2), ``2^-1`` is 0.5.  ``iterlog`` takes a literal integer depth as its
first argument: ``iterlog(2, n)`` is ln(ln(n)).  In this language
``iterlog(k, x)`` is defined only where the result is strictly positive,
since expressions feed series terms and weights that must stay positive;
evaluation outside that region raises :class:`~demorgan.errors.EvalError`.

Every input either parses or raises :class:`ExpressionSyntaxError` with a
position; nothing panics, including pathologically nested input or a chain
of thousands of terms.  On its first call an expression is compiled into one
Python function of straight-line statements, generated from the shape of its
AST and shared by every expression of that shape; ``^``, ``ln``, ``exp`` and
``iterlog`` come from a table, ``_FLOAT_OPS``, and over another table the
same code runs in another number system.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
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


# AST nodes: ("num", float) | ("n",) | ("neg", x) | ("bin", op, lhs, rhs) | ("call", name, args...)
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
        if text == "-" and kind == "op":  # factor := "-" factor
            return ("neg", self.expr(_PRECEDENCE["^"], depth + 1))
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
                shown = text if len(text) <= 12 else f"{text[:6]}... ({len(text)} digits)"
                raise ExpressionSyntaxError(
                    f"iterlog depth {shown} out of range", pos,
                    expected=f"integer between 1 and {K_MAX_NUMERIC}",
                )
            self.expect("comma", "',' between iterlog arguments")
            node = ("call", "iterlog", k, self.expr(1, depth + 1))
        self.expect("rparen", "')'")
        return node


def _emit(node: Node, d: int, out: list[str], consts: list) -> str:
    """Append to ``out`` the statements that compute ``node``; return its operand.

    A leaf is a name (``n``, or ``c<i>`` for the i-th number); any other node
    leaves its value in ``v<d>``.  The left spine of binary operators, as in
    ``a + b - c / d``, accumulates into one local; each right operand works in
    the locals one level down, so the length of a chain adds no local.
    """
    kind = node[0]
    if kind == "num":
        consts.append(node[1])
        return f"c{len(consts) - 1}"
    if kind == "n":
        return "n"
    v = f"v{d}"
    if kind == "neg":
        out.append(f"{v} = -{_emit(node[1], d, out, consts)}")
    elif kind == "bin":
        spine = []
        while node[0] == "bin":
            spine.append(node)
            node = node[2]
        a = _emit(node, d, out, consts)
        for _, op, _, rhs in reversed(spine):
            b = _emit(rhs, d + 1, out, consts)
            out.append(f"{v} = pow({a}, {b})" if op == "^" else f"{v} = {a} {op} {b}")
            a = v
    else:
        x = _emit(node[-1], d, out, consts)
        if node[1] == "ln":
            out += [f"if {x} <= 0.0:",
                    f' raise EvalError(f"ln of non-positive value {{{x}}} at n={{n}}")',
                    f"{v} = ln({x})"]
        elif node[1] == "exp":
            out += [f"try: {v} = exp({x})",
                    f'except OverflowError: raise EvalError(f"overflow in exp({{{x}}})") from None']
        else:  # each log of the chain, and the value, must be positive: else iterlog.py says why
            k = node[2]
            logs = "".join(f" and (t := ln({'t' if j else x})) > 0.0" for j in range(k))
            out += [f"if 0.0 < {x} < inf{logs}: {v} = t",
                    f"else: {v} = _iterlog(iterlog, {k}, {x})"]
    return v


def _iterlog(op: Callable, k: int, x: float) -> float:
    """``op(k, x)`` where the unrolled chain's guard failed, with the language's checks."""
    try:
        v = op(k, x)
    except DomainError as exc:
        raise EvalError(str(exc)) from None
    if v <= 0.0:
        raise EvalError(f"iterlog({k}, {x}) = {v} is not positive; outside this language's domain")
    return v


# Every binary operator's error, for the whole body: only "/" divides by zero, and only
# "^" leaves its range or domain.  The EvalErrors of ln, exp and iterlog pass through.
_HANDLERS = (
    "  except EvalError:", "   raise",
    "  except ZeroDivisionError:", '   raise EvalError(f"division by zero at n={n}") from None',
    "  except OverflowError:",
    '   raise EvalError(f"overflow evaluating \'^\' at n={n}") from None',
    "  except ValueError as exc:",
    '   raise EvalError(f"domain error evaluating \'^\' at n={n}: {exc}") from None',
)

# Distinct shapes compiled per process; a shape is an AST with its numbers left out.
_SHAPES_CACHED = 256


@lru_cache(maxsize=_SHAPES_CACHED)
def _factory(source: str) -> Callable:
    namespace = {"EvalError": EvalError, "inf": math.inf, "isfinite": math.isfinite,
                 "_iterlog": _iterlog}
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["make"]


def _compile(node: Node, ops: dict[str, Callable], text: str | None = None) -> Callable:
    """One straight-line function evaluating ``node`` at n over ``ops``, with every
    runtime check of the language, in the tree walk's order of evaluation.

    ``+ - * /`` and unary ``-`` are infix, which floats and mpmath numbers both
    define; ``^``, ``ln``, ``exp`` and ``iterlog`` come from ``ops``, and
    ``iterlog(k, x)`` is unrolled into k calls of ``ln`` behind a guard.  The
    source is generated from the AST's shape alone: numbers, ``ops`` and
    ``text`` are arguments of its ``make`` factory, so no input text is ever
    compiled, and expressions that differ only in their numbers share one code
    object.  Given ``text``, the function takes ``float(n)`` and rejects a
    non-finite value, naming ``text``, as :class:`Expression` needs.
    """
    body, consts = [], []
    result = _emit(node, 0, body, consts)
    params = ", ".join([f"c{i}" for i in range(len(consts))] + ["pow, ln, exp, iterlog, text"])
    check = 'if not isfinite(r): raise EvalError(f"{text!r} is not finite at n={n0}")'
    source = "\n".join([f"def make({params}):", " def f(n0):",
                        "  n = float(n0)" if text is not None else "  n = n0", "  try:",
                        *("   " + line for line in body), f"   r = {result}", *_HANDLERS,
                        "  " + check if text is not None else "", "  return r", " return f"])
    return _factory(source)(*consts, ops["^"], ops["ln"], ops["exp"], ops["iterlog"], text)


_FLOAT_OPS = {"^": math.pow, "ln": math.log, "exp": math.exp, "iterlog": iterlog}


@dataclass(frozen=True)
class Expression:
    """A parsed expression, callable at any real index; compiled on its first call."""

    text: str
    ast: Node = field(repr=False, compare=False)  # fixed by the text
    fn: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, n: float) -> float:
        fn = self.fn
        if fn is None:
            fn = _compile(self.ast, _FLOAT_OPS, self.text)
            object.__setattr__(self, "fn", fn)
        return fn(n)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an evaluable function of n.

    Raises ExpressionSyntaxError (with position and expected-token info) on
    malformed input; the returned callable raises EvalError on runtime
    domain violations.
    """
    if not isinstance(text, str):
        raise ExpressionSyntaxError("expression must be a string", 0)
    return Expression(text, _Parser(text).parse())
