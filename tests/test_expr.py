"""Expression language: parsing, evaluation, errors, robustness."""

import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demorgan.convergence import RatioSpec
from demorgan.errors import DomainError, EvalError, ExpressionSyntaxError
from demorgan.expr import parse_expression
from demorgan.iterlog import iterlog


class TestEvaluation:
    def test_identity(self):
        assert parse_expression("n")(7) == 7.0

    def test_log_power_term(self):
        f = parse_expression("1/(n*ln(n)^2)")
        x = math.e**math.e
        # 1/(e^e * e^2), frozen from direct arithmetic.
        assert math.isclose(f(x), 0.0089303, abs_tol=1e-6)

    def test_arithmetic_and_precedence(self):
        assert parse_expression("2+3*4^2")(1) == 50.0
        assert parse_expression("(2+3)*4")(1) == 20.0
        assert parse_expression("7-2-1")(1) == 4.0  # left-assoc
        assert parse_expression("2^3^2")(1) == 512.0  # right-assoc
        assert parse_expression("12/4/3")(1) == 1.0

    def test_functions(self):
        assert math.isclose(parse_expression("ln(exp(3))")(1), 3.0, rel_tol=1e-15)
        assert math.isclose(parse_expression("iterlog(2,n)")(100), math.log(math.log(100)),
                            rel_tol=1e-15)
        assert math.isclose(parse_expression("exp(1)")(1), math.e, rel_tol=1e-15)

    def test_number_literals(self):
        assert parse_expression("1e3")(1) == 1000.0
        assert parse_expression("2.5e-2")(1) == 0.025
        assert parse_expression("0.5^n")(10) == 0.5**10

    def test_whitespace(self):
        assert parse_expression(" 1 + 2 * n ")(3) == 7.0


class TestRuntimeErrors:
    def test_iterlog_outside_positive_region(self):
        # ln ln 2 < 0: defined as a real, but outside this language's domain.
        f = parse_expression("1/(n*iterlog(2,n))")
        with pytest.raises(EvalError):
            f(2)
        assert f(10) > 0.0

    def test_division_by_zero(self):
        f = parse_expression("1/(n-5)")
        with pytest.raises(EvalError) as exc:
            f(5)
        assert str(exc.value) == "division by zero at n=5.0"

    def test_ln_of_non_positive(self):
        with pytest.raises(EvalError):
            parse_expression("ln(n-10)")(3)

    def test_overflow(self):
        with pytest.raises(EvalError):
            parse_expression("exp(1000)")(1)
        with pytest.raises(EvalError):
            parse_expression("10^n")(400)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            parse_expression("(1-n)^0.5")(3)


class TestParseErrors:
    @pytest.mark.parametrize("text,pos", [
        ("1+", 2),
        ("*3", 0),
        ("(1", 2),
        ("1$2", 1),
        ("foo(n)", 0),
        ("ln 3", 3),
        ("iterlog(2.5,n)", 8),
        ("iterlog(9,n)", 8),
        ("iterlog(n,n)", 8),
        ("1 2", 2),
        ("", 0),
        (5, 0),  # not a string
    ])
    def test_position_reported(self, text, pos):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(text)
        assert exc.value.position == pos

    def test_expected_token_reported(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("(1+2")
        assert "')'" in exc.value.expected

    def test_no_unary_minus(self):
        # The grammar has no prefix operators; "-" only appears between terms.
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("-n")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(" * 500 + "n" + ")" * 500)

    @pytest.mark.parametrize("unit", ["(", "ln("])
    def test_nesting_limit(self, unit):
        parse_expression(unit * 99 + "n" + ")" * 99)
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply") as exc:
            parse_expression(unit * 100 + "n" + ")" * 100)
        assert exc.value.position == 100 * len(unit)

    def test_power_chain_limit(self):
        # "^" is right-associative, so each operand of a chain nests one deeper.
        parse_expression("n^" * 99 + "n")
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            parse_expression("n^" * 100 + "n")

    def test_non_ascii_digit_as_iterlog_depth(self):
        # "²" is a digit to str.isdigit() but not to int(); it must not leak a
        # bare ValueError.
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("iterlog(²,n)")
        assert str(exc.value) == ("iterlog needs a literal integer depth at position 8 "
                                  "(expected integer between 1 and 4)")

    def test_non_ascii_digits(self):
        # Decimal digits of any script are numbers; other numerals are not.
        assert parse_expression("٣")(1) == 3.0
        assert parse_expression("iterlog(٣,n)").ast == ("call", "iterlog", 3, ("n",))
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("²")

    @pytest.mark.parametrize("depth,shown", [
        ("9", "9"), ("0", "0"), ("000000000005", "000000000005"),
        ("1234567890123", "123456... (13 digits)"),
        pytest.param("9" * 5000, "999999... (5000 digits)", id="5000-digits"),
    ])
    def test_out_of_range_iterlog_depth_named_as_typed(self, depth, shown):
        # 5000 digits are more than int() converts; the message still names the literal.
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(f"iterlog({depth}, n)")
        assert str(exc.value) == (f"iterlog depth {shown} out of range at position 8 "
                                  "(expected integer between 1 and 4)")

    def test_missing_iterlog_comma(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("iterlog(2 n)")


class TestTotality:
    _POOL = "n l e x i t r o g ( ) + - * / ^ , . 0 1 2 3 5 9 e E $ # \\ \t".split(" ") + [" "]

    def test_seeded_fuzz_never_crashes(self):
        rng = random.Random(987654321)
        for _ in range(3000):
            length = rng.randrange(0, 30)
            text = "".join(rng.choice(self._POOL) for _ in range(length))
            try:
                f = parse_expression(text)
            except ExpressionSyntaxError:
                continue
            try:
                f(17)
            except EvalError:
                pass

    @given(st.text(alphabet=string.printable, max_size=40))
    @settings(max_examples=500)
    def test_arbitrary_text_parses_or_raises_cleanly(self, text):
        try:
            f = parse_expression(text)
        except ExpressionSyntaxError:
            return
        try:
            f(3)
        except EvalError:
            pass


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

_LEAVES = st.one_of(
    st.just(("n",)),
    st.integers(0, 20).map(lambda k: ("num", float(k))),
    st.floats(0.0, 1e300, allow_nan=False).map(lambda x: ("num", abs(x))),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(sorted(_PREC)), children, children),
        st.tuples(st.just("call"), st.sampled_from(["ln", "exp"]), children),
        st.tuples(st.just("call"), st.just("iterlog"), st.integers(1, 4), children),
    )


_ASTS = st.recursive(_LEAVES, _extend, max_leaves=12)


def _show(node):
    """Print an AST with the fewest parentheses the precedence table allows."""
    if node[0] == "num":
        return repr(node[1])
    if node[0] == "n":
        return "n"
    if node[0] == "call":
        if node[1] == "iterlog":
            return f"iterlog({node[2]}, {_show(node[3])})"
        return f"{node[1]}({_show(node[2])})"
    _, op, lhs, rhs = node
    right_assoc = op == "^"

    def operand(child, tie_needs_parens):
        text = _show(child)
        prec = _PREC[child[1]] if child[0] == "bin" else 4
        if prec < _PREC[op] or (prec == _PREC[op] and tie_needs_parens):
            return f"({text})"
        return text

    return f"{operand(lhs, right_assoc)} {op} {operand(rhs, not right_assoc)}"


def _reference(node, n):
    """An evaluator written apart from the module, raising EvalError where it must."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "n":
        return n
    if kind == "bin":
        op, a, b = node[1], _reference(node[2], n), _reference(node[3], n)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (OverflowError, ValueError):
            raise EvalError("pow") from None
    if node[1] == "iterlog":
        v = _reference(node[3], n)
        if not math.isfinite(v):
            raise EvalError("iterlog of a non-finite value")
        for _ in range(node[2]):
            if v <= 0.0:
                raise EvalError("iterlog left its domain")
            v = math.log(v)
        if v <= 0.0:
            raise EvalError("iterlog is not positive")
        return v
    x = _reference(node[2], n)
    if node[1] == "ln":
        if x <= 0.0:
            raise EvalError("ln of a non-positive value")
        return math.log(x)
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalError("exp overflow") from None


def _outcome(f, n):
    try:
        v = f(n)
    except EvalError:
        return "EvalError"
    return "EvalError" if not math.isfinite(v) else float.hex(v)


class TestRoundTrip:
    @given(_ASTS, st.sampled_from([1, 2, 3, 13, 17, 10**6]))
    @settings(max_examples=400, deadline=None)
    def test_printed_ast_parses_back_and_evaluates_alike(self, ast, n):
        expr = parse_expression(_show(ast))
        assert expr.ast == ast
        assert _outcome(expr, n) == _outcome(lambda m: _reference(ast, float(m)), n)


def _tree_walk(node, n):
    """The tree-walking evaluator the compiler replaced, kept as its oracle."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "n":
        return n
    if kind == "bin":
        _, op, lhs, rhs = node
        a = _tree_walk(lhs, n)
        b = _tree_walk(rhs, n)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvalError(f"division by zero at n={n}")
            return a / b
        try:
            return math.pow(a, b)
        except OverflowError:
            raise EvalError(f"overflow evaluating '^' at n={n}") from None
        except ValueError as exc:
            raise EvalError(f"domain error evaluating '^' at n={n}: {exc}") from None
    name = node[1]
    if name == "iterlog":
        _, _, k, arg = node
        x = _tree_walk(arg, n)
        try:
            v = iterlog(k, x)
        except DomainError as exc:
            raise EvalError(str(exc)) from None
        if v <= 0.0:
            raise EvalError(
                f"iterlog({k}, {x}) = {v} is not positive; outside this language's domain"
            )
        return v
    x = _tree_walk(node[2], n)
    if name == "ln":
        if x <= 0.0:
            raise EvalError(f"ln of non-positive value {x} at n={n}")
        return math.log(x)
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalError(f"overflow in exp({x})") from None


def _walked(text, ast, n):
    """What calling the expression must give: the tree walk at float(n), if finite."""
    v = _tree_walk(ast, float(n))
    if not math.isfinite(v):
        raise EvalError(f"{text!r} is not finite at n={n}")
    return v


def _result(f, *args):
    try:
        return float.hex(f(*args))
    except EvalError as exc:
        return type(exc), str(exc)


class TestCompiler:
    @given(_ASTS, st.one_of(st.sampled_from([1, 2, 3, 5, 13, 17, 10**6]),
                            st.floats(0.0, 1e6, allow_nan=False)))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_tree_walk(self, ast, n):
        text = _show(ast)
        expr = parse_expression(text)
        assert _result(expr, n) == _result(_walked, text, expr.ast, n)

    @pytest.mark.parametrize("text,n", [
        ("1/(n-5)", 5), ("(n-1)^0.5", 0.5), ("10^n", 400), ("0^(n-3)", 2),
        ("ln(n-3)", 3), ("exp(n)", 1000), ("iterlog(2, n)", 2), ("iterlog(3, n)", 0.5),
        ("n/0 - n", 1), ("exp(n)-exp(n)", 710),
    ])
    def test_error_messages_match_the_tree_walk(self, text, n):
        expr = parse_expression(text)
        outcome = _result(expr, n)
        assert outcome[0] is EvalError
        assert outcome == _result(_walked, text, expr.ast, n)

    def test_long_sum_evaluates_left_to_right(self):
        # 10,000 terms, far more than the interpreter's recursion limit.
        rng = random.Random(10_000)
        coefficients = [rng.uniform(0.0, 10.0) for _ in range(10_000)]
        ops = [rng.choice("+-") for _ in coefficients[1:]]
        text = f"{coefficients[0]!r}/n" + "".join(
            f" {op} {c!r}/n" for op, c in zip(ops, coefficients[1:]))
        total = coefficients[0] / 7.0
        for op, c in zip(ops, coefficients[1:]):
            total = total + c / 7.0 if op == "+" else total - c / 7.0
        assert parse_expression(text)(7).hex() == total.hex()
        assert parse_expression("+".join(["n"] * 3000))(5) == 15_000.0

    def test_long_sum_has_repr_equality_and_hash(self):
        # The text fixes the AST, so repr, == and hash leave the deep tuple out.
        text = "+".join(["n"] * 3000)
        a, b = parse_expression(text), parse_expression(text)
        assert repr(a) == f"Expression(text={text!r})"
        assert a == b and hash(a) == hash(b)
        assert a != parse_expression(text + "+n")
        spec = RatioSpec(ratio=a, delta=b, first_index=1)
        assert repr(a) in repr(spec)
