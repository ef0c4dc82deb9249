import math

import numpy as np
import pytest

from torsionflow.exprlang import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    eval_expr,
    parse,
    pretty,
)


def test_precedence_sum_product():
    e = parse("1 + 2 * 3")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.rhs, BinOp) and e.rhs.op == "*"


def test_precedence_unary_minus_binds_tighter_than_product():
    # -x1 * x2 parses as (-x1) * x2
    e = parse("-x1 * x2")
    assert isinstance(e, BinOp) and e.op == "*"
    assert isinstance(e.lhs, Neg)


def test_power_binds_tighter_than_unary_minus():
    # -x1^2 is -(x1^2)
    e = parse("-x1^2")
    assert isinstance(e, Neg)
    assert isinstance(e.arg, Pow) and e.arg.exponent == 2
    v = eval_expr(e, [3.0], 1, 2).value
    assert v == -9.0


def test_power_chain_left_assoc():
    # (x1^2)^3 = x1^6
    e = parse("x1^2^3")
    v = eval_expr(e, [2.0], 1, 1).value
    assert v == 64.0


def test_constants_fold_at_parse():
    e = parse("pi")
    assert isinstance(e, Num) and e.value == math.pi
    e2 = parse("e")
    assert isinstance(e2, Num) and e2.value == math.e


def test_negative_integer_exponent():
    e = parse("x1^-2")
    assert isinstance(e, Pow) and e.exponent == -2
    assert eval_expr(e, [2.0], 1, 0).value == pytest.approx(0.25)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^0.5")
    with pytest.raises(ParseError):
        parse("x1^x2")


def test_overlong_exponent_literal_is_a_parse_error():
    # beyond Python's integer string conversion limit int() raises ValueError
    for src in ("x1^" + "9" * 5000, "x1^-" + "9" * 5000):
        with pytest.raises(ParseError, match="too long") as exc:
            parse(src)
        assert exc.value.offset == src.index("9")
    assert parse("x1^" + "9" * 30).exponent == int("9" * 30)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("x1 + @")
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse("sin x1")
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse("x1 + + x2")  # leading + is not a unary operator here
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse("(x1 + x2")
    assert exc.value.offset == 8
    with pytest.raises(ParseError) as exc:
        parse("x1 x2")
    assert exc.value.offset == 3


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("y1 + 2")
    with pytest.raises(ParseError):
        parse("x0")  # coordinates are one-based


def test_eval_matches_numpy():
    cases = [
        ("x1^2 + 3*x2", lambda p: p[0] ** 2 + 3 * p[1]),
        ("sin(x1)*cos(x2) - exp(x1/4)", lambda p: np.sin(p[0]) * np.cos(p[1]) - np.exp(p[0] / 4)),
        ("log(2 + x1^2) / sqrt(1 + x2^2)", lambda p: np.log(2 + p[0] ** 2) / np.sqrt(1 + p[1] ** 2)),
        ("pi * x1 - e", lambda p: np.pi * p[0] - np.e),
        ("(x1 - x2)^3 / (1 + x1^2)", lambda p: (p[0] - p[1]) ** 3 / (1 + p[0] ** 2)),
    ]
    rng = np.random.default_rng(7)
    for src, fn in cases:
        expr = parse(src)
        for _ in range(4):
            p = rng.uniform(-0.8, 0.8, size=2)
            jet = eval_expr(expr, p, 2, 3)
            assert jet.value == pytest.approx(fn(p), rel=1e-12)


def test_eval_derivatives_spot_check():
    # d/dx1 of sin(x1*x2) is x2*cos(x1*x2)
    expr = parse("sin(x1*x2)")
    p = np.array([0.4, -0.7])
    jet = eval_expr(expr, p, 2, 3)
    assert jet.partial((1, 0)) == pytest.approx(p[1] * np.cos(p[0] * p[1]), rel=1e-12)
    assert jet.partial((0, 1)) == pytest.approx(p[0] * np.cos(p[0] * p[1]), rel=1e-12)


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_expr(parse("x3"), [0.0, 0.0], 2, 2)
    with pytest.raises(EvalError):
        eval_expr(parse("log(x1)"), [-1.0], 1, 2)
    with pytest.raises(EvalError):
        eval_expr(parse("1 / x1"), [0.0], 1, 2)
    with pytest.raises(EvalError):
        eval_expr(parse("sqrt(x1 - 2)"), [1.0], 1, 2)


def _random_expr(rng, depth, nvars):
    roll = rng.integers(0, 7 if depth > 0 else 2)
    if roll == 0:
        return Num(value=float(np.round(rng.uniform(0.5, 3.0), 3)))
    if roll == 1:
        return Var(index=int(rng.integers(1, nvars + 1)))
    if roll == 2:
        return Neg(arg=_random_expr(rng, depth - 1, nvars))
    if roll == 3:
        fn = ("sin", "cos", "exp")[rng.integers(0, 3)]
        return Call(fn=fn, arg=_random_expr(rng, depth - 1, nvars))
    if roll == 4:
        return Pow(base=_random_expr(rng, depth - 1, nvars), exponent=int(rng.integers(2, 4)))
    op = "+-*"[rng.integers(0, 3)]
    return BinOp(
        op=op,
        lhs=_random_expr(rng, depth - 1, nvars),
        rhs=_random_expr(rng, depth - 1, nvars),
    )


def test_pretty_parse_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(50):
        e = _random_expr(rng, 4, 3)
        assert parse(pretty(e)) == e


def test_round_trip_preserves_value():
    rng = np.random.default_rng(21)
    for _ in range(20):
        e = _random_expr(rng, 3, 2)
        p = rng.uniform(-0.5, 0.5, size=2)
        v1 = eval_expr(e, p, 2, 2).value
        v2 = eval_expr(parse(pretty(e)), p, 2, 2).value
        assert v1 == pytest.approx(v2, rel=1e-14, abs=1e-14)


def test_nesting_depth_is_bounded():
    # deep input is a parse error raised before the interpreter stack overflows
    for src in (
        "(" * 3000 + "x1" + ")" * 3000,
        "sin(" * 3000 + "x1" + ")" * 3000,
        "-" * 3000 + "x1",
        "+".join(["x1"] * 5000),
    ):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(src)
    # 50 levels still parse and evaluate
    nested = "1 + (" * 50 + "x1" + ")" * 50
    value = eval_expr(parse(nested), [0.25], 1, 0)
    assert value.value == pytest.approx(50.25)
    sines = eval_expr(parse("sin(" * 50 + "x1" + ")" * 50), [0.5], 1, 0)
    expected = 0.5
    for _ in range(50):
        expected = math.sin(expected)
    assert sines.value == pytest.approx(expected, rel=1e-14)
    chain = parse("+".join(["x1"] * MAX_DEPTH))
    assert eval_expr(chain, [0.5], 1, 0).value == pytest.approx(0.5 * MAX_DEPTH)
