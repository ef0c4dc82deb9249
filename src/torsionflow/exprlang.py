"""A small scalar expression language over chart coordinates.

Grammar, lowest precedence first::

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' integer)*
    atom    := number | 'pi' | 'e' | variable | call | '(' sum ')'
    call    := ('sin'|'cos'|'exp'|'log'|'sqrt') '(' sum ')'

Variables are ``x1``, ``x2``, ... (one-based).  Exponents must be integer
literals; they are lowered to repeated multiplication at evaluation time,
so no fractional powers sneak in.  ``pi`` and ``e`` fold to numeric
literals at parse time.

Nesting is bounded by MAX_DEPTH: parentheses, calls and unary minus may
nest at most that deep, and so may the parsed tree (a chain of binary
operators is as deep as it is long).  Parsing, evaluation and
``pretty`` recurse once per level, so the bound turns input that would
overflow the interpreter stack into a parse error.

Parse errors carry the byte offset of the offending token and a short
description of what was expected.  Kept for the tests only: ``pretty``
(the parser's round-trip oracle).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .jets import JetField, jet_space

__all__ = [
    "ParseError",
    "EvalError",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "Pow",
    "parse",
    "pretty",
    "eval_expr",
    "MAX_DEPTH",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# parsing recurses about five frames per parenthesis level, so 100 levels
# stay well inside Python's default recursion limit of 1000
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Expr:
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    index: int = 1  # one-based coordinate index


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Call(Expr):
    fn: str = ""
    arg: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = "+"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None  # type: ignore[assignment]
    exponent: int = 1


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            offset = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def nest(self, pos: int):
        """Count one nesting level; callers undo it after the nested parse."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        _check_tree_depth(e)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.product()
                e = BinOp(pos=pos, op=text, lhs=e, rhs=rhs)
            else:
                return e

    def product(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                e = BinOp(pos=pos, op=text, lhs=e, rhs=rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.nest(pos)
            arg = self.factor()
            self.depth -= 1
            return Neg(pos=pos, arg=arg)
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                nkind, ntext, npos = self.peek()
                sign = 1
                if nkind == "op" and ntext == "-":
                    self.advance()
                    sign = -1
                    nkind, ntext, npos = self.peek()
                if nkind != "num" or any(c in ntext for c in ".eE"):
                    raise ParseError("exponent must be an integer literal", npos)
                self.advance()
                try:
                    exponent = int(ntext)
                except ValueError as err:
                    raise ParseError("exponent literal is too long", npos) from err
                e = Pow(pos=pos, base=e, exponent=sign * exponent)
            else:
                return e

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(pos=pos, value=float(text))
        if kind == "name":
            if text in CONSTANTS:
                return Num(pos=pos, value=CONSTANTS[text])
            if text in FUNCTIONS:
                self.expect_op("(")
                self.nest(pos)
                arg = self.sum()
                self.depth -= 1
                self.expect_op(")")
                return Call(pos=pos, fn=text, arg=arg)
            m = re.fullmatch(r"x([1-9]\d*)", text)
            if m:
                return Var(pos=pos, index=int(m.group(1)))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            self.nest(pos)
            e = self.sum()
            self.depth -= 1
            self.expect_op(")")
            return e
        raise ParseError(
            "expected a number, variable, function call or parenthesis", pos
        )


def _check_tree_depth(expr: Expr) -> None:
    """Reject trees deeper than MAX_DEPTH, walked without recursion."""
    stack = [(expr, 1)]
    while stack:
        e, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", e.pos)
        if isinstance(e, BinOp):
            stack += [(e.lhs, depth + 1), (e.rhs, depth + 1)]
        elif isinstance(e, (Neg, Call)):
            stack.append((e.arg, depth + 1))
        elif isinstance(e, Pow):
            stack.append((e.base, depth + 1))


def parse(src: str) -> Expr:
    """Parse source text into an expression tree."""
    return _Parser(src).parse()


def pretty(expr: Expr) -> str:
    """Render an expression tree back to parseable source.

    Fully parenthesized except for atoms, so precedence never needs to be
    reconstructed; ``parse(pretty(e))`` equals ``e`` up to token positions.
    """
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Neg):
        return f"(-{pretty(expr.arg)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({pretty(expr.arg)})"
    if isinstance(expr, BinOp):
        return f"({pretty(expr.lhs)} {expr.op} {pretty(expr.rhs)})"
    if isinstance(expr, Pow):
        exp = expr.exponent
        shown = f"(-{-exp})" if exp < 0 else str(exp)
        return f"({pretty(expr.base)} ^ {shown})"
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expr(expr: Expr, point, dim: int, degree: int) -> JetField:
    """Evaluate an expression to a scalar jet of the given dimension and degree.

    ``point`` supplies the coordinate values, shape ``(dim,)`` or a block
    ``(k, dim)``; a block gives a field of shape ``(k,)``, and each node is
    evaluated once for the whole block.  Variables beyond ``dim`` are an
    evaluation error, as are domain faults (reported with the offset of
    the subexpression that raised them).
    """
    point = np.asarray(point, dtype=float)
    if point.shape[-1:] != (dim,):
        raise EvalError(f"point must have {dim} coordinates", 0)
    space = jet_space(dim, degree)
    x = JetField.variables(space, point)

    def rec(e: Expr) -> JetField:
        if isinstance(e, Num):
            return JetField.constants(space, e.value)
        if isinstance(e, Var):
            if not 1 <= e.index <= dim:
                raise EvalError(
                    f"variable x{e.index} out of range for dimension {dim}", e.pos
                )
            return x.entry(e.index - 1)
        if isinstance(e, Neg):
            return -rec(e.arg)
        if isinstance(e, Call):
            arg = rec(e.arg)
            try:
                return arg.fn(e.fn)
            except ValueError as err:
                raise EvalError(f"{e.fn}: {err}", e.pos) from err
        if isinstance(e, BinOp):
            lhs, rhs = rec(e.lhs), rec(e.rhs)
            try:
                return _BINARY[e.op](lhs, rhs)
            except ValueError as err:
                raise EvalError(f"operator {e.op}: {err}", e.pos) from err
        if isinstance(e, Pow):
            base = rec(e.base)
            try:
                return base**e.exponent
            except ValueError as err:
                raise EvalError(f"power: {err}", e.pos) from err
        raise TypeError(f"not an expression node: {e!r}")

    out = rec(expr)  # a constant expression has no point axes yet
    return JetField(out.space, np.broadcast_to(out.data, point.shape[:-1] + out.data.shape[-1:]).copy())
