"""Derived metrics (Section V-D): spreadsheet-like formulas over columns.

A derived metric is defined by a formula that refers to other metrics by
``$n`` (the metric with id *n*), e.g. the paper's floating-point waste::

    waste = cycles x peak_flops_per_cycle - flops      ->   "4 * $0 - $1"

and relative efficiency::

    efficiency = flops / (cycles x peak)               ->   "$1 / (4 * $0)"

The formula language supports:

* column references ``$n`` (value taken in the same inclusive/exclusive
  flavour as the cell being computed);
* numeric literals (including scientific notation), ``+ - * / ^``,
  parentheses, unary minus;
* functions ``abs, sqrt, exp, log, log2, log10, floor, ceil, min, max``;
* constants ``pi`` and ``e``.

Division by zero yields 0.0 rather than an error: a scope that executed
no denominator events has no meaningful ratio, and 0 keeps sorting and
blank-cell display well-behaved (hpcviewer likewise renders such cells
as empty).

Derived metrics compose: a formula may reference another derived column;
reference cycles are detected and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from repro.errors import FormulaError
from repro.core.metrics import MetricDescriptor, MetricKind, MetricTable

__all__ = [
    "parse_formula",
    "evaluate",
    "formula_columns",
    "define_derived",
    "flop_waste_formula",
    "relative_efficiency_formula",
]

# --------------------------------------------------------------------- #
# AST
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Col:
    mid: int


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinaryOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Func:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Num, Col, UnaryOp, BinaryOp, Func]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS: dict[str, tuple[int, Callable]] = {
    "abs": (1, abs),
    "sqrt": (1, lambda x: math.sqrt(x) if x >= 0 else 0.0),
    "exp": (1, math.exp),
    "log": (1, lambda x: math.log(x) if x > 0 else 0.0),
    "log2": (1, lambda x: math.log2(x) if x > 0 else 0.0),
    "log10": (1, lambda x: math.log10(x) if x > 0 else 0.0),
    "floor": (1, math.floor),
    "ceil": (1, math.ceil),
    "min": (2, min),
    "max": (2, max),
}


# --------------------------------------------------------------------- #
# tokenizer
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # num, col, name, op, lparen, rparen, comma, end
    text: str
    pos: int


def _digit(ch: str) -> bool:
    # ASCII only: str.isdigit() accepts characters like '²' that
    # float()/int() reject, which would turn a lex success into a
    # ValueError at parse time
    return "0" <= ch <= "9"


def _tokenize(src: str) -> Iterator[_Token]:
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and _digit(src[j]):
                j += 1
            if j == i + 1:
                raise FormulaError(f"'$' must be followed by a column number (pos {i})")
            yield _Token("col", src[i + 1 : j], i)
            i = j
        elif _digit(ch) or (ch == "." and i + 1 < n and _digit(src[i + 1])):
            j = i
            seen_exp = False
            while j < n:
                c = src[j]
                if _digit(c) or c == ".":
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and (
                    _digit(src[j + 1]) or src[j + 1] in "+-"
                ):
                    seen_exp = True
                    j += 2 if src[j + 1] in "+-" else 1
                else:
                    break
            yield _Token("num", src[i:j], i)
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            yield _Token("name", src[i:j], i)
            i = j
        elif ch in "+-*/^":
            yield _Token("op", ch, i)
            i += 1
        elif ch == "(":
            yield _Token("lparen", ch, i)
            i += 1
        elif ch == ")":
            yield _Token("rparen", ch, i)
            i += 1
        elif ch == ",":
            yield _Token("comma", ch, i)
            i += 1
        else:
            raise FormulaError(f"unexpected character {ch!r} at position {i}")
    yield _Token("end", "", n)


# --------------------------------------------------------------------- #
# parser (recursive descent; ^ is right-associative and binds tightest)
# --------------------------------------------------------------------- #
class _Parser:
    def __init__(self, src: str) -> None:
        self.src = src
        self.tokens = list(_tokenize(src))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise FormulaError(
                f"expected {kind} at position {tok.pos} in {self.src!r}, "
                f"got {tok.text!r}"
            )
        return tok

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaError(
                f"unexpected trailing input {tok.text!r} at position {tok.pos}"
            )
        return expr

    def expr(self) -> Expr:  # additive
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Expr:  # multiplicative
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinaryOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        # unary minus binds looser than ^, so "-2^2" is -(2^2) = -4
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            operand = self.unary()
            return operand if tok.text == "+" else UnaryOp("-", operand)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinaryOp("^", node, self.unary())  # right associative
        return node

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            try:
                return Num(float(tok.text))
            except ValueError:
                raise FormulaError(
                    f"malformed number {tok.text!r} at position {tok.pos}"
                ) from None
        if tok.kind == "col":
            return Col(int(tok.text))
        if tok.kind == "name":
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                arity, _fn = _FUNCTIONS[tok.text]
                self.expect("lparen")
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.expr())
                self.expect("rparen")
                if len(args) != arity:
                    raise FormulaError(
                        f"{tok.text} expects {arity} argument(s), got {len(args)}"
                    )
                return Func(tok.text, tuple(args))
            raise FormulaError(f"unknown identifier {tok.text!r} at position {tok.pos}")
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        raise FormulaError(f"unexpected token {tok.text!r} at position {tok.pos}")


_parse_cache: dict[str, Expr] = {}


def parse_formula(src: str) -> Expr:
    """Parse a derived-metric formula, with caching."""
    if not src or not src.strip():
        raise FormulaError("empty formula")
    ast = _parse_cache.get(src)
    if ast is None:
        ast = _Parser(src).parse()
        _parse_cache[src] = ast
    return ast


# --------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------- #
def evaluate(expr: Expr | str, resolver: Callable[[int], float]) -> float:
    """Evaluate a formula; ``resolver(mid)`` supplies column values."""
    if isinstance(expr, str):
        expr = parse_formula(expr)
    return _eval(expr, resolver)


def _eval(expr: Expr, resolver: Callable[[int], float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Col):
        return float(resolver(expr.mid))
    if isinstance(expr, UnaryOp):
        return -_eval(expr.operand, resolver)
    if isinstance(expr, BinaryOp):
        left = _eval(expr.left, resolver)
        right = _eval(expr.right, resolver)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right != 0.0 else 0.0
        if expr.op == "^":
            try:
                return float(left**right)
            except (OverflowError, ValueError):
                return 0.0
    if isinstance(expr, Func):
        _arity, fn = _FUNCTIONS[expr.name]
        return float(fn(*(_eval(a, resolver) for a in expr.args)))
    raise FormulaError(f"cannot evaluate {expr!r}")  # pragma: no cover


def formula_columns(expr: Expr | str) -> set[int]:
    """The set of column ids a formula references (cycle detection input)."""
    if isinstance(expr, str):
        expr = parse_formula(expr)
    out: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Col):
            out.add(node.mid)
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, Func):
            stack.extend(node.args)
    return out


def define_derived(
    metrics: MetricTable,
    name: str,
    formula: str,
    unit: str = "",
    description: str = "",
    show_percent: bool = False,
) -> MetricDescriptor:
    """Register a derived metric on a metric table.

    The formula is parsed eagerly so malformed definitions fail at
    definition time, and column references are checked against the table
    (a formula may reference any already-registered metric, including
    other derived metrics; self/forward references are impossible because
    the new id is assigned after validation).
    """
    ast = parse_formula(formula)
    for mid in formula_columns(ast):
        metrics.by_id(mid)  # raises MetricError for unknown columns
    return metrics.add(
        name,
        unit=unit,
        kind=MetricKind.DERIVED,
        formula=formula,
        description=description,
        show_percent=show_percent,
    )


# --------------------------------------------------------------------- #
# the paper's canonical derived metrics (Section V-D)
# --------------------------------------------------------------------- #
def flop_waste_formula(cycles_mid: int, flops_mid: int, peak_flops_per_cycle: float) -> str:
    """Floating-point waste: cycles x peak - actual FLOPs executed."""
    return f"{peak_flops_per_cycle} * ${cycles_mid} - ${flops_mid}"


def relative_efficiency_formula(
    cycles_mid: int, flops_mid: int, peak_flops_per_cycle: float
) -> str:
    """Relative efficiency: measured FLOPS / potential peak FLOPS."""
    return f"${flops_mid} / ({peak_flops_per_cycle} * ${cycles_mid})"
