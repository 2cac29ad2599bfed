"""A small arithmetic-expression grammar for potentials V(q) and frequencies w(t).

Grammar (one free variable per context):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative, binds above unary -
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the declared variable, the constants pi and e, and the
functions sin, cos, exp, sqrt, log.  A symbolic-derivative pass produces the
derivative tree; both trees are compiled once, at parse time, into nested
closures that evaluate to floats with explicit domain errors (sin or cos of an
infinity, sqrt of a negative, log of a non-positive, division by zero, invalid
power; an exp or ^ overflow stays an OverflowError) naming the offending operator's
byte offset and, when given, the key the expression was read from.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import ExpressionError
from .model import ScalarFunction

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "sqrt": math.sqrt, "log": math.log}
# the arguments for which each function raises math's ValueError
_DOMAIN_ERRORS = {"sin": "infinite", "cos": "infinite", "sqrt": "negative",
                  "log": "non-positive"}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExpressionError(f"unexpected character {text[i]!r}", position=i)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"
    pos: int = 0


Node = Union[Num, Var, Const, Unary, Bin, Call]


def _compile(node: Node, where: str) -> Callable[[float], float]:
    """A closure computing `node` at x: the float operations of a tree walk,
    left operand first, with the tree's domain errors and offsets after `where`."""
    if isinstance(node, (Num, Const)):
        c = node.value if isinstance(node, Num) else _CONSTANTS[node.name]
        return lambda x: c
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Unary):
        arg = _compile(node.arg, where)
        return lambda x: -arg(x)
    pos = node.pos
    if isinstance(node, Call):
        arg, fn, name = _compile(node.arg, where), _FUNCTIONS[node.fn], node.fn

        def call(x):
            v = arg(x)
            try:
                return fn(v)
            except ValueError:  # math's domain error
                raise ExpressionError(f"{where}{name} of {_DOMAIN_ERRORS[name]} value {v!r}",
                                      position=pos) from None
            except OverflowError as exc:  # exp only; stays a float overflow
                raise OverflowError(f"{where}{name} of {v!r} overflows: {exc} "
                                    f"(at offset {pos})") from None
        return call
    left, right = _compile(node.left, where), _compile(node.right, where)
    if node.op == "+":
        return lambda x: left(x) + right(x)
    if node.op == "-":
        return lambda x: left(x) - right(x)
    if node.op == "*":
        return lambda x: left(x) * right(x)
    if node.op == "/":
        def div(x):
            a, b = left(x), right(x)
            if b == 0:
                raise ExpressionError(f"{where}division by zero", position=pos)
            return a / b
        return div

    def power(x):
        a, b = left(x), right(x)
        try:
            return math.pow(a, b)
        except ValueError as exc:  # math's domain error
            raise ExpressionError(f"{where}invalid power {a!r}^{b!r}: {exc}", position=pos)
        except OverflowError as exc:  # a float overflow, like exp's
            raise OverflowError(f"{where}power {a!r}^{b!r} overflows: {exc} "
                                f"(at offset {pos})") from None
    return power


# Smart constructors keep derivative trees small and avoid evaluating
# annihilated subtrees (e.g. 0 * log(q) at q < 0).

def _num(v) -> Node:
    return Num(float(v))


def _is_zero(n: Node) -> bool:
    return isinstance(n, Num) and n.value == 0.0


def _is_one(n: Node) -> bool:
    return isinstance(n, Num) and n.value == 1.0


def _add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    if _is_zero(a):
        return Unary("-", b)
    return Bin("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return _num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return Bin("*", a, b)


def _div(a: Node, b: Node, pos: int = 0) -> Node:
    if _is_zero(a):
        return _num(0.0)
    if _is_one(b):
        return a
    return Bin("/", a, b, pos)


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num, Const)):
        return False
    if isinstance(node, Unary):
        return _contains_var(node.arg)
    if isinstance(node, Call):
        return _contains_var(node.arg)
    return _contains_var(node.left) or _contains_var(node.right)


def _diff(node: Node) -> Node:
    if isinstance(node, (Num, Const)):
        return _num(0.0)
    if isinstance(node, Var):
        return _num(1.0)
    if isinstance(node, Unary):
        return _sub(_num(0.0), _diff(node.arg))
    if isinstance(node, Call):
        inner = _diff(node.arg)
        if node.fn == "sin":
            outer = Call("cos", node.arg, node.pos)
        elif node.fn == "cos":
            outer = Unary("-", Call("sin", node.arg, node.pos))
        elif node.fn == "exp":
            outer = node
        elif node.fn == "sqrt":
            outer = _div(_num(0.5), node, node.pos)
        else:  # log
            outer = _div(_num(1.0), node.arg, node.pos)
        return _mul(outer, inner)
    if node.op == "+":
        return _add(_diff(node.left), _diff(node.right))
    if node.op == "-":
        return _sub(_diff(node.left), _diff(node.right))
    if node.op == "*":
        return _add(_mul(_diff(node.left), node.right),
                    _mul(node.left, _diff(node.right)))
    if node.op == "/":
        num = _sub(_mul(_diff(node.left), node.right),
                   _mul(node.left, _diff(node.right)))
        return _div(num, Bin("*", node.right, node.right, node.pos), node.pos)
    # power: constant exponents get the plain rule (valid for negative bases);
    # variable exponents use a^b (b' log a + b a'/a), restricted to a > 0.
    if not _contains_var(node.right):
        db = _sub(node.right, _num(1.0))
        return _mul(_mul(node.right, Bin("^", node.left, db, node.pos)),
                    _diff(node.left))
    term1 = _mul(_diff(node.right), Call("log", node.left, node.pos))
    term2 = _mul(node.right, _div(_diff(node.left), node.left, node.pos))
    return _mul(node, _add(term1, term2))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variable: str):
        self.tokens = tokens
        self.i = 0
        self.variable = variable

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r}, found {tok.text or 'end of input'!r}",
                                  position=tok.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}",
                                  position=tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            node = Bin(tok.text, node, self.term(), tok.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            node = Bin(tok.text, node, self.factor(), tok.pos)
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("-", self.factor(), tok.pos)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Bin("^", node, self.factor(), tok.pos)
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text), tok.pos)
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", position=tok.pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg, tok.pos)
            if name == self.variable:
                return Var(name, tok.pos)
            if name in _CONSTANTS:
                return Const(name, tok.pos)
            raise ExpressionError(f"unknown identifier {name!r}", position=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}",
                              position=tok.pos)


@dataclass(frozen=True)
class Expression:
    """A parsed expression in one variable with its symbolic derivative.

    Both trees are compiled into closures once, on construction.  A `key` such
    as ``model.V`` prefixes their errors and takes no part in equality."""

    text: str
    variable: str
    ast: Node
    derivative_ast: Node
    key: str = field(default="", compare=False)
    _value: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _slope: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        where = f"{self.key}: " if self.key else ""
        object.__setattr__(self, "_value", _compile(self.ast, where))
        object.__setattr__(self, "_slope", _compile(self.derivative_ast, where))

    def __call__(self, x: float) -> float:
        return float(self._value(float(x)))

    def derivative(self, x: float) -> float:
        return float(self._slope(float(x)))

    def is_constant(self) -> bool:
        return not _contains_var(self.ast)

    def __reduce__(self):  # closures do not pickle; the text re-parses to them
        return parse_expression, (self.text, self.variable, self.key)

    def as_scalar_function(self) -> ScalarFunction:
        return ScalarFunction(f=self.__call__, df=self.derivative,
                              is_constant=self.is_constant())

    def __eq__(self, other):
        return (isinstance(other, Expression) and other.text == self.text
                and other.variable == self.variable)

    def __hash__(self):
        return hash((self.text, self.variable))


def parse_expression(text: str, variable: str, key: str = "") -> Expression:
    """Parse `text` in the single free `variable`; `key` names it in evaluation errors."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", position=0)
    ast = _Parser(_tokenize(text), variable).parse()
    return Expression(text=text, variable=variable, ast=ast,
                      derivative_ast=_diff(ast), key=key)
