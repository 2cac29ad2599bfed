"""A small arithmetic-expression grammar for potentials V(q) and frequencies w(t).

Grammar (one free variable per context):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative, binds above unary -
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the declared variable, the constants pi and e, and the
functions sin, cos, exp, sqrt, log.  The expression and its symbolic
derivative are one DAG of hash-consed nodes, compiled once, at parse time, into
straight-line functions; the second derivative is differentiated from the
first and compiled on its first call.  Each does a tree walk's float operations
with its domain errors (sin or cos of an infinity, sqrt of a negative, log of a
non-positive, division by zero, invalid power; an exp or ^ overflow stays an
OverflowError) naming the offending operator's byte offset and, when given,
the expression's key.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import ExpressionError

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
# Hash-consed DAG
# ---------------------------------------------------------------------------

# the operators that can raise; their nodes key on their offset too
_RAISING = {"/", "^", *_FUNCTIONS}


class Node:
    """A node built by `_Dag.node`: `op` is 'num' or 'const' (`value` is the float),
    'var' (`value` is its name), 'neg', one of + - * / ^, or a function name;
    `pos` is the byte offset of an operator in `_RAISING`, else 0."""

    __slots__ = ("op", "args", "value", "pos", "has_var")


def _is_num(n: Node, v: float) -> bool:
    return n.op == "num" and n.value == v


class _Dag:
    """The intern table of one parse: a node equal to one built before is that
    node, so equal subtrees are shared and `diff` runs once per distinct node."""

    def __init__(self):
        self.nodes: dict = {}
        self.derivatives: dict = {}

    def node(self, op: str, *args: Node, value=None, pos: int = 0) -> Node:
        pos = pos if op in _RAISING else 0
        key = (op, args, repr(value), pos)  # repr keeps -0.0 apart from 0.0
        found = self.nodes.get(key)
        if found is None:
            found = self.nodes[key] = Node()  # no __init__, so no frame on the parser's stack
            found.op, found.args, found.value, found.pos = op, args, value, pos
            found.has_var = op == "var" or any(map(operator.attrgetter("has_var"), args))
        return found

    # Smart constructors keep derivatives small and avoid evaluating
    # annihilated subtrees (e.g. 0 * log(q) at q < 0).

    def num(self, v) -> Node:
        return self.node("num", value=float(v))

    def add(self, a: Node, b: Node) -> Node:
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value + b.value)
        return self.node("+", a, b)

    def sub(self, a: Node, b: Node) -> Node:
        if _is_num(b, 0.0):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value - b.value)
        if _is_num(a, 0.0):
            return self.node("neg", b)
        return self.node("-", a, b)

    def mul(self, a: Node, b: Node) -> Node:
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return self.num(0.0)
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value * b.value)
        return self.node("*", a, b)

    def div(self, a: Node, b: Node, pos: int) -> Node:
        if _is_num(a, 0.0):
            return self.num(0.0)
        if _is_num(b, 1.0):
            return a
        return self.node("/", a, b, pos=pos)

    def diff(self, root: Node) -> Node:
        """d(root)/dx.  Each distinct node's derivative is built once, after its
        arguments', by a loop: only the parser recurses."""
        done = self.derivatives
        stack = [root]
        while stack:
            node = stack[-1]
            pending = [a for a in node.args if a not in done]
            if pending:
                stack.extend(pending)
            elif stack.pop() not in done:
                done[node] = self._rule(node, *(done[a] for a in node.args))
        return done[root]

    def _rule(self, node: Node, da: Node = None, db: Node = None) -> Node:
        """d(node)/dx from its arguments' derivatives `da` and `db`."""
        op, pos = node.op, node.pos
        if op in ("num", "const", "var"):
            return self.num(1.0 if op == "var" else 0.0)
        a, b = node.args[0], node.args[-1]   # one argument is both
        if op == "neg":
            return self.sub(self.num(0.0), da)
        if op in _FUNCTIONS:
            if op == "sin":
                outer = self.node("cos", a, pos=pos)
            elif op == "cos":
                outer = self.node("neg", self.node("sin", a, pos=pos))
            elif op == "exp":
                outer = node
            elif op == "sqrt":
                outer = self.div(self.num(0.5), node, pos)
            else:  # log
                outer = self.div(self.num(1.0), a, pos)
            return self.mul(outer, da)
        if op == "+":
            return self.add(da, db)
        if op == "-":
            return self.sub(da, db)
        if op == "*":
            return self.add(self.mul(da, b), self.mul(a, db))
        if op == "/":
            top = self.sub(self.mul(da, b), self.mul(a, db))
            return self.div(top, self.node("*", b, b), pos)
        # power: constant exponents get the plain rule (valid for negative
        # bases); variable exponents use a^b (b' log a + b a'/a), for a > 0.
        if not b.has_var:
            return self.mul(self.mul(b, self.node("^", a, self.sub(b, self.num(1.0)), pos=pos)),
                            da)
        term1 = self.mul(db, self.node("log", a, pos=pos))
        term2 = self.mul(b, self.div(da, a, pos))
        return self.mul(node, self.add(term1, term2))


# ---------------------------------------------------------------------------
# Straight-line code
# ---------------------------------------------------------------------------

_FORMS = {"neg": "-{}", "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}",
          "^": "_pow({}, {})", **{fn: f"_{fn}({{}})" for fn in _FUNCTIONS}}
_GLOBALS = {"_pow": math.pow, "inf": math.inf, "nan": math.nan,
            **{f"_{fn}": f for fn, f in _FUNCTIONS.items()}}


def _compile(root: Node, variables: tuple, where: str) -> Callable[..., float]:
    """`root` as a function of the `variables` (argument i is ``x{i}``): SSA
    source with one line per distinct node, in the order a tree walk, left
    operand first, first reaches it.  So it does the walk's float operations
    and its first error is the walk's; `_error` rebuilds that error's text."""
    text, lines, body = {}, {}, []   # node -> its name or literal; line -> node
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in text:
            continue
        if node.op == "var":
            text[node] = f"x{variables.index(node.value)}"
        elif node.op in ("num", "const"):  # a literal, or inf or nan; unary - binds first
            text[node] = repr(node.value)
        elif not expanded:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
        else:
            text[node] = name = f"t{len(body)}"
            form = _FORMS[node.op].format(*(text[a] for a in node.args))
            body.append(f"        {name} = {form}")
            lines[len(body) + 2] = node   # after the `def` and `try` lines
    params = ", ".join(f"x{i}" for i in range(len(variables)))
    source = "\n".join([f"def f({params}):", "    try:", *body,
                        f"        return {text[root]}",
                        "    except (ArithmeticError, ValueError) as exc:",
                        "        raise _error(exc) from None"])
    namespace = dict(_GLOBALS, _error=functools.partial(_error, where, lines, text))
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["f"]


def _error(where: str, lines: dict, text: dict, exc: Exception) -> Exception:
    """The error of the node on the line that raised `exc`, with the text,
    operands and offset a tree walk gives it, after `where`."""
    tb = exc.__traceback__
    node, env = lines[tb.tb_lineno], tb.tb_frame.f_locals
    values = [x.value if x.op in ("num", "const") else env[text[x]] for x in node.args]
    a, b = values[0], values[-1]   # a function's one argument is both
    op, pos = node.op, node.pos
    if op == "/":
        return ExpressionError(f"{where}division by zero", position=pos)
    if op == "^":
        if isinstance(exc, ValueError):  # math's domain error
            return ExpressionError(f"{where}invalid power {a!r}^{b!r}: {exc}", position=pos)
        return OverflowError(f"{where}power {a!r}^{b!r} overflows: {exc} (at offset {pos})")
    if isinstance(exc, ValueError):  # math's domain error
        return ExpressionError(f"{where}{op} of {_DOMAIN_ERRORS[op]} value {a!r}",
                               position=pos)
    return OverflowError(f"{where}{op} of {a!r} overflows: {exc} (at offset {pos})")  # exp


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variable: str, dag: _Dag):
        self.tokens = tokens
        self.i = 0
        self.variable = variable
        self.dag = dag

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
            node = self.dag.node(tok.text, node, self.term(), pos=tok.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            node = self.dag.node(tok.text, node, self.factor(), pos=tok.pos)
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return self.dag.node("neg", self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return self.dag.node("^", node, self.factor(), pos=tok.pos)
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return self.dag.node("num", value=float(tok.text))
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", position=tok.pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return self.dag.node(name, arg, pos=tok.pos)
            if name == self.variable:
                return self.dag.node("var", value=name)
            if name in _CONSTANTS:
                return self.dag.node("const", value=_CONSTANTS[name])
            raise ExpressionError(f"unknown identifier {name!r}", position=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}",
                              position=tok.pos)


@dataclass(frozen=True)
class Expression:
    """A parsed expression in one variable with its symbolic derivatives.

    The value and first-derivative DAGs are compiled into straight-line
    functions once, on construction; the second derivative, the derivative of
    `derivative_ast`, is built and compiled on the first `second_derivative`
    call.  A `key` such as ``model.V`` prefixes the errors of all three and
    takes no part in equality."""

    text: str
    variable: str
    ast: Node = field(repr=False)
    derivative_ast: Node = field(repr=False)
    key: str = field(default="", compare=False)
    _value: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _slope: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _curvature: Callable[[float], float] = field(default=None, init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_value", _compile(self.ast, (self.variable,), self._where))
        object.__setattr__(self, "_slope",
                           _compile(self.derivative_ast, (self.variable,), self._where))

    @property
    def _where(self) -> str:
        return f"{self.key}: " if self.key else ""

    def __call__(self, x: float) -> float:
        return self._value(float(x))

    def derivative(self, x: float) -> float:
        return self._slope(float(x))

    def second_derivative(self, x: float) -> float:
        if self._curvature is None:
            object.__setattr__(self, "_curvature", _compile(
                _Dag().diff(self.derivative_ast), (self.variable,), self._where))
        return self._curvature(float(x))

    def __reduce__(self):  # compiled code does not pickle; the text re-parses to it
        return parse_expression, (self.text, self.variable, self.key)

    def __eq__(self, other):
        return (isinstance(other, Expression) and other.text == self.text
                and other.variable == self.variable)

    def __hash__(self):
        return hash((self.text, self.variable))


def parse_expression(text: str, variable: str, key: str = "") -> Expression:
    """Parse `text` in the single free `variable`; `key` names it in evaluation
    errors.  Nesting too deep for the recursion limit is an error at offset 0:
    the depth reached depends on the caller's stack, so no other offset is stable."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", position=0)
    dag = _Dag()
    try:
        ast = _Parser(_tokenize(text), variable, dag).parse()
        return Expression(text=text, variable=variable, ast=ast,
                          derivative_ast=dag.diff(ast), key=key)
    except RecursionError:
        raise ExpressionError("expression nested too deeply", position=0) from None


def as_expression(obj, variable: str, name: str):
    """`obj` as a function of `variable` for the built-in models and solvers:
    an object with ``__call__(x)``, ``derivative(x)`` and
    ``second_derivative(x)``, such as an `Expression`, as it is, or a finite
    number c as ``parse_expression(repr(float(c)), variable, name)``.  Anything
    else (a bare callable, a string, a bool, a non-finite number) is an error
    naming `name`."""
    if callable(obj) and callable(getattr(obj, "derivative", None)) \
            and callable(getattr(obj, "second_derivative", None)):
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise TypeError(f"{name} must be an expression in {variable} or a finite number, "
                        f"got {type(obj).__name__}")
    if not math.isfinite(obj):
        raise ValueError(f"{name} must be finite, got {obj!r}")
    return parse_expression(repr(float(obj)), variable, name)
