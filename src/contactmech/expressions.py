"""A small arithmetic-expression grammar for potentials V(q), frequencies w(t)
and the built-in Hamiltonians H(q, p, S, t),

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative, binds above unary -
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

is parsed in one loop by operator precedence over an operand stack and an
operator stack (`_parse`), so no depth of nesting recurses.

Identifiers are the declared variables, the constants pi and e, and the
functions sin, cos, exp, sqrt, log; a template (`parse_template`) also names
parameters, bound with its code, leaves, functions whose derivatives are the
leaves of the next order, the subexpressions its earlier texts name, and
inlined texts.  An expression and its symbolic derivatives are one DAG of
hash-consed nodes, turned into straight-line functions.  The code is
compiled once per shape per process, and each expression's constants are put
into its own copy.  Each does a tree walk's float operations with its domain
errors (sin or cos of an infinity, sqrt of a negative, log of a non-positive,
division by zero, invalid power; an exp or ^ overflow stays an OverflowError)
naming the offending operator's byte offset and, when given, its text's key.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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


def _tokenize(text: str) -> list:
    """The (kind, text, offset) tokens of `text`, kind 'num', 'ident', 'op'
    or, last, 'end' with the text ""."""
    tokens, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExpressionError(f"unexpected character {text[i]!r}", position=i)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Hash-consed DAG
# ---------------------------------------------------------------------------

# the operators that can raise; their nodes key on their offset too
_RAISING = {"/", "^", *_FUNCTIONS}
_VAR, _PARAM, _LITERAL = 1, 2, 4   # the bits of `Node.free`
_FREE = {"var": _VAR, "param": _PARAM, "literal": _LITERAL}


class Node:
    """A node built by `_Dag.node`: `op` is 'num' or 'const' (`value` is the float),
    'var', 'param' or 'literal' (`value` is its name), 'neg', one of + - * / ^,
    a function name, 'leaf' (`value` is the leaf's name and the order of its
    derivative) or 'inline' (`value` is its text's variable); `pos` is the byte
    offset of an operator in `_RAISING`, paired with an inlined text's error
    prefix, else 0; `free` has the bit of each kind of name it depends on."""

    __slots__ = ("op", "args", "value", "pos", "free")


def _is_num(n: Node, v: float) -> bool:
    return n.op == "num" and n.value == v


class _Dag:
    """The intern table of one parse: a node equal to one built before is that
    node, so equal subtrees are shared and `diff` runs once per distinct node.
    `tested` holds the nodes of literals alone that a smart constructor tested
    for 0, which it would have dropped had they been the number 0."""

    def __init__(self):
        self.nodes: dict = {}
        self.derivatives: dict = {}
        self.tested: set = set()

    def node(self, op: str, *args: Node, value=None, pos: int = 0) -> Node:
        pos = pos if op in _RAISING else 0
        key = (op, args, repr(value), pos)  # repr keeps -0.0 apart from 0.0
        found = self.nodes.get(key)
        if found is None and op in ("+", "*"):  # commutative: b op a is a op b, first seen
            found = self.nodes.get((op, args[::-1], key[2], pos))
        if found is None:
            found = self.nodes[key] = Node()  # no __init__: one call fewer per node
            found.op, found.args, found.value, found.pos = op, args, value, pos
            found.free = _FREE.get(op, 0)
            for a in args:
                found.free |= a.free
        return found

    # Smart constructors keep derivatives small and avoid evaluating
    # annihilated subtrees (e.g. 0 * log(q) at q < 0).

    def num(self, v) -> Node:
        return self.node("num", value=float(v))

    def zero(self, n: Node) -> bool:
        if n.free & _LITERAL and not n.free & _VAR:
            self.tested.add(n)
        return _is_num(n, 0.0)

    def add(self, a: Node, b: Node) -> Node:
        if self.zero(a):
            return b
        if self.zero(b):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value + b.value)
        return self.node("+", a, b)

    def sub(self, a: Node, b: Node) -> Node:
        if self.zero(b):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value - b.value)
        if self.zero(a):
            return self.node("neg", b)
        return self.node("-", a, b)

    def mul(self, a: Node, b: Node) -> Node:
        if self.zero(a) or self.zero(b):
            return self.num(0.0)
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
        if a.op == "num" and b.op == "num":
            return self.num(a.value * b.value)
        return self.node("*", a, b)

    def div(self, a: Node, b: Node, pos: int) -> Node:
        if self.zero(a):
            return self.num(0.0)
        if _is_num(b, 1.0):
            return a
        return self.node("/", a, b, pos=pos)

    def diff(self, root: Node, x: str = None) -> Node:
        """d(root)/dx, x None in a DAG of one variable.  Each distinct node's
        derivative is built once, after its arguments', by a loop, so no
        depth of nesting recurses."""
        done = self.derivatives.setdefault(x, {})
        stack = [root]
        while stack:
            node = stack[-1]
            pending = [a for a in node.args if a not in done]
            if pending:
                stack.extend(pending)
            elif stack.pop() not in done:
                done[node] = self._rule(node, x, *(done[a] for a in node.args))
        return done[root]

    def _rule(self, node: Node, x: str, da: Node = None, db: Node = None) -> Node:
        """d(node)/dx from its arguments' derivatives `da` and `db`."""
        op, pos = node.op, node.pos
        if not node.args:
            return self.num(1.0 if op == "var" and x in (None, node.value) else 0.0)
        a, b = node.args[0], node.args[-1]   # one argument is both
        if op == "neg":
            return self.sub(self.num(0.0), da)
        if op == "leaf":
            name, order = node.value
            return self.mul(self.node("leaf", a, value=(name, order + 1)), da)
        if op == "inline":  # as a leaf's: opaque, and 0 in any other variable than its own
            return self.node(op, da, value=node.value) if x == node.value else self.num(0.0)
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
            if b.free == _PARAM:  # so (p + p)/(2*m) is p/m exactly
                return self.div(da, b, pos)
            top = self.sub(self.mul(da, b), self.mul(a, db))
            return self.div(top, self.node("*", b, b), pos)
        # power: constant exponents get the plain rule (valid for negative
        # bases); variable exponents use a^b (b' log a + b a'/a), for a > 0.
        if not b.free & _VAR:
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
_GLOBALS = {"_pow": math.pow, "_div": operator.truediv,
            **{f"_{fn}": f for fn, f in _FUNCTIONS.items()}}
_FOLDS = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


@functools.lru_cache(maxsize=256)
def _template(source: str) -> types.CodeType:
    """The code object of the function `source` defines, compiled once per
    source text; its constants are the placeholders ``'c0'``, ``'c1'``, ..."""
    return next(c for c in compile(source, "<expression>", "exec").co_consts
                if isinstance(c, types.CodeType))


def _walk(roots, stop=()) -> list:
    """The nodes under `roots` in the order a tree walk, left operand first and
    root by root, first finishes them; the walk does not enter the nodes in `stop`."""
    order, seen, stack = [], set(), [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            if node not in stop:
                stack += [(a, False) for a in reversed(node.args)]
    return order


def _emit(lead, outputs, names: dict, head: str, ret: str, label: str) -> tuple:
    """(code, lines, text, value) of the function whose source is `head`, one
    SSA line per distinct node the `outputs` use, in `_walk` order of the nodes
    `lead` and then the outputs, and ``return`` `ret` filled with their names;
    `names` names the variables by name, and by node the nodes the function
    reads from its globals (refused at 0 by `model._bind`), whose arguments it
    does not use; a parameter is the global of its name, leaf `name` of order
    k calls the global ``_<name><k>``, and an inline node is its argument.  A
    division by what may be 0 calls ``_div``, which raises on columns too.
    So it does a tree walk's float operations and its first error is the
    walk's, which `_error` rebuilds from `lines` (line -> node), `text` (node
    -> name) and `value` (node -> float).  Constant i is the placeholder
    ``'ci'``, so sources of one shape share one `_template`, whose copy holds
    the constants and is named ``<label>``; an operation in `_FOLDS` on
    constants alone, which cannot raise, is computed here, as compile() folds
    literals."""
    used = set(_walk(outputs, names))
    text, lines, body, consts, value = {}, {}, [], {}, {}
    offset = head.count("\n") + 3   # the line of body[0]: after `head` and `try`
    for node in _walk([*lead, *outputs], names):
        if node not in used:
            continue
        folds = node.op in _FOLDS and all(a in value for a in node.args) \
            and not (node.op == "/" and value[node.args[1]] == 0)
        if node.op == "inline":
            arg = node.args[0]
            text[node] = text[arg]
            if arg in value:
                value[node] = value[arg]
        elif node in names:
            text[node] = names[node]
        elif node.op in _FREE:
            text[node] = names.get(node.value, node.value)
        elif node.args and not folds:
            text[node] = name = f"t{len(body)}"
            form = _FORMS.get(node.op) or "_{}{}({{}})".format(*node.value)  # a leaf
            divisor = node.args[-1]
            if node.op == "/" and value.get(divisor, 0) == 0 and divisor not in names \
                    and divisor.op not in ("param", "literal"):
                form = "_div({}, {})"
            lines[offset + len(body)] = node
            body.append(f"        {name} = {form.format(*(text[a] for a in node.args))}")
        else:  # a constant, or an operation on constants alone
            value[node] = _FOLDS[node.op](*map(value.get, node.args)) if folds else node.value
            placeholder = f"c{len(consts)}"
            text[node], consts[placeholder] = repr(placeholder), value[node]
    source = "\n".join([head, "    try:", *body,
                        f"        return {ret.format(*(text[x] for x in outputs))}",
                        "    except (ArithmeticError, ValueError) as exc:",
                        "        raise _error(exc) from None"])
    code = _template(source)
    code = code.replace(co_consts=tuple(consts.get(c, c) if type(c) is str else c
                                        for c in code.co_consts),
                        co_filename=f"<{label}>", co_name=label)
    return code, lines, text, value


def _compile(root: Node, variable: str, where: str, label: str) -> Callable[[float], float]:
    """`root` as a function of its one `variable`; see `_emit`."""
    code, *info = _emit([root], [root], {variable: "x0"}, "def f(x0):", "{}", label)
    return types.FunctionType(code, dict(_GLOBALS, _error=functools.partial(
        _error, where, {code: info}, None)))


def _error(where: str, info: dict, overflow: Optional[str], exc: Exception,
           times=()) -> Exception:
    """The error of the node on the line that raised `exc`, by the raising
    function's code in `info` (code -> `_emit`'s lines, text and value), with
    the text, operands and offset a tree walk gives it, after `where`, or
    after the prefix of the inlined text the node is in; a leaf's own error
    is `exc` itself.  An overflowing exp of the template is, when `overflow`
    is given, `where` and `overflow` formatted with the function's globals,
    `exc` and t as the float time of the row: the variable t, or the first
    node of `times` that the exp's argument reads."""
    tb = exc.__traceback__
    lines, text, value = info[tb.tb_frame.f_code]
    node = lines.get(tb.tb_lineno)
    if node is None or node.op == "leaf":
        return exc
    env = {**tb.tb_frame.f_globals, **tb.tb_frame.f_locals}
    values = [value[x] if x in value else env[text[x]] for x in node.args]
    # a block's one row (`model.rowwise` reruns a failing block row by row) as its float
    values = [v.item() if getattr(v, "size", 0) == 1 else v for v in values]
    a, b = values[0], values[-1]   # a function's one argument is both
    op, pos = node.op, node.pos
    if isinstance(pos, tuple):  # a node of an inlined text: its prefix, not the template's
        pos, where = pos
        overflow = None
    if op == "/":
        return ExpressionError(f"{where}division by zero", position=pos)
    if op == "^":
        if isinstance(exc, ValueError):  # math's domain error
            return ExpressionError(f"{where}invalid power {a!r}^{b!r}: {exc}", position=pos)
        return OverflowError(f"{where}power {a!r}^{b!r} overflows: {exc} (at offset {pos})")
    if isinstance(exc, ValueError):  # math's domain error
        return ExpressionError(f"{where}{op} of {_DOMAIN_ERRORS[op]} value {a!r}",
                               position=pos)
    if overflow is None:  # the rest is an exp's overflow
        return OverflowError(f"{where}{op} of {a!r} overflows: {exc} (at offset {pos})")
    t = env[next((text[x] for x in _walk([node]) if x in times), "t")]
    t = t if isinstance(t, (int, float)) else t.flat[0].item()
    return OverflowError(where + overflow.format(**tb.tb_frame.f_globals, t=t, exc=exc))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# the power of each operator; a bracket or a call sits on the stack with 0
_POWERS = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _parse(text: str, dag: _Dag, variables, params=(), leaves=None, named=None,
           literals: bool = False, where: Optional[str] = None) -> Node:
    """The root of `text` in `dag`, parsed by operator precedence over an
    operand stack and an operator stack: an arriving binary operator first
    applies the stacked ones of at least its power (of more, for the
    right-associative ^), so the nodes come in the order the grammar's
    recursive descent would build them, and nesting costs no frames.  With
    `literals`, the numeric literals but 0 and 1 are the parameters ``_n0``,
    ``_n1``, ..., and with `where` a position is (offset, `where`, the
    errors' prefix)."""
    leaves, named = leaves or {}, named or {}
    tokens, values, ops, count, i, operand = _tokenize(text), [], [], 0, 0, True

    def reduce(power: int):
        while ops and ops[-1][1] >= power:
            op, _, at = ops.pop()
            b = values.pop()
            values.append(dag.node("neg", b) if op == "neg" else
                          dag.node(op, values.pop(), b, pos=at))

    while True:
        kind, tok, pos = tokens[i]
        at = pos if where is None else (pos, where)
        i += 1
        if not operand and kind == "op" and tok in _POWERS:
            reduce(_POWERS[tok] + (tok == "^"))
            ops.append((tok, _POWERS[tok], at))
            operand = True
        elif not operand:
            reduce(1)
            if not ops:
                if kind == "end":
                    return values[0]
                raise ExpressionError(f"unexpected trailing input {tok!r}", position=pos)
            if (kind, tok) != ("op", ")"):
                raise ExpressionError(f"expected ')', found {tok or 'end of input'!r}",
                                      position=pos)
            name, _, at = ops.pop()
            if name in leaves:
                values.append(dag.node("leaf", values.pop(), value=leaves[name]))
            elif name != "(":
                values.append(dag.node(name, values.pop(), pos=at))
        elif kind == "op" and tok in "-(":  # by kind: the end token's "" is in any text
            ops.append(("neg", _POWERS["neg"], None) if tok == "-" else ("(", 0, None))
        elif kind == "ident" and tokens[i][:2] == ("op", "("):
            if tok not in _FUNCTIONS and tok not in leaves:
                raise ExpressionError(f"unknown function {tok!r}", position=pos)
            ops.append((tok, 0, at))
            i += 1
        elif kind == "num":
            value = float(tok)
            if literals and value not in (0.0, 1.0):
                values.append(dag.node("literal", value=f"_n{count}"))
                count += 1
            else:
                values.append(dag.node("num", value=value))
            operand = False
        elif kind == "ident":
            if tok in named:
                values.append(named[tok])
            elif tok in variables:
                values.append(dag.node("var", value=tok))
            elif tok in params:
                values.append(dag.node("param", value=tok))
            elif tok in _CONSTANTS:
                values.append(dag.node("const", value=_CONSTANTS[tok]))
            else:
                raise ExpressionError(f"unknown identifier {tok!r}", position=pos)
            operand = False
        else:
            raise ExpressionError(f"expected a value, found {tok or 'end of input'!r}",
                                  position=pos)


def _per_element(f, x):
    """f(x) for a float x, else f of each float of x in x's shape: libm, not SIMD."""
    if isinstance(x, float):
        return f(x)
    x = np.asarray(x)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class Expression:
    """A parsed expression in one variable with its symbolic derivative.

    The value and derivative DAGs become straight-line functions (see
    `_compile`), each on its first use: a built-in model inlines the text
    instead, so most expressions are never called.  Called on a number, an
    expression gives a float; on a numpy array, an array of its shape, each
    element through the float function, so it has the float's bits and a
    failing element raises the float's error.  A `key` such as ``model.V``
    prefixes the errors of both and takes no part in equality."""

    text: str
    variable: str
    ast: Node = field(repr=False, compare=False)
    derivative_ast: Node = field(repr=False, compare=False)
    key: str = field(default="", compare=False)

    @functools.cached_property
    def _value(self) -> Callable[[float], float]:
        return _compile(self.ast, self.variable, self._where, self._label)

    @functools.cached_property
    def _slope(self) -> Callable[[float], float]:
        return _compile(self.derivative_ast, self.variable, self._where,
                        f"{self._label} derivative")

    @property
    def _label(self) -> str:
        return f"expression {self.key}".rstrip()

    @property
    def _where(self) -> str:
        return f"{self.key}: " if self.key else ""

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return _per_element(self._value, x.astype(float, copy=False))
        return self._value(float(x))

    def derivative(self, x: float) -> float:
        return self._slope(float(x))

    def __reduce__(self):  # compiled code does not pickle; the text re-parses to it
        return parse_expression, (self.text, self.variable, self.key)


def parse_expression(text: str, variable: str, key: str = "") -> Expression:
    """Parse `text` in the single free `variable`; `key` names it in evaluation
    errors."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", position=0)
    dag = _Dag()
    ast = _parse(text, dag, (variable,))
    return Expression(text=text, variable=variable, ast=ast, derivative_ast=dag.diff(ast),
                      key=key)


def parse_template(texts: tuple, variables: tuple, params: tuple, leaves: dict,
                   inline: Optional[dict] = None) -> tuple:
    """(dag, roots) of `texts`, in order, in the `variables`, with the `params`
    bound only when its code is; `leaves` maps a function name of one argument
    to (leaf, order), the leaf of the next order being its derivative (see
    `_emit`).  A text ``name = expr`` is no root: it names expr's node for the
    texts after it, as does `inline`, name -> (text, variable, where,
    literals), with the 'inline' node over `text` parsed in `variable` alone
    (see `_parse`): only `_Dag.diff` in `variable` enters it, so the rules
    of the texts around it see it as they would see a leaf."""
    dag, named, roots = _Dag(), {}, []
    for name, (text, variable, where, literals) in (inline or {}).items():
        root = _parse(text, dag, (variable,), literals=literals, where=where)
        named[name] = dag.node("inline", root, value=variable)
    for text in texts:
        name, is_named, expr = text.rpartition("=")
        node = _parse(expr, dag, variables, params, leaves, named)
        if is_named:
            named[name.strip()] = node
        else:
            roots.append(node)
    return dag, roots


def as_expression(obj, variable: str, name: str) -> Expression:
    """`obj` as an `Expression` in `variable` for the built-in models and
    solvers: an `Expression` in `variable` as it is, or a finite number c as
    ``parse_expression(repr(float(c)), variable, name)``.  Anything else (an
    expression in another variable, a callable, a string, a bool, a
    non-finite number) is an error naming `name`."""
    if isinstance(obj, Expression):
        if obj.variable != variable:
            raise ValueError(f"{name} must be an expression in {variable}, "
                             f"got one in {obj.variable}")
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise TypeError(f"{name} must be an expression in {variable} or a finite number, "
                        f"got {type(obj).__name__}")
    if not math.isfinite(obj):
        raise ValueError(f"{name} must be finite, got {obj!r}")
    return parse_expression(repr(float(obj)), variable, name)
