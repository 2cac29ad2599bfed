"""Extended contact phase-space states and contact Hamiltonian descriptors.

The phase space is described in Darboux coordinates (q, p, S): generalized
positions, conjugate momenta and an action-like contact variable; an
``ExtendedState`` is one point (q, p, S, t) of it at a time t.  A
``HamiltonianModel`` holds H(q, p, S, t), its derivatives and its contact
vector field as closures over the flat vector [q, p, S]; the built-in
factories cover linear dissipation, the damped parametric oscillator and the
Caldirola-Kanai effective model.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import types
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .expressions import _FOLDS, _FUNCTIONS, _GLOBALS, _VAR, _emit, _error, _is_num, \
    _per_element, _tokenize, _walk, as_expression, parse_template

FD_STEP = 1e-6  # relative step for central finite differences
# relative step for second differences: eps^(1/4) balances their O(h^2)
# truncation with their O(eps / h^2) rounding
HESSIAN_STEP = np.finfo(float).eps ** 0.25


def central_difference(f, z) -> np.ndarray:
    """Gradient (f scalar per point) or Jacobian (f an array per point, last axis
    over z) of f at z by central differences with step FD_STEP * max(1, |z_j|).
    f takes the points z + h_j e_j and z - h_j e_j, j = 0, 1, ..., in that
    order, as the rows of one block, and gives one value per row."""
    z = np.asarray(z, dtype=float)
    h, j = FD_STEP * np.maximum(1.0, np.abs(z)), np.arange(z.size)
    Z = np.repeat(z[None], 2 * z.size, axis=0)
    Z[2 * j, j] += h
    Z[2 * j + 1, j] -= h
    F = np.asarray(f(Z), dtype=float)
    return np.moveaxis((F[0::2] - F[1::2]) / (2.0 * h).reshape(-1, *[1] * (F.ndim - 1)), 0, -1)


def second_difference(f, z) -> np.ndarray:
    """Hessian of f (scalar per point) at z by second differences with step
    h_i = HESSIAN_STEP * max(1, |z_i|), about 1.2e-4 relative.  f takes z, then
    z + h_i e_i and z - h_i e_i for each i, then z + a h_i e_i + b h_j e_j for
    (a, b) = (1, 1), (1, -1), (-1, 1), (-1, -1) and each i < j, as the rows of
    one block, and gives one value per row."""
    z = np.asarray(z, dtype=float)
    d, E = z.size, np.diag(HESSIAN_STEP * np.maximum(1.0, np.abs(z)))
    i, j = np.triu_indices(d, 1)
    steps = [np.zeros((1, d)), E, -E] + [a * E[i] + b * E[j] for a in (1, -1) for b in (1, -1)]
    F = np.asarray(f(z + np.concatenate(steps)), dtype=float)
    h, pp, pm, mp, mm = np.diag(E), *F[2 * d + 1:].reshape(4, -1)
    K = np.diag((F[1:d + 1] - 2.0 * F[0] + F[d + 1:2 * d + 1]) / (h * h))
    K[i, j] = K[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return K


def rowwise(fn, t, Y):
    """fn(t, Y) on a block of rows as a loop over them would give it: inf and NaN
    arise silently, as in floats, and a failing block raises the error of its
    first row that fails alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(t, Y)
        except Exception:
            ts = np.broadcast_to(t, (len(Y),)) if np.ndim(t) else None
            for i in range(len(Y)):
                fn(t if ts is None else ts[i:i + 1], Y[i:i + 1])
            raise


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExtendedState:
    """A point (q, p, S, t) of the extended contact phase space; immutable after
    construction.  q and p are read-only 1-d arrays of equal length (a scalar is
    promoted to length 1), and all coordinates are finite.  Two states are equal
    when their coordinates are, and equal states hash alike."""

    q: np.ndarray
    p: np.ndarray
    S: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "t", float(self.t))
        if self.q.ndim != 1 or self.p.ndim != 1 or self.q.size != self.p.size:
            raise DimensionMismatchError(
                f"q and p must be 1-d arrays of equal length, got {self.q.shape} and {self.p.shape}"
            )
        if self.q.size < 1:
            raise DimensionMismatchError("need at least one degree of freedom")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))
                and math.isfinite(self.S) and math.isfinite(self.t)):
            raise NonFiniteError(f"non-finite state: {self!r}")

    @property
    def n(self) -> int:
        return self.q.size

    def _key(self) -> tuple:
        return tuple(self.q.tolist()), tuple(self.p.tolist()), self.S, self.t

    def __eq__(self, other):
        if not isinstance(other, ExtendedState):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ExtendedState(q={self.q.tolist()}, p={self.p.tolist()}, S={self.S}, "
                f"t={self.t})")

    def flat(self) -> np.ndarray:
        """Pack into [q, p, S] (time excluded)."""
        return np.concatenate([self.q, self.p, [self.S]])

    @staticmethod
    def from_flat(y: np.ndarray, n: int, t: float) -> "ExtendedState":
        return ExtendedState(y[:n], y[n:2 * n], y[2 * n], t)


def make_state(q, p, S=0.0, t=0.0) -> ExtendedState:
    """Convenience constructor with S and t defaulting to 0."""
    return ExtendedState(q, p, S, t)


# ---------------------------------------------------------------------------
# Hamiltonian models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianModel:
    """Descriptor of a contact Hamiltonian H(q, p, S, t).

    On k rows Y = [q, p, S], shape (k, 2n+1), at t scalar or of shape (k,),
    ``value(t, Y)`` is H, shape (k,), and ``grad(t, Y)`` [dH/dq, dH/dp, dH/dS,
    dH/dt] per row.  At one point y, ``field(t, y)`` is the (q, p, S) contact
    vector field as a float sequence, which the integrators call, and at z =
    [y, J row-major], J (2n+1) x (2n+1), ``tangent_rhs(t, z)`` is [field(t, y),
    A J], A = d(field)/dy, its first 2n+1 entries ``field(t, y)`` bit for bit.
    The built-ins compile all four from one parsed H (see `_TEMPLATES`), so
    they agree by construction, and their field and tangent_rhs carry the
    straight-line RK4 substep that fixed-step solves take; `make_custom`
    builds them from per-point callables, A by `_contact_jacobian` of the
    gradient and a central-difference Hessian.  All four are unvalidated (a
    non-finite field is left to the integrator); ``evaluate`` and
    ``partials`` call them on one row and validate.
    """

    n: int
    value: Callable[[Any, np.ndarray], np.ndarray]
    grad: Callable[[Any, np.ndarray], np.ndarray]
    field: Callable[[float, np.ndarray], Sequence[float]]
    tangent_rhs: Callable[[float, np.ndarray], Sequence[float]]
    name: str = "custom"
    params: Mapping[str, Any] = dataclass_field(default_factory=dict)

    def check_dimensions(self, x: ExtendedState):
        if x.n != self.n:
            raise DimensionMismatchError(
                f"model '{self.name}' has n={self.n} but state has n={x.n}"
            )

    def evaluate(self, x: ExtendedState) -> float:
        """Value of the contact Hamiltonian at x; pure and side-effect free."""
        self.check_dimensions(x)
        v = float(rowwise(self.value, x.t, x.flat()[None])[0])
        if not math.isfinite(v):
            raise NonFiniteError(f"model '{self.name}' is non-finite at {x!r}")
        return v

    def partials(self, x: ExtendedState) -> np.ndarray:
        """First partials [dH/dq, dH/dp, dH/dS, dH/dt] of the contact
        Hamiltonian at x, a fresh (2n+2,) array; all entries are finite."""
        self.check_dimensions(x)
        g = np.array(rowwise(self.grad, x.t, x.flat()[None])[0], dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"model '{self.name}' has non-finite partials at {x!r}: {g}")
        return g


def _contact_field(n: int, y: np.ndarray, h: float, g: np.ndarray) -> np.ndarray:
    """The (q, p, S) components of the contact field from H = h and its
    gradient g at y: dq/dt = dH/dp, dp/dt = -dH/dq - p dH/dS and
    dS/dt = p . dH/dp - H."""
    p, dH_dp = y[n:2 * n], g[n:2 * n]
    return np.concatenate([dH_dp, -g[:n] - p * g[2 * n],
                           [float(np.dot(p, dH_dp)) - h]])


def _contact_jacobian(n: int, y: np.ndarray, g: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Jacobian A of the contact field in y, by the chain rule from the
    gradient g and the Hessian K of H at y; tr A = -(n+1) dH/dS follows from
    K's symmetry."""
    d, p = 2 * n + 1, y[n:2 * n]
    A = np.empty((d, d))
    A[:n] = K[n:2 * n]
    A[n:2 * n] = -K[:n] - p[:, None] * K[2 * n]
    A[2 * n] = p @ K[n:2 * n]
    A[2 * n, :n] -= g[:n]
    A.reshape(-1)[n * (d + 1)::d + 1] -= g[2 * n]  # the diagonal from p_1 to S
    return A


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------
#
# Each built-in is one template of H in q, p, S and t, with the parameters m
# and gamma, into which a model inlines its V(q) or omega(t) text (see
# `parse_template`).  The code is cached by the text's shape (`_shape`), whose
# literals are the parameters _n0, _n1, ...: `_kind_code` parses and
# differentiates the template with the text and emits from its one DAG H, its
# gradient, the field (`_contact_field` over the gradient's nodes) and the
# tangent [field, A J] (A by `_contact_jacobian`'s chain rule), and
# `_kind_step`, on the first fixed-step solve, one RK4 substep of the field or
# of the tangent; a model binds only m, gamma and its literals.  So value,
# grad, field, tangent_rhs and the substeps agree by construction.  Where
# literals make a tested node 0 (see `_bind`), the model takes the code of its
# own text instead.  `value` and `grad` run on columns with every function,
# power and division by what may be 0 per element, so a block gives its rows'
# bits.  H's nodes come first, so the first error is the one `value` would
# raise.  The dH/dS terms are kept where dH/dS is 0 (``- p * 0.0``): they can
# flip the sign of a zero.

# kind -> (H, the name and variable of its inlined text, the text after
# "<kind>: " of an overflow of H's exp)
_TEMPLATES = {
    "linear_dissipation": ("p*p/(2*m) + V + gamma*S", ("V", "q"), None),
    "damped_parametric": ("p*p/(2*m) + 0.5*m*omega*omega*q*q + gamma*S", ("omega", "t"), None),
    "caldirola_kanai": ("exp(-gamma*t)*p*p/(2*m) + exp(gamma*t)*V", ("V", "q"),
                        "e^(±gamma t) with model.gamma = {gamma!r} overflows at t={t!r}: {exc}"),
}
_Y = ("q", "p", "S")
_J = tuple(f"J{k}{c}" for k in range(3) for c in range(3))  # the tangent's J, row-major
_BLOCKS = "def f(t, y):\n    q, p, S = y.T"  # the head of a function of (k, 3) rows
_FLOATS = "def f(t, y):\n    q, p, S = y.tolist()"
_POWER = np.frompyfunc(math.pow, 2, 1)  # math.pow per pair of broadcast elements
_DIVIDE = np.frompyfunc(operator.truediv, 2, 1)
_BLOCK = {"_pow": lambda a, b: np.asarray(_POWER(a, b), dtype=float),
          "_div": lambda a, b: np.asarray(_DIVIDE(a, b), dtype=float),
          **{f"_{fn}": functools.partial(_per_element, f) for fn, f in _FUNCTIONS.items()}}


def explicit_t(kind: str, params: Mapping[str, Any]) -> Optional[bool]:
    """Whether the built-in H of `kind` with `params` has explicit t: e^{+-gamma t}
    at gamma > 0, or an omega whose parsed derivative is not the literal 0.  None
    for another kind, or for params without gamma and the kind's V or omega."""
    name, variable = _TEMPLATES[kind][1] if kind in _TEMPLATES else (None, None)
    if not {"gamma", name} <= params.keys():
        return None
    d = params[name].derivative_ast
    return params["gamma"] > 0 if kind == "caldirola_kanai" else \
        variable == "t" and not (d.op == "num" and d.value == 0.0)


def _compile(where: str, lead, parts, overflow: Optional[str] = None, times=(),
             tested=frozenset()) -> tuple:
    """(bound, [(code, of floats)], error, tested) of `parts`, (outputs, head,
    ret, label) tuples emitted over the nodes `lead` (see `expressions._emit`);
    a head other than `_BLOCKS` makes a function of floats.  `bound` names
    ``_k0``, ``_k1``, ... the nodes of the parameters and literals alone that
    `_FOLDS` computes: `_bind` computes them once and the functions read them
    as globals.  `error` is their `expressions._error` with the stage `times`;
    `tested` adds the divisors to the `_Dag.tested` nodes given."""
    folds = {}
    for x in _walk([out for outputs, *_ in parts for out in outputs]):
        folds[x] = x.op in ("param", "literal", "num", "const") or \
            x.op in _FOLDS and all(folds[a] for a in x.args)
    bound = {x: f"_k{i}" for i, x in enumerate(x for x, ok in folds.items()
                                                if ok and x.args and x.free
                                                and not x.free & _VAR)}
    info, codes = {}, []
    for outputs, head, ret, label in parts:
        code, *lines_text_value = _emit(lead, outputs, bound, head, ret, label)
        info[code] = lines_text_value
        codes.append((code, head != _BLOCKS))
    return bound, codes, functools.partial(_error, where, info, overflow, times=times), \
        {x.args[1] for x in folds if x.op == "/"}.union(tested)


def _bind(compiled: tuple, params: dict, leaves: Optional[dict] = None) -> Optional[list]:
    """The functions of `compiled` (see `_compile`) over one globals dict per
    flavour: the `params`, the values of its bound nodes and, as
    ``_<leaf><k>``, the `leaves`, functions of columns.  None where a bound
    node divides by 0 or a tested one is 0: there the rules, had they seen
    the literals as numbers, would have built other nodes."""
    bound, codes, error, tested = compiled
    value = {}
    for x in _walk(list(bound)):  # in the float operations of the emitted lines
        if x.op == "/" and value[x.args[1]] == 0:
            return None
        value[x] = params[x.value] if x.op in ("param", "literal") else \
            _FOLDS[x.op](*map(value.get, x.args)) if x.args else x.value
        if x in tested and value[x] == 0:
            return None
    params = {**params, **{name: value[x] for x, name in bound.items()}}
    columns = {**_BLOCK, **(leaves or {}), **params, "_columns": _columns, "_error": error}
    points = {**_GLOBALS, **params, "_error": error}
    return [types.FunctionType(code, points if flat else columns) for code, flat in codes]


def _shape(text: str) -> tuple:
    """(shape, literals): `text` with each numeric literal (`_tokenize`'s
    'num' token) but 0 and 1 written as as many 9s, so every offset holds,
    and those literals in order."""
    shape, literals = list(text), []
    for kind, tok, pos in _tokenize(text):
        if kind == "num" and float(tok) not in (0.0, 1.0):
            literals.append(float(tok))
            shape[pos:pos + len(tok)] = "9" * len(tok)
    return "".join(shape), literals


def _kind_dag(kind: str, text: str, where: str, literals: bool) -> tuple:
    """(dag, H, gradient, field, A J) of `kind`'s template with `text` inlined
    (its literals parameters when `literals`), parsed and differentiated: the
    field and A J, row-major, as `_contact_field` and `_contact_jacobian` form
    them."""
    template, (name, variable), _ = _TEMPLATES[kind]
    dag, (H,) = parse_template((template,), (*_Y, "t"), ("m", "gamma"), {},
                               {name: (text, variable, where, literals)})
    p = dag.node("var", value="p")
    g = [dag.diff(H, x) for x in (*_Y, "t")]
    K = [[dag.diff(g[i], x) for x in _Y] for i in range(3)]
    field = [g[1], dag.node("-", dag.node("neg", g[0]), dag.node("*", p, g[2])),
             dag.node("-", dag.node("*", p, g[1]), H)]
    A = [K[1], [dag.sub(dag.sub(dag.num(0.0), K[0][k]), dag.mul(p, K[2][k])) for k in range(3)],
         [dag.mul(p, K[1][k]) for k in range(3)]]
    for i, k, gi in ((2, 0, g[0]), (1, 1, g[2]), (2, 2, g[2])):  # A's gradient terms
        A[i][k] = dag.node("neg", gi) if _is_num(A[i][k], 0.0) else dag.node("-", A[i][k], gi)
    J = [[dag.node("var", value=_J[3 * k + c]) for c in range(3)] for k in range(3)]
    AJ = [functools.reduce(dag.add, [dag.mul(A[i][k], J[k][c]) for k in range(3)
                                     if not _is_num(A[i][k], 0.0)], dag.num(0.0))
          for i in range(3) for c in range(3)]
    return dag, H, g, field, AJ


@functools.lru_cache(maxsize=32)
def _kind_code(kind: str, text: str, where: str, literals: bool) -> tuple:
    """`_compile` of the value, grad, field and tangent_rhs of `_kind_dag`."""
    dag, H, g, field, AJ = _kind_dag(kind, text, where, literals)
    tangent = f"def f(t, y):\n    q, p, S, {', '.join(_J)} = y.tolist()"
    return _compile(f"{kind}: ", [H], [([H], _BLOCKS, "{}", f"{kind}.value"),
                                       (g, _BLOCKS, "_columns(len(y), {}, {}, {}, {})",
                                        f"{kind}.grad"),
                                       (field, _FLOATS, "[{}, {}, {}]", f"{kind}.field"),
                                       (field + AJ, tangent, f"[{', '.join(['{}'] * 12)}]",
                                        f"{kind}.tangent")],
                    _TEMPLATES[kind][2], tested=dag.tested)


def _rk4_nodes(dag, lead: list, rhs: list, y: list) -> tuple:
    """(stages, step, times): the nodes of one classical RK4 step of dy/dt =
    rhs, from the variables y at the variable t by the variable h, in the
    float operations of `dynamics._rk4`.  Each stage is a copy of the nodes
    `lead` and `rhs` at its time and state, `stages` the four copies in
    order; a node that reads neither y nor t is its own copy, and stages 2
    and 3 share their time, so what reads only it and the parameters is one
    node.  `times` are the stage times other than t.  The stage arithmetic
    is `dag.node`'s, which drops no ``+ 0.0``: that turns a -0.0 into 0.0."""
    plus, prod = functools.partial(dag.node, "+"), functools.partial(dag.node, "*")
    t, h, two = dag.node("var", value="t"), dag.node("var", value="h"), dag.num(2.0)
    h2, h6 = dag.node("/", h, two), dag.node("/", h, dag.num(6.0))
    mid, end = plus(t, h2), plus(t, h)
    stages, ks = [], []
    for time, scale in ((t, None), (mid, h2), (mid, h2), (end, h)):
        state = y if scale is None else [plus(a, prod(scale, k)) for a, k in zip(y, ks[-1])]
        copy = dict(zip([t, *y], [time, *state]))
        for x in _walk([*lead, *rhs]):
            if x not in copy:
                copy[x] = dag.node(x.op, *(copy[a] for a in x.args), value=x.value,
                                   pos=x.pos) if x.free & _VAR else x
        stages += [copy[x] for x in (*lead, *rhs)]
        ks.append([copy[x] for x in rhs])
    step = [plus(a, prod(h6, plus(plus(plus(k1, prod(two, k2)), prod(two, k3)), k4)))
            for a, k1, k2, k3, k4 in zip(y, *ks)]
    return stages, step, (mid, end)


@functools.lru_cache(maxsize=32)
def _kind_step(kind: str, text: str, where: str, literals: bool, tangent: bool) -> tuple:
    """`_compile` of one RK4 substep ``f(t, y, h)`` of the field of
    `_kind_dag`, or of its tangent when `tangent`, y a float sequence: the end
    state as a tuple, bit for bit `dynamics._rk4`'s over the model's field or
    tangent_rhs, and its first error theirs, a stage's overflow naming the
    stage's time."""
    dag, H, _, field, AJ = _kind_dag(kind, text, where, literals)
    names = (*_Y, *_J) if tangent else _Y
    y = [dag.node("var", value=x) for x in names]
    stages, step, times = _rk4_nodes(dag, [H], field + AJ if tangent else field, y)
    head = f"def f(t, y, h):\n    {', '.join(names)} = y"
    label = f"rk4 {kind}.{'tangent' if tangent else 'field'}"
    return _compile(f"{kind}: ", stages, [(step, head, f"({'{}, ' * len(y)})", label)],
                    _TEMPLATES[kind][2], times, dag.tested)


def _builtin(kind: str, m: float, gamma: float, text) -> HamiltonianModel:
    """The model of `kind` with these m and gamma and V or omega `text` (see
    `as_expression`), by the code of its shape, or of the text itself where
    `_bind` refuses that.  Its field and tangent_rhs carry ``rk4_step()``,
    their RK4 substep, bound on first use."""
    _check_mass_and_damping(m, gamma)
    name, variable = _TEMPLATES[kind][1]
    fn = as_expression(text, variable, name)
    shape, literals = _shape(fn.text)
    params = {"m": m, "gamma": gamma, **{f"_n{i}": v for i, v in enumerate(literals)}}
    key = (kind, shape, fn._where, True)
    functions = _bind(_kind_code(*key), params)
    if functions is None:
        key = (kind, fn.text, fn._where, False)
        functions = _bind(_kind_code(*key), params)
    value, grad, field, tangent_rhs = functions
    for rhs, tangent in ((field, False), (tangent_rhs, True)):
        rhs.rk4_step = functools.cache(
            lambda tangent=tangent: _bind(_kind_step(*key, tangent), params)[0])
    return HamiltonianModel(n=1, value=value, grad=grad, field=field, tangent_rhs=tangent_rhs,
                            name=kind, params={"m": m, "gamma": gamma, name: fn})


def _columns(k: int, *cols) -> np.ndarray:
    """The (k, len(cols)) array with these columns; a scalar fills its column."""
    out = np.empty((k, len(cols)))
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def _check_mass_and_damping(m: float, gamma: float):
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")


def make_linear_dissipation(m: float, gamma: float, V) -> HamiltonianModel:
    """H = p^2/2m + V(q) + gamma*S, the one-dimensional linear-friction system."""
    return _builtin("linear_dissipation", m, gamma, V)


def make_damped_parametric(m: float, gamma: float, omega) -> HamiltonianModel:
    """H = p^2/2m + m w(t)^2 q^2 / 2 + gamma*S, the damped parametric oscillator.

    ``omega`` is an `Expression` in t or a finite number: a constant
    frequency gives the damped harmonic oscillator, zero the damped free
    particle.
    """
    return _builtin("damped_parametric", m, gamma, omega)


def make_caldirola_kanai(m: float, gamma: float, V) -> HamiltonianModel:
    """H = e^{-gamma t} p^2/2m + e^{gamma t} V(q), explicitly time dependent.

    The S-independent effective model for linear damping: integrated with the
    contact equations its (q, p) flow is the standard symplectic one, and q(t)
    obeys the same damped Newton equation as the linear-dissipation model.
    """
    return _builtin("caldirola_kanai", m, gamma, V)


def make_custom(n: int, value, grad=None, name: str = "custom",
                params: Optional[Mapping[str, Any]] = None) -> HamiltonianModel:
    """Wrap per-point callables of (t, y), y = [q, p, S], as a model: ``value`` is
    H and ``grad`` [dH/dq, dH/dp, dH/dS, dH/dt], central differences of ``value``
    when None; the model's ``value`` and ``grad`` call them per row, t a float."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    gradient = None
    if grad is not None:
        def gradient(t, y) -> np.ndarray:
            g = np.asarray(grad(t, y), dtype=float)
            if g.shape != (2 * n + 2,):
                raise DimensionMismatchError(f"model '{name}' needs a grad of length "
                                             f"{2 * n + 2}, got shape {g.shape}")
            return g
    return _block_model(n, _per_row(value), gradient, name, params)


def _per_row(f, *shape):
    """The block form of a per-point callable f(t, y): one call per row, t a float."""
    def block(t, Y) -> np.ndarray:
        ts = t.tolist() if np.ndim(t) else [float(t)] * len(Y)
        return np.array([f(s, y) for s, y in zip(ts, Y)], dtype=float).reshape(len(Y), *shape)
    return block


def _block_model(n: int, values, gradient=None, name: str = "custom",
                 params: Optional[Mapping[str, Any]] = None) -> HamiltonianModel:
    """A model from a block H ``values(t, Y)`` and a per-point ``gradient(t, y)``;
    when None, central differences of ``values``, whose 2(2n+2) points are one
    block.  The field is `_contact_field` of value and gradient; the tangent
    multiplies J by `_contact_jacobian` of the gradient and a Hessian: central
    differences of a given gradient, else `second_difference` of ``values``, one
    block of points about 1.2e-4 max(1, |y_i|) from y, where H must be defined
    (a difference of the differenced gradient would lose half its digits)."""
    d = 2 * n + 1
    if gradient is None:
        def gradient(t, y) -> np.ndarray:
            return central_difference(lambda Z: values(Z[:, -1], Z[:, :-1]), np.append(y, t))

        def hessian(t, y) -> np.ndarray:
            return second_difference(lambda Y: values(t, Y), y)
    else:
        def hessian(t, y) -> np.ndarray:
            return central_difference(lambda W: [gradient(t, w)[:d] for w in W], y)

    def field(t, y) -> np.ndarray:
        return _contact_field(n, y, values(t, y[None])[0], gradient(t, y))

    def tangent_rhs(t, z) -> np.ndarray:
        y = z[:d]
        A = _contact_jacobian(n, y, gradient(t, y), hessian(t, y))
        return np.concatenate([field(t, y), (A @ z[d:].reshape(d, d)).ravel()])

    return HamiltonianModel(n=n, value=values, grad=_per_row(gradient, 2 * n + 2), field=field,
                            tangent_rhs=tangent_rhs, name=name, params=dict(params or {}))
