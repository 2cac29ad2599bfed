"""Contact Hamiltonian flow: vector field, integrators and flow diagnostics.

The equations of motion in contact coordinates are

    dq_a/dt = dH/dp_a
    dp_a/dt = -dH/dq_a - p_a dH/dS
    dS/dt   = p_a dH/dp_a - H

augmented with dt/dt = 1 for explicitly time-dependent systems.  The flow has
divergence -(n+1) dH/dS in the (q, p, S) volume sense, which is the package's
operational definition of dissipation, and |H|^-(n+1) is the density of the
invariant measure away from the H = 0 level set.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (IntegrationError, NonFiniteError, SingularMeasureError,
                     UnsupportedModelError)
from .model import ExtendedState, HamiltonianModel, rowwise

MEASURE_EPS = 1e-12      # |H| below this is treated as the singular level set
_EPS = np.finfo(float).eps
_ROOT_TOL = 4 * _EPS     # x and relative tolerance of the event root


# ---------------------------------------------------------------------------
# Vector field
# ---------------------------------------------------------------------------

def vector_field(model: HamiltonianModel, x: ExtendedState) -> np.ndarray:
    """The (q, p, S) components [dq/dt, dp/dt, dS/dt] of the contact
    Hamiltonian vector field at x (dt/dt = 1 is left out), a fresh (2n+1,)
    array; a non-finite component raises NonFiniteError."""
    model.check_dimensions(x)
    y = x.flat()
    f = np.array(model.field(x.t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFiniteError(f"non-finite vector field at t={x.t}, y={y}: {f}")
    return f


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorOptions:
    """Step control for `integrate`; defaults favour tight invariant checks."""

    method: str = "adaptive_rk45"      # or "fixed_rk4"
    step: float = 1e-3                 # fixed_rk4 only (upper bound on substep)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    sample_interval: float = 0.1

    def __post_init__(self):
        # each message starts with the field, so a scenario can name its key
        if self.method not in ("adaptive_rk45", "fixed_rk4"):
            raise ValueError(f"method: must be 'adaptive_rk45' or 'fixed_rk4', got {self.method!r}")
        for name in ("step", "rel_tol", "abs_tol", "max_steps", "sample_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name}: must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a contact flow plus per-sample diagnostics."""

    times: np.ndarray            # (m,) strictly increasing
    q: np.ndarray                # (m, n)
    p: np.ndarray                # (m, n)
    S: np.ndarray                # (m,)
    H: np.ndarray                # (m,) Hamiltonian value per sample
    div: np.ndarray              # (m,) flow divergence per sample
    # (m, 2n+1, 2n+1) fundamental matrix dPhi of the flow from the first
    # sample, carried on the flow's steps and held to the same tolerance;
    # only with integrate(..., tangent=True), whose other fields then agree
    # with those of the solve without J to roundoff
    J: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not (len(self.times) == len(self.q) == len(self.p) == len(self.S)
                == len(self.times if self.J is None else self.J)):
            raise ValueError("trajectory component lengths differ")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def state(self, i: int) -> ExtendedState:
        return ExtendedState(self.q[i], self.p[i], self.S[i], self.times[i])

    def flat(self) -> np.ndarray:
        """The (m, 2n+1) rows [q, p, S] of the samples."""
        return np.column_stack([self.q, self.p, self.S])


def sample_grid(t0: float, t_end: float, sample_interval: float) -> np.ndarray:
    """Uniform grid covering [t0, t_end] with spacing <= sample_interval."""
    m = max(1, int(math.ceil((t_end - t0) / sample_interval - 1e-12)))
    return np.linspace(t0, t_end, m + 1)


def _floats(v) -> list:
    """A right-hand side's value as a list: an ndarray's `tolist()`, a list as it is."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _rk4(rhs, t: float, y, h: float) -> list:
    """One classical 4th-order Runge-Kutta step of dy/dt = rhs(t, y) from the
    float sequence y, rhs returning a list of floats or an ndarray.  The stages
    are Python floats combined in the order of the array expression
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), with stage arguments y + (h/2) k,
    so the step is bit for bit that expression's on every host.  rhs gets a
    fresh array for each stage, which it may keep; the result is a list."""
    h2, h6 = h / 2, h / 6.0
    k1 = _floats(rhs(t, np.array(y, dtype=float)))
    k2 = _floats(rhs(t + h2, np.array([a + h2 * k for a, k in zip(y, k1)])))
    k3 = _floats(rhs(t + h2, np.array([a + h2 * k for a, k in zip(y, k2)])))
    k4 = _floats(rhs(t + h, np.array([a + h * k for a, k in zip(y, k3)])))
    return [a + h6 * (((b1 + 2 * b2) + 2 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _substep(rhs):
    """The RK4 substep ``step(t, y, h)`` of dy/dt = rhs(t, y), y a float
    sequence and the step's end a float sequence: the straight-line one a
    built-in's field carries (see `model._kind_step`), bit for bit `_rk4`'s,
    else `_rk4` over rhs, as for every tangent_rhs."""
    own = getattr(rhs, "rk4_step", None)
    return own() if own is not None else functools.partial(_rk4, rhs)


def step_rk4(model: HamiltonianModel, x: ExtendedState, h: float) -> ExtendedState:
    """One classical 4th-order Runge-Kutta step of the contact field."""
    if h == 0:
        raise ValueError("step size must be nonzero")
    model.check_dimensions(x)
    y1 = np.array(_substep(model.field)(x.t, x.flat().tolist(), h))
    if not np.all(np.isfinite(y1)):
        raise NonFiniteError(f"non-finite RK4 state after step from t={x.t}")
    return ExtendedState.from_flat(y1, model.n, x.t + h)


# Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5): nodes C, stage rows A, 5th-order weights B, error
# weights E (5th minus embedded 4th order, over all 7 stages) and Shampine's
# (1986) dense-output matrix P, whose 4 columns multiply x, x^2, x^3, x^4.
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]
_DP_A = [None, np.array([1 / 5]), np.array([3 / 40, 9 / 40]),
         np.array([44 / 45, -56 / 15, 32 / 9]),
         np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
         np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])]
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                  1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10; the
# coefficients of Hairer's DOP853, to the double): 12 stages, the field at the
# step's end as stage 12, and stages 13-15 for the dense output alone.  Row s
# of A holds stage s's weights over stages 0 .. s-1, by column; row 12's first
# 12 are the 8th-order weights B.  E5 is B less the 5th-order weights and E3
# B less the 3rd-order ones, over stages 0-12.  Rows 3-6 of the 7-term dense
# output weight all 16 stages by D.
_D8_C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
         0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
         0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
         0.7777777777777778]
_D8_A = np.zeros((16, 16))
for _s, _row in enumerate([
        {0: 0.05260015195876773},
        {0: 0.0197250569845379, 1: 0.0591751709536137},
        {0: 0.02958758547680685, 2: 0.08876275643042054},
        {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
        {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
        {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
        {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
         5: -0.015319437748624402, 6: 0.008273789163814023},
        {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
         5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
        {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
         5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
         8: -0.020331201708508627},
        {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
        {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
        {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
        {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
        {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
        {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987}], start=1):
    _D8_A[_s, list(_row)] = list(_row.values())
_D8_B = _D8_A[12, :12]
_D8_E5 = np.zeros(13)
_D8_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
_D8_E3 = np.zeros(13)
_D8_E3[:12] = _D8_B
_D8_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
_D8_D = np.zeros((4, 16))
_D8_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]]
# the dense output's stages 13-15: (s, row s of A over stages 0 .. s-1, node)
_D8_EXTRA = [(s, _D8_A[s, :s], _D8_C[s]) for s in (13, 14, 15)]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # step-size controller


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _scaled_error(e: list, h: float, y: list, y_new: list, atol: float,
                  rtol: float) -> np.ndarray:
    """e h / (atol + max(|y|, |y_new|) rtol) over the components of e, in
    floats; the maximum is NaN if either side is, as np.maximum's is."""
    return np.array([x * h / (atol + (a if a > b or a != a else b) * rtol)
                     for x, a, b in zip(e, map(abs, y), map(abs, y_new))])


def _abs_max(v: list) -> float:
    """The largest |v_i|, NaN if any v_i is NaN, as ndarray.max gives it."""
    a = [abs(x) for x in v]
    total = sum(a)  # NaN exactly when some |v_i| is
    return max(a) if total == total else total


def _dense_powers(ts: list, t_old: float, h: float) -> np.ndarray:
    """The (4, k) rows x, x^2, x^3, x^4 of x = (t - t_old) / h at the k times
    ts, each power the previous one times x, as np.multiply.accumulate forms
    them.  It builds one row of powers per time and returns their transpose as
    a C-contiguous copy: the dense output's BLAS product rounds by operand
    layout, and the bits are those of a C-ordered (4, k) operand."""
    rows = []
    for t in ts:
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        rows.append((x, x2, x3, x3 * x))
    return np.array(rows).T.copy()


def _rk45_error(KT: np.ndarray, h: float, y: list, y_new: list, atol: float, rtol: float,
                d: int) -> tuple:
    """(error norm of the first d components, the error estimate of all) of a
    Dormand-Prince 5(4) step, K its 7 stages: the RMS of E.K h scaled by
    `_scaled_error`, as scipy's RK45 takes it."""
    est = KT.dot(_DP_E)
    e = _scaled_error(est[:d].tolist(), h, y, y_new, atol, rtol)
    return math.sqrt(e.dot(e)) / d ** 0.5, est


def _dop853_error(KT: np.ndarray, h: float, y: list, y_new: list, atol: float, rtol: float,
                  d: int) -> tuple:
    """(error norm, None) of a Dormand-Prince 8(5,3) step, K its 13 stages, as
    scipy's DOP853 takes it: with e5 = E5.K and e3 = E3.K over the scale of
    `_scaled_error` (h = 1 there, so each is e / scale), |h| |e5|^2 / sqrt((|e5|^2
    + 0.01 |e3|^2) d), 0 where both vanish; each |e|^2 is sqrt(e.e) ** 2, as
    np.linalg.norm(e) ** 2 rounds."""
    e5 = _scaled_error(KT.dot(_D8_E5).tolist(), 1.0, y, y_new, atol, rtol)
    e3 = _scaled_error(KT.dot(_D8_E3).tolist(), 1.0, y, y_new, atol, rtol)
    n5, n3 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
    if n5 == 0 and n3 == 0:
        return 0.0, None
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * d), None


def _rk45_dense(rhs, K: np.ndarray, t_old: float, y_old: np.ndarray, y: np.ndarray,
                h: float):
    """Shampine's quartic of the step from (t_old, y_old) by h, K its 7 stages, as
    scipy's RkDenseOutput evaluates it: sample(t) is the state at one time t, and
    sample(ts, out) writes the states at the times ts as the rows of out."""
    Q = K.T.dot(_DP_P)

    def sample(ts, out=None):
        if out is None:
            return h * np.dot(Q, _dense_powers([ts], t_old, h).ravel()) + y_old
        z = Q.dot(_dense_powers(ts, t_old, h))
        z *= h
        np.add(z.T, y_old, out=out)

    return sample


def _dop853_dense(rhs, K: np.ndarray, t_old: float, y_old: np.ndarray, y: np.ndarray,
                  h: float):
    """The 7-term interpolant of a Dormand-Prince 8(5,3) step from (t_old,
    y_old) by h to y, K its 16 stages, of which this takes stages 13-15 first,
    as scipy's DOP853 forms and Dop853DenseOutput evaluates it; sample as in
    `_rk45_dense`."""
    for s, a, c in _D8_EXTRA:
        K[s] = rhs(t_old + c * h, y_old + K[:s].T.dot(a) * h)
    delta = y - y_old
    F = np.empty((7, len(y)))
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[12] + K[0])
    F[3:] = h * np.dot(_D8_D, K)
    F = F[::-1]

    def sample(ts, out=None):
        x = ((np.array([ts] if out is None else ts) - t_old) / h)[:, None]
        z = np.zeros((len(x), len(y)))
        for i, f in enumerate(F):  # from the last term, times x and 1 - x in turn
            z += f
            z *= 1 - x if i % 2 else x
        z += y_old
        if out is None:
            return z[0]
        out[...] = z

    return sample


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta pair whose stage len(B), the field at the step's
    end, is the next step's stage 0 (first same as last)."""

    C: list           # the nodes of stages 1 .. len(B) - 1
    A: list           # their rows, each over the stages before it
    B: np.ndarray     # the step's weights over stages 0 .. len(B) - 1
    rows: int         # the stages stored, the dense output's own included
    error: Callable   # (K[:len(B) + 1].T, h, y, y_new, atol, rtol, d) -> (norm, estimate)
    dense: Callable   # (rhs, K, t_old, y_old, y, h) -> the step's sample(t[, out])
    exponent: float   # of the error norm in the step-size controller, -1 / (its order + 1)


_RK45 = _Tableau(_DP_C[1:], _DP_A[1:], _DP_B, 7, _rk45_error, _rk45_dense, -1 / 5)
_DOP853 = _Tableau(_D8_C[1:12], [_D8_A[s, :s] for s in range(1, 12)], _D8_B, 16,
                   _dop853_error, _dop853_dense, -1 / 8)


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_end: float,
                  rtol: float, atol: float, d: int, exponent: float) -> float:
    """First step size by the rule of Hairer, Norsett & Wanner (II.4) on the
    first d components, for a method whose error norm has the controller's
    `exponent`, never longer than the interval; IntegrationError if the rule's
    first estimate is 0, which happens when the scaled RMS of f0 overflows."""
    span = abs(t_end - t0)
    scale = atol + np.abs(y0[:d]) * rtol
    d0, d1 = _rms(y0[:d] / scale), _rms(f0[:d] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0:  # d1 overflowed, or d0 / d1 underflowed
        raise IntegrationError(f"no initial step at t={t0:.6g}, y={y0[:d]}: the "
                               f"derivative {f0[:d]} is too large for the error norm",
                               last_time=t0)
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1[:d] - f0[:d]) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -exponent
    return min(100 * h0, h1, span)


def _bisect(f, a: float, b: float) -> float:
    """A zero of f between a and b, f(a) >= 0 >= f(b), to within _ROOT_TOL (1 + |x|):
    the midpoint of the bracket, halved on the sign of f until it is that narrow."""
    x = (a + b) / 2
    while abs(b - a) > _ROOT_TOL * (1 + abs(x)):
        if f(x) >= 0:
            a = x
        else:
            b = x
        x = (a + b) / 2
    return x


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are handled below
def _integrate_flat(rhs, y0: np.ndarray, t0: float, t_end: float,
                    opts: IntegratorOptions, grid: np.ndarray,
                    event=None, event_error=None, d: Optional[int] = None,
                    tableau: _Tableau = _RK45) -> np.ndarray:
    """Integrate dy/dt = rhs(t, y) and return samples at grid points.

    `grid` must start at t0 and end at t_end, and rhs may return any float
    sequence.  Adaptive mode is an embedded Runge-Kutta stepper of its own
    over `tableau`: `_RK45`, Dormand-Prince 5(4), or `_DOP853`, Dormand-Prince
    8(5,3).  Its error norm is the tableau's on atol + max(|y|, |y_new|) rtol
    (rtol at least 100 eps), with safety factor 0.9, step factors within
    [0.2, 10] and no growth right after a rejection.  Each step's grid points
    are sampled with one call of its dense output, which DOP853 forms only on
    such a step, taking three more stages; a downward zero crossing of
    event(t, y) over a step is located on that dense output by bisection,
    and event_error(t) raised at the crossing time.  Fixed mode takes equal
    substeps of size <= opts.step between consecutive grid points, each one
    call of `_substep(rhs)` on the state as a float sequence, which hands rhs
    arrays that are never written (see `_rk4`); an interval whose substep
    count would pass max_steps, an infinite count included, fails before its
    first substep.

    Only the first d components of y (all by default) enter the initial-step
    rule, and at first the error norm; the rest ride along on the steps these
    choose.  Their own error estimate is still taken on every step the first
    d accept: the RMS of their error over one scale, atol + rtol times the
    largest of them at either end of the step, as suits the entries of a
    matrix.  At the first step on which it is 1 or more (or NaN) the rest join
    the error norm, as the larger of the two, for the remainder of the solve:
    so the rest are held to the same tolerance, and a non-finite stage among
    them is rejected like any other.  Both norms read the one error estimate
    of all the components, and each stage sum, step and dense output is one
    product over all of them.  BLAS rounds a matrix-vector product
    differently for different widths, so the first d components' values
    agree with those of a solve of them alone to roundoff, not bit for bit.
    Errors name the first d components.  Only `_RK45` splits the norm.

    The sums over stages (the stage arguments, the step, the error estimates
    and the dense output) are BLAS products on the stored stages, the same
    calls on the same operands as scipy's RK45 or DOP853 makes, and each of
    the error norm's sums of squares is a BLAS dot; everything elementwise
    around them is done in place or in Python floats, in the order of the
    array expressions, so the bits are those of scipy's RK45 or DOP853.  In
    adaptive mode rhs gets each trial stage's argument in one scratch array
    that the next stage overwrites, so rhs must not keep it; the step's end
    state, which rhs gets for the last stage and the event sees, the dense
    output's stage arguments and the samples are fresh arrays.

    rhs is not checked for finite values stage by stage.  In adaptive mode a
    non-finite stage makes the error estimate non-finite, so the step is
    rejected and h shrinks by the minimum factor; if h falls below the
    smallest step at t after such a rejection, NonFiniteError names t and y.
    The field at the start is checked once, and fixed mode checks the state's
    floats at each grid point, as the substep returns them.  numpy's overflow
    and invalid-value warnings are silenced here, since these checks report
    them.
    """
    d = len(y0) if d is None else d
    out = np.empty((len(grid), len(y0)))
    out[0] = y0
    nsteps, grid_times = 0, grid.tolist()
    if opts.method == "fixed_rk4":
        step, y, t = _substep(rhs), y0.tolist(), t0
        for i in range(1, len(grid)):
            span = grid_times[i] - t
            ratio = span / opts.step - 1e-12  # inf for a subnormal step
            left = opts.max_steps - nsteps
            if left < 1 or not ratio <= left:  # more substeps than are left
                raise IntegrationError(
                    f"max_steps={opts.max_steps} exceeded at t={t:.6g}: step={opts.step!r} "
                    f"needs {max(1.0, span / opts.step):.3g} substeps to reach "
                    f"t={grid_times[i]:.6g}, and {left} are left", last_time=t)
            nsub = max(1, int(math.ceil(ratio)))
            h = span / nsub
            nsteps += nsub
            for _ in range(nsub):
                y = step(t, y, h)
                t += h
            t = grid_times[i]  # land exactly, avoiding accumulated rounding
            out[i] = y
            if not all(map(math.isfinite, y)):
                raise NonFiniteError(f"non-finite state at t={t:.6g}, y={out[i, :d]}")
        return out

    if not np.all(np.isfinite(y0)):
        raise ValueError("all components of the initial state must be finite")
    split = d < len(y0)
    if split and tableau is not _RK45:
        raise ValueError("only the RK45 tableau splits the error norm")
    rtol, atol = max(opts.rel_tol, 100 * _EPS), opts.abs_tol
    error, dense, exponent = tableau.error, tableau.dense, tableau.exponent
    fsal = len(tableau.B)
    K = np.empty((tableau.rows, len(y0)))  # stages; row fsal is the field at the step's end
    KT, KB, K0, Kf = K[:fsal + 1].T, K[:fsal].T, K[0], K[fsal]
    joint = False  # whether the rest has joined the first d in the error norm
    root_rest = (len(y0) - d) ** 0.5  # the rest's RMS norm's sqrt(size)
    # stage s: its row of K, the first s stages as columns, its row of A, its node
    stages = [(K[s], K[:s].T, a, c)
              for s, (a, c) in enumerate(zip(tableau.A, tableau.C), start=1)]
    dy = np.empty(len(y0))  # each stage's sum, then its argument y + h sum
    hh = np.empty(())  # the trial step's h, as numpy takes a scalar operand fastest
    K0[...] = rhs(t0, y0)
    if not np.all(np.isfinite(K0)):
        raise NonFiniteError(f"non-finite vector field at t={t0:.6g}, y={y0[:d]}")
    h_abs = _initial_step(rhs, t0, y0, K0, t_end, rtol, atol, d, exponent)
    t, y, y_list = t0, y0, y0.tolist()
    rest_max = _abs_max(y_list[d:]) if split else None  # the rest's largest |entry| at t
    g = event(t0, y0) if event is not None else None
    i = 1
    while t < t_end:
        nsteps += 1
        if nsteps > opts.max_steps:
            raise IntegrationError(f"max_steps={opts.max_steps} exceeded at t={t:.6g}",
                                   last_time=t)
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                if rejected and not math.isfinite(err):
                    raise NonFiniteError(f"non-finite vector field: the steps from "
                                         f"t={t:.6g}, y={y[:d]} down to h={min_step:.3g} "
                                         f"all met a non-finite stage")
                raise IntegrationError(f"adaptive step failed at t={t:.6g}, y={y[:d]}",
                                       last_time=t)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            hh[()] = h
            for Ks, KTs, a, c in stages:
                KTs.dot(a, out=dy)
                dy *= hh
                dy += y
                Ks[...] = rhs(t + c * h, dy)
            KB.dot(tableau.B, out=dy)
            dy *= hh
            y_new = y + dy
            Kf[...] = rhs(t + h, y_new)
            new_list = y_new.tolist()
            err, est = error(KT, h, y_list, new_list, atol, rtol, d)
            if split and (joint or err < 1):
                new_rest_max = _abs_max(new_list[d:])
                e = est[d:] * (h / (atol + max(rest_max, new_rest_max) * rtol))
                err_rest = math.sqrt(e.dot(e)) / root_rest
                joint = joint or not err_rest < 1
                if joint and (err_rest > err or math.isnan(err_rest)):
                    err = err_rest
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** exponent)  # 0.2 if err is NaN
            rejected = True
        t_old, y_old, t, y, y_list = t, y, t_new, y_new, new_list
        if split:  # an accepted step has err < 1, so its rest was measured
            rest_max = new_rest_max
        if event is not None:
            g_old, g = g, event(t, y)
            if g_old >= 0 >= g:  # a terminal event of direction -1
                sample = dense(rhs, K, t_old, y_old, y, h)
                raise event_error(_bisect(lambda s: event(s, sample(s)), t_old, t))
        j = bisect_right(grid_times, t)
        if j > i:
            dense(rhs, K, t_old, y_old, y, h)(grid_times[i:j], out[i:j])
            i = j
        K0[...] = Kf
    if i < len(grid):
        raise IntegrationError(f"integration stopped at t={t:.6g} before t_end",
                               last_time=t)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite state produced during integration")
    return out


def _solve(model: HamiltonianModel, init: ExtendedState, t_end: float,
           opts: IntegratorOptions, grid: np.ndarray, tangent: bool) -> tuple:
    """(rows [q, p, S] of the flow at the grid times, J or None).  With
    `tangent`, J = dPhi solves dJ/dt = A J, J(t0) = I, where A = d(field)/dy,
    on the flow's own steps (see `integrate`), by the model's `tangent_rhs`,
    whose first rows are `field` itself, called once per right-hand side."""
    y0 = init.flat()
    if not tangent:
        return _integrate_flat(model.field, y0, init.t, t_end, opts, grid), None
    d = len(y0)
    zs = _integrate_flat(model.tangent_rhs, np.concatenate([y0, np.eye(d).ravel()]), init.t,
                         t_end, opts, grid, d=d)
    return zs[:, :d], zs[:, d:].reshape(-1, d, d)


def integrate(model: HamiltonianModel, init: ExtendedState, t_end: float,
              opts: Optional[IntegratorOptions] = None,
              tangent: bool = False) -> Trajectory:
    """Integrate the contact equations from init.t to t_end and sample the flow.

    With `tangent`, the fundamental matrix J = dPhi of the variational
    equations dJ/dt = A J is integrated on the same steps, by the model's
    `tangent_rhs`, and returned as `Trajectory.J`.  The steps are chosen for
    (q, p, S) alone, so q, p, S, H and div agree with those of the solve
    without J to roundoff, as long as J's own error estimate (RMS over its
    entries, relative to rel_tol times its largest entry) stays under 1 on
    them.  They are not bit for bit the same: each stage sum is one product
    over J's columns too, and BLAS rounds it by its width.  Where J's estimate
    does not stay under 1, as from a rest point, where the flow's steps are
    long and J still turns, J joins the error norm from that step on and the
    flow is sampled on the shorter steps that follow."""
    opts = opts or IntegratorOptions()
    model.check_dimensions(init)
    if t_end <= init.t:
        raise ValueError(f"t_end={t_end} must exceed the initial time {init.t}")
    n = model.n
    grid = sample_grid(init.t, t_end, opts.sample_interval)
    ys, J = _solve(model, init, t_end, opts, grid, tangent)
    H = rowwise(model.value, grid, ys)
    dv = -(n + 1) * rowwise(model.grad, grid, ys)[:, 2 * n]
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(dv))):
        raise NonFiniteError("non-finite H or divergence at a sample point")
    return Trajectory(times=grid, q=ys[:, :n].copy(), p=ys[:, n:2 * n].copy(),
                      S=ys[:, 2 * n].copy(), H=H, div=dv, J=J)


# ---------------------------------------------------------------------------
# Flow diagnostics
# ---------------------------------------------------------------------------

def divergence(model: HamiltonianModel, x: ExtendedState) -> float:
    """Divergence of the contact flow in the (q, p, S) volume sense: -(n+1) dH/dS."""
    return -(model.n + 1) * float(model.partials(x)[2 * model.n])


def measure_weight(model: HamiltonianModel, x: ExtendedState) -> float:
    """Invariant-measure density |H|^-(n+1); defined only away from H = 0."""
    h = model.evaluate(x)
    if abs(h) <= MEASURE_EPS:
        raise SingularMeasureError(
            f"|H|={abs(h):.3g} <= {MEASURE_EPS:.3g}: invariant measure is singular on H=0")
    return abs(h) ** (-(model.n + 1))


def observable_rate(model: HamiltonianModel, observable: HamiltonianModel,
                    x: ExtendedState) -> float:
    """Total time derivative of an observable F(q, p, S, t) along the flow.

    dF/dt = -H dF/dS + p_a (dF/dS dH/dp_a - dF/dp_a dH/dS)
            + {F, H}_(q,p) + dF/dt.
    """
    n = model.n
    h = model.evaluate(x)
    dH = model.partials(x)
    dF = observable.partials(x)
    poisson = np.dot(dF[:n], dH[n:2 * n]) - np.dot(dF[n:2 * n], dH[:n])
    contact = np.dot(x.p, dF[2 * n] * dH[n:2 * n] - dH[2 * n] * dF[n:2 * n])
    return float(-h * dF[2 * n] + contact + poisson + dF[2 * n + 1])


def _cumulative_trapezoid(times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int x dt from times[0] to each sample, by the trapezoid rule on the samples."""
    dt = np.diff(times)
    return np.concatenate([[0.0], np.cumsum(0.5 * dt * (x[1:] + x[:-1]))])


def _decay_factor(traj: Trajectory) -> np.ndarray:
    """D = exp(-int dH/dS dtau), dH/dS = -div/(n+1), by the trapezoid rule on the samples."""
    return np.exp(-_cumulative_trapezoid(traj.times, -traj.div / (traj.n + 1)))


def predicted_hamiltonian(traj: Trajectory) -> np.ndarray:
    """H(t) = H_0 D (see `_decay_factor`) by the decay law dH/dt = -H dH/dS of an
    autonomous H; a time-dependent H adds dH/dt to the law, which this leaves out."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return traj.H[0] * _decay_factor(traj)


def recover_S_linear(model: HamiltonianModel, q: float, p: float, t: float,
                     H0: float) -> float:
    """Solve the decay law of the linear-dissipation system for S(q, p, t)."""
    params = model.params
    if model.name != "linear_dissipation" or not {"gamma", "V", "m"} <= params.keys():
        raise UnsupportedModelError("recover_S_linear needs a linear-dissipation model")
    gamma, m, V = params["gamma"], params["m"], params["V"]
    if gamma == 0:
        raise ZeroDivisionError("recover_S_linear is undefined for gamma = 0")
    return (H0 * math.exp(-gamma * t) - p * p / (2.0 * m) - V(q)) / gamma


# ---------------------------------------------------------------------------
# Variational equations / volume contraction
# ---------------------------------------------------------------------------

def jacobian_determinant_series(model: HamiltonianModel, init: ExtendedState,
                                t_end: float,
                                opts: Optional[IntegratorOptions] = None) -> tuple:
    """(times, det dPhi_t) sampled like `integrate`: the volume-contraction
    factor, equal to exp(int divergence dt) along the flow up to integration
    tolerance and identically 1 for S-independent models (Liouville's theorem)."""
    opts = opts or IntegratorOptions()
    model.check_dimensions(init)
    if t_end <= init.t:
        raise ValueError(f"t_end={t_end} must exceed the initial time {init.t}")
    grid = sample_grid(init.t, t_end, opts.sample_interval)
    _, J = _solve(model, init, t_end, opts, grid, tangent=True)
    return grid, np.linalg.det(J)
