"""Contact Hamilton-Jacobi: residuals, the level function, characteristic recovery."""

import dataclasses

import numpy as np
import pytest

import contactmech as cm
from contactmech import diagnostics
from contactmech.errors import DimensionMismatchError, NonFiniteError, UnsupportedModelError


def free_particle_field():
    """S = q^2 / (2 (1 + t)) solves the conservative free-particle equation."""
    return cm.PrincipalFunctionField(
        n=1,
        S=lambda q, t: q[0] ** 2 / (2 * (1 + t)),
        dS_dq=lambda q, t: np.array([q[0] / (1 + t)]),
        dS_dt=lambda q, t: -q[0] ** 2 / (2 * (1 + t) ** 2),
    )


def test_hj_residual_conservative_free_particle():
    model = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2)
    field = free_particle_field()
    for q in (-1.5, 0.3, 2.0):
        for t in (0.0, 1.0, 4.0):
            assert abs(cm.hj_residual(model, field, [q], t)) < 1e-14


def test_hj_residual_zero_solution_of_homogeneous_case():
    model = cm.make_custom(1, lambda t, y: 0.1 * y[2])
    zero = cm.PrincipalFunctionField(
        n=1, S=lambda q, t: 0.0,
        dS_dq=lambda q, t: np.array([0.0]),
        dS_dt=lambda q, t: 0.0)
    assert cm.hj_residual(model, zero, [1.3], 2.0) == 0.0


def test_hj_residual_oscillator_grid():
    """The quadratic ansatz and the quadratic family solve the damped-oscillator
    equation on a grid, and a batch call equals the point calls bit for bit."""
    gamma, m = 0.1, 1.0
    model = cm.make_damped_parametric(m, gamma, 0.0)
    ric = cm.solve_riccati(0.0, gamma, 1.0, np.linspace(0.0, 5.0, 51))
    field = cm.principal_field_from_riccati(m, ric)
    family = cm.quadratic_principal_family(m, 0.0, gamma, np.linspace(0.0, 5.0, 51), 1.0)
    qs = np.linspace(-2, 2, 50)
    for f in (field, family):
        worst = 0.0
        for t in np.linspace(0, 5, 50):
            row = cm.hj_residual(model, f, qs[None, :], float(t))
            points = [cm.hj_residual(model, f, [q], float(t)) for q in qs]
            assert row.shape == (50,) and row.tolist() == points  # bit for bit
            worst = max(worst, float(np.max(np.abs(row))))
        assert worst < 1e-8


@pytest.mark.parametrize("bad", ["S", "dS_dq"])
def test_hj_residual_batch_rejects_one_nan(bad):
    """One non-finite point fails the whole batch, as it fails a point call."""
    def poisoned(value):
        return lambda q, t: np.where(q[0] == 0.5, np.nan, value(q, t))
    field = free_particle_field()
    field = cm.PrincipalFunctionField(
        n=1, S=poisoned(field.S) if bad == "S" else field.S,
        dS_dq=poisoned(field.dS_dq) if bad == "dS_dq" else field.dS_dq,
        dS_dt=field.dS_dt)
    model = cm.make_damped_parametric(1.0, 0.1, 0.0)
    assert cm.hj_residual(model, field, [[-0.5, 0.0]], 1.0).shape == (2,)
    with pytest.raises(NonFiniteError):
        cm.hj_residual(model, field, [[-0.5, 0.0, 0.5, 1.0]], 1.0)
    with pytest.raises(NonFiniteError):
        cm.hj_residual(model, field, [0.5], 1.0)


def test_hj_residual_batch_dimensions():
    model = cm.make_damped_parametric(1.0, 0.1, 0.0)
    field = free_particle_field()
    two_d = cm.PrincipalFunctionField(
        n=2, S=lambda q, t: q[0] + q[1], dS_dq=lambda q, t: np.ones_like(q),
        dS_dt=lambda q, t: 0.0 * q[0])
    with pytest.raises(DimensionMismatchError):  # model n=1, state n=2
        cm.hj_residual(model, two_d, [[0.1, 0.2], [0.3, 0.4]], 1.0)
    short = cm.PrincipalFunctionField(
        n=1, S=field.S, dS_dq=lambda q, t: q[:, :2], dS_dt=field.dS_dt)
    with pytest.raises(DimensionMismatchError):  # two p for three points
        cm.hj_residual(model, short, [[0.1, 0.2, 0.3]], 1.0)


def _counting(model, name, calls):
    """The model with its block closure `name` recording the shape of each call."""
    f = getattr(model, name)

    def counted(t, Y):
        calls.append(Y.shape)
        return f(t, Y)
    return dataclasses.replace(model, **{name: counted})


def test_one_hj_residual_call_calls_value_once_on_its_points():
    calls = []
    model = _counting(cm.make_damped_parametric(1.0, 0.1, 1.0), "value", calls)
    field = cm.principal_field_from_riccati(
        1.0, cm.solve_riccati(1.0, 0.1, 0.4, np.linspace(0.0, 1.0, 51)))
    res = cm.hj_residual(model, field, np.linspace(-2.0, 2.0, 50)[None, :], 0.5)
    assert calls == [(50, 3)]
    assert np.max(np.abs(res)) < 1e-8


def test_a_non_finite_time_is_refused_before_the_field_is_called():
    """The Riccati lookup would refuse t = nan as outside its solved range; the
    residual's own error comes first."""
    field = cm.principal_field_from_riccati(
        1.0, cm.solve_riccati(1.0, 0.1, 0.4, np.linspace(0.0, 1.0, 51)))
    model = cm.make_damped_parametric(1.0, 0.1, 1.0)
    for t in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteError, match=f"^non-finite time t={t}$"):
            cm.hj_residual(model, field, [0.5], t)


PARAMETRIC = "1 + 0.1*sin(0.3*t)"  # the omega of scenarios/parametric_oscillator.ini


@pytest.mark.parametrize("omega", [0.0, PARAMETRIC])
@pytest.mark.parametrize("family", [False, True])
def test_a_grid_call_equals_its_rows_at_each_time_bit_for_bit(omega, family):
    """t as j times gives the (j, k) grid whose row i is the call at t[i]
    alone, bit for bit, for both fields and for a constant and a
    time-dependent omega; one point q of shape (n,) gives the (j,) column.
    For the parametric omega, 30 values of the grid move where dS/dt takes
    omega^2 as libm's pow(w, 2) on floats, which numpy's square of an array
    does not match."""
    omega = cm.parse_expression(omega, "t", "omega") if isinstance(omega, str) else omega
    m, gamma, grid = 1.3, 0.1, np.linspace(0.0, 1.2, 201)
    model = cm.make_damped_parametric(m, gamma, omega)
    field = cm.quadratic_principal_family(m, omega, gamma, grid, 0.4) if family else \
        cm.principal_field_from_riccati(m, cm.solve_riccati(omega, gamma, 0.4, grid))
    qs, ts = np.linspace(-2.0, 2.0, 50), np.linspace(0.0, 1.2, 500)
    res = cm.hj_residual(model, field, qs[None, :], ts)
    rows = np.array([cm.hj_residual(model, field, qs[None, :], float(t)) for t in ts])
    assert res.shape == (500, 50) and res.tobytes() == rows.tobytes()
    column = cm.hj_residual(model, field, [0.7], ts)
    points = np.array([cm.hj_residual(model, field, [0.7], float(t)) for t in ts])
    assert column.shape == (500,) and column.tobytes() == points.tobytes()
    assert np.max(np.abs(res)) < 1e-8


def test_check_hj_residual_calls_value_once_on_its_grid():
    """The diagnostic's 50 x 50 grid is one call of the model's value, on
    2500 rows of (q, p, S)."""
    m, gamma = 1.0, 0.1
    model = cm.make_damped_parametric(m, gamma, cm.parse_expression(PARAMETRIC, "t"))
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.01)
    traj = cm.integrate(model, cm.make_state(1.0, 0.0, 0.3, 0.0), 1.2, opts)
    calls = []
    result = diagnostics.check_hj_residual(_counting(model, "value", calls), traj, {})
    assert calls == [(2500, 3)]
    assert result["observed"] < diagnostics.CHECKS["hj_residual"].threshold


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_time_in_a_grid_is_refused_before_the_field_is_called(bad):
    """The first non-finite time of t is named, and no closure is called."""
    calls = []

    def recorded(name):
        return lambda q, t: calls.append(name)
    field = cm.PrincipalFunctionField(n=1, S=recorded("S"), dS_dq=recorded("dS_dq"),
                                      dS_dt=recorded("dS_dt"))
    model = cm.make_damped_parametric(1.0, 0.1, 1.0)
    with pytest.raises(NonFiniteError, match=f"^non-finite time t={bad}$"):
        cm.hj_residual(model, field, [[0.5, 1.0]], np.array([0.0, 0.5, bad, float("nan")]))
    assert calls == []


def test_a_grid_raises_the_error_of_its_first_failing_time():
    """A non-finite state or H on the grid is the error of the call at the
    first time at which either occurs."""
    def S(q, t):
        return np.where(np.asarray(t) >= 2.0, np.nan, 0.0 * q[0])
    field = cm.PrincipalFunctionField(n=1, S=S, dS_dq=lambda q, t: np.array([1e200 * t + 0.0 * q[0]]),
                                      dS_dt=lambda q, t: 0.0)
    model = cm.make_damped_parametric(1.0, 0.1, 1.0)
    qs = [[0.5, 1.0]]
    for ts in ([0.0, 1.0, 2.0], [0.0, 2.0, 3.0]):  # p*p overflows from t = 1; S is NaN from 2
        with pytest.raises(NonFiniteError) as grid:
            cm.hj_residual(model, field, qs, np.array(ts))
        first = next(t for t in ts if t)
        with pytest.raises(NonFiniteError) as alone:
            cm.hj_residual(model, field, qs, first)
        assert str(grid.value) == str(alone.value)


@pytest.mark.parametrize("m,C0,q,omega,gamma", [
    (2.0, 0.7, 1.5, 1.0, 0.1),
    (0.5, -0.4, -0.8, 0.0, 0.3),
])
def test_principal_field_from_riccati_at_initial_time(m, C0, q, omega, gamma):
    """At t0, lambda = 1 and lambda' = C = C0, so the ansatz reduces to
    S = (m/2) C0 (q-1)^2 + m C0 (q-1) + (m/2) C0 with dS/dq = m C0 q."""
    t0 = 0.0
    ric = cm.solve_riccati(omega, gamma, C0, np.linspace(t0, 2.0, 21))
    field = cm.principal_field_from_riccati(m, ric)
    r = q - 1.0
    assert field.S(np.array([q]), t0) == pytest.approx(
        0.5 * m * C0 * r * r + m * C0 * r + 0.5 * m * C0, rel=1e-12)
    assert field.dS_dq(np.array([q]), t0)[0] == pytest.approx(m * C0 * q, rel=1e-12)


def test_field_partials_match_finite_differences():
    """Honesty check on the closed-form dS/dq and dS/dt of the ansatz field."""
    gamma, m = 0.1, 1.0
    ric = cm.solve_riccati(0.0, gamma, 0.7, np.linspace(0.0, 5.0, 51))
    field = cm.principal_field_from_riccati(m, ric)
    h = 1e-6
    for q in (-1.0, 0.4, 1.7):
        for t in (0.5, 2.0, 4.5):
            fd_q = (field.S([q + h], t) - field.S([q - h], t)) / (2 * h)
            fd_t = (field.S([q], t + h) - field.S([q], t - h)) / (2 * h)
            assert field.dS_dq([q], t)[0] == pytest.approx(fd_q, rel=1e-5, abs=1e-7)
            assert field.dS_dt([q], t) == pytest.approx(fd_t, rel=1e-5, abs=1e-7)


def test_extended_F_examples(linear_model):
    x = (1.0, 0.0, 0.0, 0.0)
    h = linear_model.evaluate(cm.make_state(*x))
    assert cm.extended_F(linear_model, 1.0, 0.0, 0.0, 0.0, h) == 0.0
    assert cm.extended_F(linear_model, 1.0, 0.0, 0.0, 0.0, 1.0) == pytest.approx(0.5)
    zero = cm.make_custom(1, lambda t, y: 0.0)
    assert cm.extended_F(zero, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_characteristic_b_quadratic_family():
    gamma, m, C0 = 0.1, 1.0, 0.2
    grid = np.linspace(0.0, 10.0, 101)
    fam = cm.quadratic_principal_family(m, 0.0, gamma, grid, C0)
    # t = 0: dC/dC0 = 1, so b = (m/2) q^2
    assert cm.characteristic_b(fam, [C0], [1.0], 0.0)[0] == pytest.approx(0.5, rel=1e-6)
    assert cm.characteristic_b(fam, [C0], [0.0], 3.0)[0] == 0.0
    # closed-form dS/dc against the finite-difference fallback over the family
    fd_only = cm.PrincipalFunctionField(n=1, S=fam.S, dS_dq=fam.dS_dq,
                                        dS_dt=fam.dS_dt, family=fam.family)
    for t in (0.0, 2.5, 7.0):
        closed = cm.characteristic_b(fam, [C0], [1.2], t)[0]
        fd = cm.characteristic_b(fd_only, [C0], [1.2], t)[0]
        assert fd == pytest.approx(closed, rel=1e-4, abs=1e-8)


def test_characteristic_b_requires_family():
    ric = cm.solve_riccati(0.0, 0.1, 0.5, np.linspace(0.0, 5.0, 51))
    field = cm.principal_field_from_riccati(1.0, ric)
    with pytest.raises(UnsupportedModelError):
        cm.characteristic_b(field, [0.5], [1.0], 0.0)


@pytest.fixture(scope="module")
def free_particle_setup():
    gamma, m, C0 = 0.1, 1.0, 0.2
    q0 = 1.0
    model = cm.make_damped_parametric(m, gamma, 0.0)
    opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.05)
    S0 = 0.5 * m * C0 * q0 ** 2  # field-consistent seed: S0 = S(q0, 0)
    traj = cm.integrate(model, cm.make_state(q0, m * q0 * C0, S0, 0.0), 10.0, opts)
    fam = cm.quadratic_principal_family(m, 0.0, gamma, traj.times, C0)
    return model, traj, fam, gamma, m, C0


def test_verify_b_condition_free_particle(free_particle_setup):
    model, traj, fam, gamma, m, C0 = free_particle_setup
    res = cm.verify_b_condition(model, fam, [C0], traj)
    assert np.max(np.abs(res)) < 1e-6
    b = np.array([cm.characteristic_b(fam, [C0], traj.q[i], traj.times[i])[0]
                  for i in range(len(traj))])
    assert np.max(np.abs(b / b[0] - np.exp(-gamma * traj.times))) < 1e-6


def test_verify_b_condition_calls_grad_once_on_the_samples(free_particle_setup):
    model, traj, fam, gamma, m, C0 = free_particle_setup
    calls = []
    res = cm.verify_b_condition(_counting(model, "grad", calls), fam, [C0], traj)
    assert calls == [(len(traj), 3)]
    assert np.array_equal(res, cm.verify_b_condition(model, fam, [C0], traj))


def test_verify_b_condition_conservative_constant():
    """dH/dS = 0 reduces the condition to classical constancy of b."""
    m, C0 = 1.0, 0.3
    model = cm.make_custom(1, lambda t, y: y[1] ** 2 / (2 * m))
    # family for the conservative free particle: S = (m/2) C q^2, C' = -C^2
    opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.05)
    traj = cm.integrate(model, cm.make_state(1.0, m * C0, 0.0, 0.0), 5.0, opts)
    fam = cm.quadratic_principal_family(m, 0.0, 0.0, traj.times, C0)
    res = cm.verify_b_condition(model, fam, [C0], traj)
    assert np.max(np.abs(res)) < 1e-6
    b = np.array([cm.characteristic_b(fam, [C0], traj.q[i], traj.times[i])[0]
                  for i in range(0, len(traj), 10)])
    assert np.max(np.abs(b - b[0])) < 1e-6


def test_verify_b_condition_needs_three_samples(free_particle_setup):
    model, traj, fam, gamma, m, C0 = free_particle_setup
    short = cm.Trajectory(times=traj.times[:2], q=traj.q[:2], p=traj.p[:2],
                          S=traj.S[:2], H=traj.H[:2], div=traj.div[:2])
    with pytest.raises(ValueError):
        cm.verify_b_condition(model, fam, [C0], short)


def test_verify_b_condition_needs_the_model_dimension(free_particle_setup):
    model, traj, fam, gamma, m, C0 = free_particle_setup
    wide = cm.Trajectory(times=traj.times, q=np.hstack([traj.q, traj.q]),
                         p=np.hstack([traj.p, traj.p]), S=traj.S, H=traj.H, div=traj.div)
    with pytest.raises(DimensionMismatchError, match="has n=1 but the trajectory has n=2"):
        cm.verify_b_condition(model, fam, [C0], wide)


def test_characteristic_equivalence(free_particle_setup):
    """Trajectories launched from p = dS/dq stay on the field's graph, and the
    trajectory's S matches S(q(t), t) when seeded consistently."""
    model, traj, fam, gamma, m, C0 = free_particle_setup
    # seeding: p0 = dS/dq(q0, 0) = m C0 q0 and S0 = S(q0, 0) = (m/2) C0 q0^2
    assert traj.p[0, 0] == pytest.approx(fam.dS_dq(traj.q[0], 0.0)[0], rel=1e-12)
    assert traj.S[0] == pytest.approx(fam.S(traj.q[0], 0.0), rel=1e-12)
    for i in range(0, len(traj), 20):
        t = traj.times[i]
        assert traj.p[i, 0] == pytest.approx(fam.dS_dq(traj.q[i], t)[0], abs=1e-5)
        assert traj.S[i] == pytest.approx(fam.S(traj.q[i], t), abs=1e-5)
    # dS/dt along the flow equals p dH/dp - H
    i = len(traj) // 2
    x = traj.state(i)
    d = model.partials(x)
    sdot_flow = x.p[0] * d[1] - model.evaluate(x)
    fd = (traj.S[i + 1] - traj.S[i - 1]) / (traj.times[i + 1] - traj.times[i - 1])
    assert abs(fd - sdot_flow) < 1e-5


def test_residual_linearity(linear_model):
    """Residual of H1 + H2 = residual contributions + a single dS/dt term."""
    field = free_particle_field()
    h1 = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2)
    h2 = cm.make_custom(1, lambda t, y: 0.3 * y[0] + 0.1 * y[2])
    combined = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2 + 0.3 * y[0] + 0.1 * y[2])
    q, t = [0.7], 1.3
    r1 = cm.hj_residual(h1, field, q, t)
    r2 = cm.hj_residual(h2, field, q, t)
    r12 = cm.hj_residual(combined, field, q, t)
    extra_dSdt = field.dS_dt(np.array(q), t)
    assert r12 == pytest.approx(r1 + r2 - extra_dSdt, rel=1e-12)


def test_family_cache_is_bounded(monkeypatch):
    """Per-c Riccati solves are kept for the most recent c values only."""
    from contactmech import hamilton_jacobi as hj
    solved = []
    real = hj.solve_riccati
    monkeypatch.setattr(hj, "solve_riccati", lambda *a: solved.append(a[2]) or real(*a))
    fam = cm.quadratic_principal_family(1.0, 0.0, 0.1, np.linspace(0, 2, 21), 0.2)
    size = hj.FAMILY_CACHE_SIZE
    cs = [0.2 + 0.01 * i for i in range(1, 2 * size + 1)]
    for c in cs + cs[-size:]:
        fam.family([1.0], [c], 1.0)
    assert len(solved) == 1 + len(cs)  # the last `size` values came from the cache
    fam.family([1.0], [cs[0]], 1.0)
    assert len(solved) == 2 + len(cs)  # the oldest was evicted and is solved again


def test_family_mixed_derivative_nonsingular():
    """d^2 S / dq dc != 0 at probe points (the recovery hypothesis)."""
    fam = cm.quadratic_principal_family(1.0, 0.0, 0.1, np.linspace(0, 5, 51), 0.2)
    h = 1e-5
    for (q, t) in ((0.5, 0.0), (1.0, 2.0), (1.5, 4.0)):
        bp = cm.characteristic_b(fam, [0.2], [q + h], t)[0]
        bm = cm.characteristic_b(fam, [0.2], [q - h], t)[0]
        assert abs((bp - bm) / (2 * h)) > 1e-3
