"""Shared fixtures: reference models and tightly-integrated trajectories."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import contactmech as cm
from contactmech import expressions
from contactmech.model import ExtendedState

# Every property but test_cli.py's run-level and dissipation-verdict ones and
# test_oscillator.py's oscillator-verdict one pins its own example count; those
# three run 25 by default and 2,000 under --hypothesis-profile=fuzz
settings.register_profile("default", max_examples=25)
settings.register_profile("fuzz", max_examples=2000, deadline=None, database=None)


@pytest.fixture(scope="session")
def linear_model():
    """H = p^2/2 + q^2/2 + 0.1 S."""
    return cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q"))


@pytest.fixture(scope="session")
def conservative_model():
    """H = p^2/2 + q^2/2 (gamma = 0)."""
    return cm.make_linear_dissipation(1.0, 0.0, cm.parse_expression("q^2/2", "q"))


@pytest.fixture(scope="session")
def parametric_model():
    """Damped harmonic oscillator in contact form: gamma = 0.1, omega = 1."""
    return cm.make_damped_parametric(1.0, 0.1, 1.0)


@pytest.fixture(scope="session")
def tight_opts():
    return cm.IntegratorOptions(method="adaptive_rk45", rel_tol=1e-10,
                                abs_tol=1e-13, sample_interval=0.01)


@pytest.fixture(scope="session")
def linear_traj(linear_model, tight_opts):
    """Damped oscillator from (1, 0, 0) over [0, 10]."""
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    return cm.integrate(linear_model, x0, 10.0, tight_opts)


@pytest.fixture(scope="session")
def parametric_traj(parametric_model, tight_opts):
    """Damped harmonic oscillator from (1, 0, 0.3) over [0, 10]."""
    x0 = cm.make_state(1.0, 0.0, 0.3, 0.0)
    return cm.integrate(parametric_model, x0, 10.0, tight_opts)


@pytest.fixture(scope="session")
def ermakov_const(parametric_traj):
    """Ermakov solution for gamma = 0.1, omega = 1 on the trajectory grid."""
    return cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, parametric_traj.times)


def four_places(lo, hi):
    """A float of [lo, hi] rounded to 4 places, as a drawn scenario prints it."""
    return st.floats(lo, hi).map(lambda x: round(x, 4))


def assert_bits_equal(a, b):
    """a and b are equal element by element, down to the sign of a zero."""
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def builtin_points():
    """(t, y) points for n = 1 built-ins, with zeros of both signs in q, p and S."""
    rng = np.random.default_rng(37)
    points = [(0.0, np.array([0.0, -0.7, 0.3])), (1.5, np.array([0.0, 0.7, -0.3])),
              (2.0, np.zeros(3)), (3.0, np.array([-0.0, -1.2, 0.0]))]
    points += [(rng.uniform(0.0, 5.0), rng.uniform(-2, 2, 3)) for _ in range(40)]
    points += [(rng.uniform(0.0, 5.0), np.array([0.0, -rng.uniform(0.1, 2), rng.uniform(-2, 2)]))
               for _ in range(10)]
    return points


def second_derivative(V):
    """V'' as a function of floats, differentiated from V's own derivative DAG
    and compiled apart from any model: the reference for a built-in's symbolic
    Hessian, which differentiates V inlined into the model's template."""
    return expressions._compile(expressions._Dag().diff(V.derivative_ast), V.variable,
                                V._where, "reference V''")


def minus_second_derivative(V, q):
    """A[1, 0] = -V''(q) of a linear-dissipation model with m = 1 and gamma = 0,
    the entry of its tangent right-hand side at p = S = t = 0 and J = I."""
    model = cm.make_linear_dissipation(1.0, 0.0, V)
    return model.tangent_rhs(0.0, np.array([q, 0.0, 0.0, *np.eye(3).ravel()]))[6]


def random_rows(n_points, seed=0, t_range=(0.0, 5.0), q_range=(0.5, 1.5)):
    """(n_points, 4) rows (q, p, S, t), the sample `cm.verify` takes."""
    return np.random.default_rng(seed).uniform(
        [q_range[0], -1.0, -1.0, t_range[0]], [q_range[1], 1.0, 1.0, t_range[1]],
        size=(n_points, 4))


def random_states(n_points, seed=0, t_range=(0.0, 5.0), q_range=(0.5, 1.5)):
    """The points of `random_rows` as states."""
    return [cm.make_state(*row) for row in random_rows(n_points, seed, t_range, q_range)]


@pytest.fixture
def built_states(monkeypatch):
    """The ExtendedStates constructed while the test runs, in order."""
    built = []
    post_init = ExtendedState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ExtendedState, "__post_init__", counting)
    return built
