"""Shared fixtures: reference models and tightly-integrated trajectories."""

import numpy as np
import pytest

import contactmech as cm
from contactmech.model import ExtendedState


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
