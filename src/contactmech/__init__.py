"""contactmech: simulation and verification engine for contact Hamiltonian mechanics."""

from .model import (ContactState, ExtendedState, HamiltonianModel,
                    PartialDerivatives, ScalarFunction, as_scalar_fn,
                    make_caldirola_kanai, make_custom,
                    make_damped_parametric, make_linear_dissipation,
                    make_state, quadratic_potential)
from .dynamics import (IntegratorOptions, Tangent, Trajectory, divergence,
                       flow_jacobian_determinant, integrate,
                       jacobian_determinant_series, measure_weight,
                       observable_rate, predicted_hamiltonian,
                       recover_S_linear, step_rk4, vector_field)
from .transforms import (ContactMap, TransformReport, compose,
                         conformal_factor, map_ck, map_expanding,
                         map_identity, map_invariants,
                         pushforward_hamiltonian, verify, volume_factor)
from .oscillator import (ErmakovSolution, RiccatiSolution, analytic_state,
                         g_invariant, invariants_from_state, lewis_invariant,
                         quadratic_invariant_coefficients,
                         riccati_free_particle, riccati_sensitivity,
                         solve_ermakov, solve_riccati, trajectory_from_hj)
from .hamilton_jacobi import (PrincipalFunctionField, characteristic_b,
                              extended_F, hj_residual,
                              principal_field_from_riccati,
                              quadratic_principal_family, verify_b_condition)
from .expressions import Expression, parse_expression
from .scenario import ScenarioConfig, build_model, parse_scenario, serialize_scenario
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ContactState", "ExtendedState", "HamiltonianModel", "PartialDerivatives",
    "ScalarFunction", "as_scalar_fn", "make_caldirola_kanai",
    "make_custom", "make_damped_parametric", "make_linear_dissipation",
    "make_state", "quadratic_potential",
    "IntegratorOptions", "Tangent", "Trajectory", "divergence",
    "flow_jacobian_determinant", "integrate", "jacobian_determinant_series",
    "measure_weight", "observable_rate", "predicted_hamiltonian",
    "recover_S_linear", "step_rk4", "vector_field",
    "ContactMap", "TransformReport", "compose", "conformal_factor", "map_ck",
    "map_expanding", "map_identity", "map_invariants",
    "pushforward_hamiltonian", "verify", "volume_factor",
    "ErmakovSolution", "RiccatiSolution", "analytic_state", "g_invariant",
    "invariants_from_state", "lewis_invariant",
    "quadratic_invariant_coefficients", "riccati_free_particle",
    "riccati_sensitivity", "solve_ermakov", "solve_riccati",
    "trajectory_from_hj",
    "PrincipalFunctionField", "characteristic_b", "extended_F", "hj_residual",
    "principal_field_from_riccati", "quadratic_principal_family",
    "verify_b_condition",
    "Expression", "parse_expression",
    "ScenarioConfig", "build_model", "parse_scenario", "serialize_scenario",
    "errors",
]
