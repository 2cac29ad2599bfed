"""The contact Hamilton-Jacobi equation, solved by ansatz and inverted.

For the damped oscillator family the equation

    (1/2m) (dS/dq)^2 + (m/2) w(t)^2 q^2 + gamma S = -dS/dt

is solved by a quadratic ansatz whose coefficients obey a Riccati equation
(C) and the damped Newton equation (lambda).  This script evaluates the
residual of that solution on a grid, checks the characteristic condition
b' = -(dH/dS) b that makes db/dc-inversion legitimate, and recovers the
trajectory q(t) from the family of solutions.

Run:  python3 demos/04_hamilton_jacobi.py
"""

import os

import numpy as np

import contactmech as cm
from contactmech.svgplot import line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

m, gamma = 1.0, 0.1
model = cm.make_damped_parametric(m, gamma, 0.0)

# the ansatz field: S = (m/2) C (q - lam)^2 + m lam' (q - lam) + (m/2) lam lam'
ric = cm.solve_riccati(0.0, gamma, 1.0, np.linspace(0.0, 5.0, 101))
field = cm.principal_field_from_riccati(m, ric)

# one call for the whole grid: q has shape (n, k) = (1, 50), t holds 50 times
qs = np.linspace(-2, 2, 50)[None, :]
res = cm.hj_residual(model, field, qs, np.linspace(0, 5, 50))
print(f"HJ residual on a 50x50 grid, q in [-2,2], t in [0,5]: "
      f"max |residual| = {np.max(np.abs(res)):.3e}")

# the level function E - H vanishes on shell
x = cm.make_state(1.0, field.dS_dq([1.0], 0.0)[0], field.S([1.0], 0.0), 0.0)
print(f"extended level function on shell: "
      f"{cm.extended_F(model, x.q, x.p, x.S, 0.0, model.evaluate(x)):.3e}")

# characteristic recovery: b = dS/dC0 decays like e^{-gamma t} along the flow
q0, C0 = 1.0, 0.2
b0 = 0.5 * m * q0 ** 2
opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.05)
traj = cm.integrate(model, cm.make_state(q0, m * q0 * C0, 0.5 * m * C0 * q0 ** 2, 0.0),
                    10.0, opts)
fam = cm.quadratic_principal_family(m, 0.0, gamma, traj.times, C0)
b = np.array([cm.characteristic_b(fam, [C0], traj.q[i], traj.times[i])[0]
              for i in range(len(traj))])
res_b = cm.verify_b_condition(model, fam, [C0], traj)
print(f"characteristic condition b' + gamma b along the flow: "
      f"max |residual| = {np.max(np.abs(res_b)):.3e}")
print(f"b(t)/b0 vs e^-gamma t: max deviation = "
      f"{np.max(np.abs(b / b[0] - np.exp(-gamma * traj.times))):.3e}")

# inverting b = b0 e^{-gamma t} for q(t)
q_rec = cm.trajectory_from_hj(m, gamma, b0, C0, ric=cm.solve_riccati(
    0.0, gamma, C0, traj.times), t=traj.times)
print(f"trajectory recovered from the family: max |q - direct| = "
      f"{np.max(np.abs(q_rec - traj.q[:, 0])):.3e}")

line_chart(os.path.join(OUT, "characteristic_b.svg"),
           "the characteristic constant decays with the flow", "t", "b",
           [("b(t)", traj.times, b),
            ("b0 exp(-gamma t)", traj.times, b[0] * np.exp(-gamma * traj.times))])
print(f"plots written to {OUT}/")
