"""Three independent routes to the damped-oscillator motion, cross-checked.

The damped parametric oscillator is solved four ways:

  direct   -- numeric integration of the contact Hamilton equations;
  route 1  -- transform to expanding coordinates, integrate the pushforward
              (a conservative oscillator), map back;
  route 2  -- the closed form built from the two invariants and the Ermakov
              amplitude/phase;
  route 3  -- Hamilton-Jacobi: recover q(t) from the Riccati sensitivity
              dC/dC0, which Abel's formula gives as e^{-gamma t}/lambda^2
              from the same solve's Newton companion lambda (free particle
              here; for true oscillators the Riccati function hits a pole at
              the first zero of q and the route only covers the pole-free
              interval).

The script also demonstrates that flipping the closed form's damping prefactor
to e^{+gamma t} (`growing_exponent=True`) destroys the agreement, which is why
the package ships the decaying exponent.

Run:  python3 demos/03_three_routes.py
"""

import os

import numpy as np

import contactmech as cm
from contactmech.svgplot import line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

m, gamma = 1.0, 0.1
q0, p0, S0 = 1.0, 0.2, 0.1

model = cm.make_damped_parametric(m, gamma, 0.0)  # damped free particle
opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.05)
direct = cm.integrate(model, cm.make_state(q0, p0, S0, 0.0), 10.0, opts)
ts = direct.times

# route 1: expanding coordinates
ex = cm.map_expanding(m, gamma)
K = cm.pushforward_hamiltonian(ex, model)
trajK = cm.integrate(K, ex.apply(direct.state(0)), 10.0, opts)
q1 = np.array([ex.apply_inverse(trajK.state(i)).q[0] for i in range(len(trajK))])

# route 2: invariants + Ermakov closed form
erm = cm.solve_ermakov(0.0, gamma, 1.0, 0.0, ts)
I0, G0, phi0 = cm.invariants_from_state(m, gamma, erm, direct.state(0))
q2 = np.array([cm.analytic_state(m, gamma, erm, I0, G0, phi0, float(t)).q[0]
               for t in ts])
q2_bad = np.array([cm.analytic_state(m, gamma, erm, I0, G0, phi0, float(t),
                                     growing_exponent=True).q[0] for t in ts])

# route 3: Hamilton-Jacobi / Riccati sensitivity
C0, b0 = p0 / (m * q0), 0.5 * m * q0 ** 2
ric = cm.solve_riccati(0.0, gamma, C0, ts)
q3 = cm.trajectory_from_hj(m, gamma, b0, C0, ric, ts)

print("damped free particle, gamma = 0.1, q0 = 1, qdot0 = 0.2, t in [0, 10]")
print(f"  route 1 (expanding)  max |q - direct| = {np.max(np.abs(q1 - direct.q[:, 0])):.3e}")
print(f"  route 2 (invariants) max |q - direct| = {np.max(np.abs(q2 - direct.q[:, 0])):.3e}")
print(f"  route 3 (HJ/Riccati) max |q - direct| = {np.max(np.abs(q3 - direct.q[:, 0])):.3e}")
print(f"  growing-exponent variant deviates by {np.max(np.abs(q2_bad - direct.q[:, 0])):.3f} "
      "(falsified)")

line_chart(os.path.join(OUT, "three_routes.svg"),
           "three routes vs direct integration", "t", "q",
           [("direct", ts, direct.q[:, 0]), ("expanding", ts, q1),
            ("invariants", ts, q2), ("HJ/Riccati", ts, q3)])
line_chart(os.path.join(OUT, "growing_exponent_fails.svg"),
           "the e^{+gamma t} closed form diverges", "t", "q",
           [("direct", ts, direct.q[:, 0]), ("growing exponent", ts, q2_bad)])

# the oscillator case: route 3 stops at the first Riccati pole
print()
osc = cm.make_damped_parametric(m, gamma, 1.0)
osc_direct = cm.integrate(osc, cm.make_state(1.0, 0.0, 0.3, 0.0), 10.0, opts)
try:
    cm.solve_riccati(1.0, gamma, 0.0, osc_direct.times)
except cm.errors.RiccatiPoleError as pole:
    print(f"oscillator: Riccati pole at t = {pole.last_time:.3f} "
          "(the first zero of q); route 3 covers only the pole-free interval")
    sub = osc_direct.times[osc_direct.times <= pole.last_time - 0.15]
    ric_osc = cm.solve_riccati(1.0, gamma, 0.0, sub)
    q3_osc = cm.trajectory_from_hj(m, gamma, 0.5, 0.0, ric_osc, sub)
    err = np.max(np.abs(q3_osc - osc_direct.q[:len(sub), 0]))
    print(f"  there, max |q - direct| = {err:.3e}")
print(f"plots written to {OUT}/")
