"""Dissipation as geometry: one damped oscillator, four structural fingerprints.

The linear-friction oscillator H = p^2/2m + q^2/2 + gamma*S is integrated with
the contact Hamilton equations and checked against four predictions of the
formalism:

  1. the Hamiltonian decays exactly as H0 e^{-gamma t};
  2. the mechanical energy dissipates at the Rayleigh rate -m gamma qdot^2;
  3. the flow divergence is the constant -(n+1) gamma, so phase-space volume
     contracts as e^{-2 gamma t};
  4. the reweighted volume |H|^{-(n+1)} * det(flow Jacobian) is conserved,
     the contact replacement for Liouville's theorem.

Run:  python3 demos/01_dissipative_flow.py
"""

import os

import numpy as np

import contactmech as cm
from contactmech.svgplot import line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

m, gamma = 1.0, 0.1
model = cm.make_linear_dissipation(m, gamma, cm.parse_expression("q^2/2", "q"))
x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.002)

traj = cm.integrate(model, x0, 20.0, opts)
print(f"integrated {len(traj)} samples over t in [0, 20]")

# 1. Hamiltonian decay law
pred = traj.H[0] * np.exp(-gamma * traj.times)
print(f"max |H - H0 e^-gt| / H0 e^-gt = {np.max(np.abs(traj.H - pred) / pred):.3e}")

# 2. mechanical-energy dissipation rate vs finite differences
hmec = traj.H - gamma * traj.S
fd = (hmec[2:] - hmec[:-2]) / (traj.times[2:] - traj.times[:-2])
rate = -m * gamma * (traj.p[1:-1, 0] / m) ** 2
print(f"sup-normalized dH_mec/dt error vs -m*gamma*qdot^2 = "
      f"{np.max(np.abs(fd - rate)) / np.max(np.abs(rate)):.3e}")

# 3. constant divergence and exponential volume contraction
print(f"divergence everywhere: {traj.div[0]} (expected {-2 * gamma})")
det_opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.05)
times, dets = cm.jacobian_determinant_series(model, x0, 20.0, det_opts)
print(f"det(flow Jacobian) at t=20: {dets[-1]:.6f} vs e^-4 = {np.exp(-4.0):.6f}")

# 4. the invariant measure: weight * det stays put while both factors move
weight = np.abs(traj.H[::25]) ** -2.0  # H samples aligned with the det grid
product = weight * dets
print(f"invariant-measure drift: {np.max(np.abs(product - product[0])) / product[0]:.3e}")

line_chart(os.path.join(OUT, "decay_and_volume.svg"),
           "decay law and volume contraction", "t", "value",
           [("H(t)", traj.times, traj.H),
            ("H0 exp(-gamma t)", traj.times, pred),
            ("det dPhi_t", times, dets)])
line_chart(os.path.join(OUT, "invariant_measure.svg"),
           "conserved reweighted volume", "t", "|H|^-2 det",
           [("weight * det", times, product)])
print(f"plots written to {OUT}/")
