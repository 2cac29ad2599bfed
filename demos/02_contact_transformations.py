"""Contact transformations: verifying maps and pushing Hamiltonians through them.

Three maps ship with the package, all with conformal factor e^{gamma t}:

  * ck         -- physical to Caldirola-Kanai coordinates (q, e^{gt} p, e^{gt} S);
                  pushes the contact model onto the classic time-dependent one.
  * expanding  -- exponentially rescaled coordinates; pushes the damped
                  parametric oscillator onto a frequency-shifted conservative
                  oscillator.
  * invariants -- angle / quadratic invariant / S-invariant chart, in which
                  the dynamics becomes dQ/dt = 1/alpha^2 with everything else
                  frozen.

A planted non-contact map is shown failing the verifier.

Run:  python3 demos/02_contact_transformations.py
"""

import numpy as np

import contactmech as cm

m, gamma = 1.0, 0.1
rng = np.random.default_rng(1)
# the verifier's sample: 100 rows (q, p, S, t)
points = rng.uniform([0.5, -1, -1, 0], [1.5, 1, 1, 9], size=(100, 4))
x0 = cm.make_state(*points[0])

model = cm.make_damped_parametric(m, gamma, 1.0)
erm = cm.solve_ermakov(1.0, gamma, 1.0, 0.0, np.linspace(0.0, 10.0, 101))

for cmap in (cm.map_identity(1), cm.map_ck(m, gamma), cm.map_expanding(m, gamma),
             cm.map_invariants(m, gamma, erm)):
    rep = cm.verify(cmap, points)
    f0 = cm.conformal_factor(cmap, x0)
    print(f"{cmap.name:<11} pass={rep.passed}  max residual={rep.max_residual:.2e}  "
          f"f at t={x0.t:.2f}: {f0:.6f}")

# a map's closures act on the flat point y = [q, p, S] at time t
planted = cm.ContactMap(n=1, forward=lambda t, y: np.array([y[0], y[1] ** 2, y[2]]),
                        name="planted")
rep = cm.verify(planted, points)
print(f"{'planted':<11} pass={rep.passed}  max residual={rep.max_residual:.2e}  "
      "(not a contact transformation)")

# pushforwards: the new Hamiltonian K = f H - dS~/dt + P dQ/dt at pre-images
print()
V = cm.parse_expression("q^2/2", "q")
hs = cm.make_linear_dissipation(m, gamma, V)
K_ck = cm.pushforward_hamiltonian(cm.map_ck(m, gamma), hs)
ck = cm.make_caldirola_kanai(m, gamma, V)
X = cm.make_state(0.7, -0.4, 0.3, 1.5)
print(f"pushforward through ck at a sample point: {K_ck.evaluate(X):.12f}")
print(f"Caldirola-Kanai Hamiltonian there:        {ck.evaluate(X):.12f}")

K_ex = cm.pushforward_hamiltonian(cm.map_expanding(m, gamma), model)
closed = X.p[0] ** 2 / (2 * m) + 0.5 * m * (1.0 - gamma ** 2 / 4) * X.q[0] ** 2
print(f"pushforward through expanding:            {K_ex.evaluate(X):.12f}")
print(f"frequency-shifted oscillator value:       {closed:.12f}")

K_inv = cm.pushforward_hamiltonian(cm.map_invariants(m, gamma, erm), model)
Y = cm.make_state(0.3, 0.7, -0.2, 3.0)  # (angle, invariant, S-invariant, t)
print(f"pushforward through invariants:           {K_inv.evaluate(Y):.12f}")
print(f"P / alpha(t)^2 there:                     {Y.p[0] / erm.alpha(3.0) ** 2:.12f}")

# volume rescaling under a contact map: f^(n+1)
print()
f = float(np.exp(gamma * 10.0))
print(f"volume factor for f=e^(gamma*10), n=1: {cm.volume_factor(f, 1):.6f} "
      f"(= e^2 = {np.exp(2.0):.6f})")
