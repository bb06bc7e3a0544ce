"""The limit covariance, assembled from extended Poisson equations.

The scaled estimation error is asymptotically normal with covariance
V = Gamma^-1 Sigma Gamma^-T.  Gamma is a pi_0 average of criterion
curvatures; Sigma needs the Poisson-equation solutions f1, f2 for both
stages' influence terms, integrated against the jump measure.  All of
them are taken at the optimal parameter theta*, which run_asymptotics
computes itself; optimal_values(case) gives the same number for the
benchmark fit.  Budgets here are cut well below the defaults so the
script runs in seconds; expect a few percent of Monte Carlo wobble on
Sigma and V.
"""

import numpy as np

from levy_gqmle import benchmark_model, noise_case, optimal_values, run_asymptotics, true_ou

case = "i"
theta = optimal_values(case)
res = run_asymptotics(benchmark_model(), true_ou(), noise_case(case), seed=17, budget=8000, m=400)

np.set_printoptions(precision=4, suppress=True)
print(f"case {case} at theta* = ({theta[0]:.6f}, {theta[1]:.6f}); rows/cols ordered (gamma, alpha)")
print("Gamma =\n", res.gamma)
print("Sigma =\n", res.sigma)
print("V     =\n", res.v)
print()
print(f"Gamma[0,0] should sit near -2 (exact for this truth): {res.gamma[0, 0]:+.4f}")
print(f"invariant sample: {res.diagnostics['invariant']['size']} states, "
      f"var {res.diagnostics['invariant']['var']:.4f}")
print(f"EPE solves: {res.diagnostics['epe']['grid_points']} grid points, "
      f"max se f1 {res.diagnostics['epe']['max_se_f1']:.3f}, "
      f"f2 {res.diagnostics['epe']['max_se_f2']:.3f}")
print(f"centering (must be ~0 for the solves to be well posed): "
      f"g1 {res.diagnostics['centering']['g1_mean']:+.4f}, "
      f"g2 {res.diagnostics['centering']['g2_mean']:+.4f}")
