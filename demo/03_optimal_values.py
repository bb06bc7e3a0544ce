"""Pseudo-true values: closed form against empirical maximization.

The scale stage's limit criterion depends on the noise only through the
invariant law of X, and for the linear-drift truth that dependence reduces
to two moments.  optimal_values evaluates the resulting rationals exactly;
optimal_values_numeric evaluates the closed-form maximizers of the sample
criteria, gamma^2 = E[C^2/p^2] and alpha = E[A b/c^2] / E[b^2/c^2], over a
long simulated invariant sample and should agree to MC accuracy.
"""

from levy_gqmle import CASES, benchmark_model, noise_case, optimal_values, optimal_values_numeric, sample_invariant, true_ou

truth = true_ou()

print(f"{'case':>10} {'alpha* exact':>14} {'gamma* exact':>14} {'alpha* numeric':>15} {'gamma* numeric':>15}")
for idx, case in enumerate(CASES):
    alpha, gamma = optimal_values(case)
    inv = sample_invariant(truth, noise_case(case), budget=60000, seed=100 + idx)
    alpha_n, gamma_n = optimal_values_numeric(benchmark_model(), truth, noise_case(case), inv)
    print(f"{case:>10} {alpha:>14.8f} {gamma:>14.8f} {alpha_n:>15.8f} {gamma_n:>15.8f}")

print("\ngamma* = sqrt(2) for every case: the scale stage sees only the")
print("second moment of the invariant law, which the standardization fixes.")
print("alpha* moves with kappa3/kappa4 because the drift stage weights by")
print("the fitted scale, whose optimum tilts under misspecification.")
