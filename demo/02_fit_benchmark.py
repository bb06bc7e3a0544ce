"""Fit the benchmark model to a simulated path, staged.

The data follow dX = -X/2 dt + dZ while the fitted coefficients are
a(x, alpha) = alpha (1 - x) and c(x, gamma) = gamma / sqrt(1 + x^2):
deliberately misspecified on both sides.  The staged estimator still
converges, to the pseudo-true point that optimal_values computes in
closed form.
"""

import numpy as np

from levy_gqmle import (
    ConstantScale,
    MeanRevertLinear,
    ModelSpec,
    PathConfig,
    benchmark_model,
    estimate_staged,
    noise_case,
    optimal_values,
    residual_moment,
    simulate_euler,
    true_ou,
)

case = "iii"
model = benchmark_model()
truth = true_ou()
alpha_star, gamma_star = optimal_values(case)

print(f"case {case}: pseudo-true alpha* = {alpha_star:.6f}, gamma* = {gamma_star:.6f}")
print(f"{'n':>7} {'h':>6} {'alpha_hat':>10} {'gamma_hat':>10}")
for n, h in ((1000, 0.05), (10000, 0.01), (100000, 0.01)):
    path = simulate_euler(truth, noise_case(case), PathConfig(n=n, h=h, seed=7))
    est = estimate_staged(path, model)
    print(f"{n:>7} {h:>6} {est.alpha_hat:>10.4f} {est.gamma_hat:>10.4f}")

# under a correctly specified fit the standardized residuals recover the
# driving cumulants: kappa3 via r=3 and kappa4 (+3h bias) via r=4
cs = ModelSpec(MeanRevertLinear(m=0.0), ConstantScale())
path = simulate_euler(truth, noise_case(case), PathConfig(n=200000, h=0.005, seed=8))
est = estimate_staged(path, cs)
print(f"\ncorrectly specified on the same data: alpha_hat = {est.alpha_hat:.4f} (vs 0.5), "
      f"gamma_hat = {est.gamma_hat:.4f} (vs 1.0)")
for r in (2, 3, 4):
    print(f"  residual moment r={r}: {residual_moment(path, est, cs, r):+.4f}")
print("  (targets 1, 0.8, 89/75 ~ 1.187 for this case, up to MC noise and O(h))")
