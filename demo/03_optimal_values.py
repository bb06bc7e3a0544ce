"""Pseudo-true values: exact, beside a fit on one long path.

Under misspecification the staged estimator converges to the optimal
values theta* = (alpha*, gamma*) that maximize the limit stage criteria.
Every catalog family is a polynomial where it matters, and the invariant
law of the Levy-driven OU truth has explicit cumulants, so pseudo_true
computes theta* exactly for any fitted pair from moments of degree <= 4.
optimal_values is pseudo_true for the benchmark fit.  A second pair, with
the drift's reversion level at -0.3 instead of 1, is fitted to the same
paths.
"""

from levy_gqmle import (
    CASES,
    MeanRevertLinear,
    ModelSpec,
    PathConfig,
    RationalSqrt,
    benchmark_model,
    estimate_staged,
    noise_case,
    optimal_values,
    pseudo_true,
    simulate_euler,
    true_ou,
)

truth = true_ou()
second = ModelSpec(MeanRevertLinear(m=-0.3), RationalSqrt())
cfg = PathConfig(n=200000, h=0.01, seed=3)

print(f"one path of T = {cfg.T:g} per case; benchmark fit, then alpha (-0.3 - x)")
print(f"{'case':>10} {'model':>10} {'alpha*':>9} {'alpha_hat':>10} {'gamma*':>9} {'gamma_hat':>10}")
for case in CASES:
    noise = noise_case(case)
    path = simulate_euler(truth, noise, cfg)
    for label, model, star in (
        ("benchmark", benchmark_model(), optimal_values(case)),
        ("m = -0.3", second, pseudo_true(second, truth, noise)),
    ):
        est = estimate_staged(path, model)
        print(f"{case:>10} {label:>10} {star[0]:>9.5f} {est.alpha_hat:>10.4f} {star[1]:>9.5f} {est.gamma_hat:>10.4f}")

print("\nEach fit is off theta* by its sqrt(T)-rate noise, sqrt(V / T) ~ 0.02 here.")
print("gamma* = sqrt(2) for every case and both drifts: the scale stage sees")
print("only E[1 + X^2], which the standardization fixes.  alpha* moves with")
print("kappa3 and kappa4, because the drift stage weights by the fitted scale.")
