"""A reduced replication study, summarized and reported.

run_mc simulates and fits R independent paths per (n, h) design, each
replication on its own seed substream, so a replication's result depends
only on its (seed, design, k) address.  The full benchmark uses R = 1000 over three
designs; this trims both to keep the script quick.
"""

import numpy as np

from levy_gqmle import ExperimentDesign, emit_report, run_mc

design = ExperimentDesign("ii", designs=((1000, 0.05), (5000, 0.02)), replications=200, seed=3)
summary = run_mc(design)

alpha_star, gamma_star = summary.theta_star
print(f"case {summary.case}, R = {summary.replications}, "
      f"theta* = ({alpha_star:.4f}, {gamma_star:.4f})")
print(f"{'n':>6} {'h':>6} {'T':>5} {'alpha mean (sd)':>18} {'gamma mean (sd)':>18} {'P(|err|>2)':>11}")
for d in summary.per_design:
    print(f"{d.n:>6} {d.h:>6g} {d.T:>5g} "
          f"{d.mean_alpha:>10.4f} ({d.sd_alpha:.4f}) {d.mean_gamma:>10.4f} ({d.sd_gamma:.4f}) "
          f"{d.tail_fractions[2.0]:>11.3f}")

# the heavy-tailed case keeps its gamma spread wide: Sigma's gamma block
# carries kappa4 of the driving noise, and case (ii) has kappa4 = 3
d = summary.per_design[-1]
print(f"\nscaled covariance at n = {d.n} (rows gamma, alpha):")
print(np.array_str(d.cov_scaled, precision=3, suppress_small=True))

paths = emit_report(summary, "demo_report")
print("\nreports:", *paths, sep="\n  ")
