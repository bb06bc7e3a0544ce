"""Acceptance gate: nine numbered end-to-end checks.

One test per criterion, each printing a single pass/fail line under -v:
exact pseudo-true values, the replication study against its pinned
reference table, the convergence-rate pattern, covariance cross-validation,
curvature and Poisson-equation analytic oracles, derivative consistency,
residual moments under correct specification, and tail decay.

Budgets and seeds are pinned; tolerances state their Monte Carlo and
discretization allowances explicitly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from levy_gqmle._util import substream
from levy_gqmle.asymptotics import (
    epe_solve,
    gamma_matrix,
    martingale_check,
    run_asymptotics,
    sample_invariant,
)
from levy_gqmle.coefficients import ConstantScale, MeanRevertLinear
from levy_gqmle.experiment import (
    CASES,
    ExperimentDesign,
    benchmark_model,
    noise_case,
    optimal_values,
    run_mc,
    true_ou,
)
from levy_gqmle.gqmle import ModelSpec, estimate_staged, g1_eval, g2_eval
from levy_gqmle.levy import sample_increments
from levy_gqmle.moments import residual_moment
from levy_gqmle.sde import PathConfig, SamplePath, _affine_paths, simulate_euler

BENCH = benchmark_model()
OU = true_ou()

# reference values for the benchmark replication study, reported to two
# decimals per (case, design) cell as mean(sd) for alpha then gamma
REFERENCE = {
    "i": (
        (0.38, 0.12, 1.41, 0.11),
        (0.37, 0.09, 1.41, 0.08),
        (0.36, 0.08, 1.41, 0.07),
    ),
    "ii": (
        (0.40, 0.16, 1.39, 0.29),
        (0.39, 0.11, 1.39, 0.23),
        (0.37, 0.09, 1.39, 0.22),
    ),
    "iii": (
        (0.40, 0.15, 1.39, 0.19),
        (0.38, 0.11, 1.39, 0.15),
        (0.38, 0.10, 1.40, 0.15),
    ),
    "diffusion": (
        (0.38, 0.13, 1.41, 0.10),
        (0.36, 0.09, 1.41, 0.08),
        (0.36, 0.08, 1.41, 0.07),
    ),
}

EXACT_OPTIMAL = {
    "i": Fraction(803, 2406),
    "ii": Fraction(11, 30),
    "iii": Fraction(609, 1658),
    "diffusion": Fraction(1, 3),
}

GAMMA_ALPHA_TARGET = {"i": 6.015, "ii": 7.5, "iii": Fraction(829, 150)}


@pytest.fixture(scope="module")
def table2():
    return {
        case: run_mc(ExperimentDesign(case, replications=1000, seed=0))
        for case in CASES
    }


@pytest.fixture(scope="module")
def asym_i():
    return run_asymptotics(BENCH, OU, noise_case("i"), optimal_values("i"),
                           seed=29, budget=40000, m=1500)


def test_criterion_1_optimal_values_exact():
    """Closed-form pseudo-true values match the exact rationals to 1e-12."""
    for case in CASES:
        alpha, gamma = optimal_values(case)
        assert abs(alpha - float(EXACT_OPTIMAL[case])) < 1e-12, case
        assert abs(gamma - math.sqrt(2.0)) < 1e-12, case


def test_criterion_2_replication_reference_table(table2):
    """All 12 (case, design) cells match the reference table: means within
    0.01, sds within 0.02 (0.04 for the heaviest-tailed gamma column)."""
    violations = []
    for case, rows in REFERENCE.items():
        for d, (ma, sa, mg, sg) in zip(table2[case].per_design, rows):
            sd_gamma_tol = 0.04 if case == "ii" else 0.02
            for label, got, want, tol in (
                ("mean alpha", d.mean_alpha, ma, 0.01),
                ("sd alpha", d.sd_alpha, sa, 0.02),
                ("mean gamma", d.mean_gamma, mg, 0.01),
                ("sd gamma", d.sd_gamma, sg, sd_gamma_tol),
            ):
                if abs(got - want) > tol:
                    violations.append(
                        f"case {case} n={d.n}: {label} {got:.4f} vs {want} "
                        f"(off by {got - want:+.4f}, tol {tol})"
                    )
    assert not violations, "cells outside tolerance:\n" + "\n".join(violations)


def test_criterion_3_convergence_rate(table2):
    """sd(alpha) shrinks between the smallest and largest design at a pace
    consistent with the sqrt(T) rate: ratio in [0.55, 0.85] per case."""
    for case in CASES:
        per = table2[case].per_design
        ratio = per[-1].sd_alpha / per[0].sd_alpha
        assert 0.55 <= ratio <= 0.85, f"case {case}: ratio {ratio:.3f}"


def test_criterion_4_covariance_cross_validation(table2, asym_i):
    """Case (i), n=10000: empirical covariance of the scaled estimation error
    matches the plug-in V on the diagonal within 20% relative."""
    emp = table2["i"].per_design[-1].cov_scaled
    v = asym_i.v
    for k, label in ((0, "gamma"), (1, "alpha")):
        rel = abs(emp[k, k] - v[k, k]) / v[k, k]
        assert rel < 0.20, f"{label}: empirical {emp[k, k]:.4f} vs plug-in {v[k, k]:.4f} ({rel:.1%})"


def test_criterion_5_curvature_analytic_oracle():
    """Numerical curvature at the pseudo-true point: the gamma entry equals
    -2 and the alpha entry its moment expression, within 2% per case."""
    for idx, case in enumerate(("i", "ii", "iii")):
        inv = sample_invariant(OU, noise_case(case), budget=600000, seed=31 + idx, step=0.005)
        g = gamma_matrix(BENCH, OU, optimal_values(case), inv)
        target = float(GAMMA_ALPHA_TARGET[case])
        assert abs(g[0, 0] + 2.0) / 2.0 < 0.02, f"case {case}: gamma entry {g[0, 0]:.4f}"
        assert abs(g[1, 1] - target) / target < 0.02, f"case {case}: alpha entry {g[1, 1]:.4f}"


def test_criterion_6_poisson_equation_analytic_oracle():
    """Pure-OU solve with identity forcing returns f(x) = 2x within 3
    standard errors at each of the 25 grid points; the solved approximation
    passes the martingale residual check."""
    ident = lambda x: np.asarray(x, dtype=float)
    inv = sample_invariant(OU, noise_case("i"), budget=60000, seed=11)
    f = epe_solve(ident, OU, noise_case("i"), m=1000, seed=7, inv=inv)
    assert f.x.size == 25
    assert np.all(np.abs(f.f - 2.0 * f.x) <= 3.0 * f.se)
    rep = martingale_check(f, ident, OU, noise_case("i"), reps=4000, seed=3)
    assert rep.max_abs_z <= 3.0


def test_criterion_7_derivative_consistency():
    """Analytic gradients and hessians of both stage criteria match central
    finite differences to 1e-6 relative on 20 randomized instances each."""
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        path = simulate_euler(OU, noise_case("i"), PathConfig(n=150, h=0.05, seed=2000 + k))
        gamma = float(rng.uniform(0.5, 3.0))
        eps = 1e-6 * gamma
        _, g, hess = g1_eval(path, BENCH, gamma)
        assert g == pytest.approx(
            (g1_eval(path, BENCH, gamma + eps)[0] - g1_eval(path, BENCH, gamma - eps)[0]) / (2 * eps),
            rel=1e-6, abs=1e-9)
        assert hess == pytest.approx(
            (g1_eval(path, BENCH, gamma + eps)[1] - g1_eval(path, BENCH, gamma - eps)[1]) / (2 * eps),
            rel=1e-6, abs=1e-9)
        alpha = float(rng.uniform(0.05, 1.5))
        eps = 1e-6 * max(1.0, alpha)
        _, g, hess = g2_eval(path, BENCH, gamma, alpha)
        assert g == pytest.approx(
            (g2_eval(path, BENCH, gamma, alpha + eps)[0] - g2_eval(path, BENCH, gamma, alpha - eps)[0]) / (2 * eps),
            rel=1e-6, abs=1e-9)
        assert hess == pytest.approx(
            (g2_eval(path, BENCH, gamma, alpha + eps)[1] - g2_eval(path, BENCH, gamma, alpha - eps)[1]) / (2 * eps),
            rel=1e-6, abs=1e-9)


def test_criterion_8_residual_moments_correctly_specified():
    """Correctly specified fits recover the driving cumulants (k2, k3, k4):
    (1, 0, 0.03) for case (i) and (1, 0.8, 89/75) for case (iii), within
    four ensemble standard errors plus a stated discretization allowance."""
    model = ModelSpec(MeanRevertLinear(m=0.0), ConstantScale())
    paths, n, h = 8, 250000, 0.002
    targets = {"i": (1.0, 0.0, 0.03), "iii": (1.0, 0.8, 89.0 / 75.0)}
    allowance = {2: 0.002, 3: 0.01, 4: 3.5 * h}
    for ci, (case, (k2, k3, k4)) in enumerate(targets.items()):
        law = noise_case(case)
        values = np.zeros((paths, n + 1))
        for p in range(paths):
            values[p, 1:] = sample_increments(law, h, n, substream(41, 7301, ci, p))
        first_bad = _affine_paths(OU, h, 0.0, values[:, 1:])
        assert np.all(first_bad < 0)
        for r, want in ((2, k2), (3, k3), (4, k4)):
            ests = []
            for p in range(paths):
                sp = SamplePath(h=h, values=values[p])
                est = estimate_staged(sp, model)
                ests.append(float(np.asarray(residual_moment(sp, est, model, r))))
            arr = np.array(ests)
            se = arr.std(ddof=1) / math.sqrt(paths)
            tol = 4.0 * se + allowance[r]
            assert abs(arr.mean() - want) < tol, (
                f"case {case} r={r}: {arr.mean():.5f} vs {want:.5f} (tol {tol:.5f})"
            )


def test_criterion_9_tail_decay(table2):
    """Scaled-error tail fractions are monotone non-increasing over the
    radii 1, 2, 4, 8 for every case and design."""
    for case in CASES:
        for d in table2[case].per_design:
            fr = [d.tail_fractions[r] for r in (1.0, 2.0, 4.0, 8.0)]
            assert all(a >= b for a, b in zip(fr, fr[1:])), f"case {case} n={d.n}: {fr}"
