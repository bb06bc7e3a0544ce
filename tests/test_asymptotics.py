"""Invariant sampling, EPE solutions, and the limit matrices vs oracles."""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from levy_gqmle import _util, asymptotics, sde
from levy_gqmle._util import NumericalError, batch_means_se, core_map, substream
from levy_gqmle.asymptotics import (
    _BLOCK_CELLS,
    _TAG_EPE,
    _TAG_INVARIANT,
    AsymptoticsResult,
    CovarianceError,
    EPEApprox,
    InvariantSample,
    MixingError,
    NotCenteredError,
    SingularGammaError,
    _PolyRHS,
    _gamma_terms,
    _integrands,
    _invariant_cumulants,
    _poly_form,
    _sigma_full,
    _sigma_terms,
    avar,
    epe_solve,
    gamma_matrix,
    pseudo_true,
    run_asymptotics,
    sample_invariant,
)
from levy_gqmle.coefficients import (
    ConstantDrift,
    ConstantScale,
    LinearDecay,
    MeanRevertLinear,
    RationalSqrt,
)
from levy_gqmle.gqmle import ModelSpec, _criterion_terms, _fit_drift, _fit_scale
from levy_gqmle.levy import Brownian, _converged_nodes, _nodes_at, sample_increments
from levy_gqmle.sde import DIVERGENCE_BOUND, DivergenceError, SamplePath, TrueModel
from _oracles import (
    _euler_columns,
    benchmark_oracle,
    chunk_draws,
    cgf_cumulants,
    g1_eval,
    g2_eval,
    invariant_cumulants,
    martingale_check,
    family_form,
    pseudo_true_oracle,
    sigma_terms_by_node,
)
from test_levy import CASE_I, CASE_II, CASE_III, DIFFUSION

OU = TrueModel(rate=0.5, level=0.0, sigma=1.0)
BENCH = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=RationalSqrt())
# epe_solve's right-hand sides: the identity g(x) = x and g = 0
IDENTITY = _PolyRHS(np.array([[0.0, 1.0]]), 0.0)
ZERO = _PolyRHS(np.zeros((1, 1)), 0.0)


@pytest.fixture(scope="module")
def oracle_i():
    return benchmark_oracle(CASE_I)


@pytest.fixture(scope="module")
def inv_i():
    return sample_invariant(OU, CASE_I, budget=60000, seed=11)


@pytest.fixture(scope="module")
def res_i():
    return run_asymptotics(BENCH, OU, CASE_I, seed=5, budget=40000, m=1500)


# three invariant-path chunks: the 50,000 burn-in steps end inside the
# first, and the third is short (5,050,000 steps in all)
LONG_PATH = dict(budget=5000, seed=8, step=0.001)
OU_SHIFTED = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.0)
# every catalog family, with a mean-reverting drift on each side of zero
DRIFTS = [MeanRevertLinear(m=1.0), MeanRevertLinear(m=-0.3), LinearDecay(), ConstantDrift()]
SCALES = [RationalSqrt(), ConstantScale()]


class Cubic:
    def basis(self, x):
        return np.asarray(x, float) ** 3


@pytest.fixture(scope="module")
def inv_long():
    return sample_invariant(OU_SHIFTED, CASE_I, **LONG_PATH)


def _batched(states, stat, n_batches=30):
    vals = np.array([stat(b) for b in np.array_split(states, n_batches)])
    return stat(states), float(np.std(vals, ddof=1)) / math.sqrt(n_batches)


class TestCoreMap:
    def test_input_order_whatever_finishes_first(self, monkeypatch):
        # the first task sleeps longest, so completion order is the reverse
        monkeypatch.setattr(_util, "_pool_size", lambda tasks: 3)
        def task(i):
            time.sleep(0.05 * (3 - i))
            return i
        assert list(core_map(task, range(3))) == [0, 1, 2]

    def test_task_error_reaches_caller(self):
        def task(i):
            if i == 2:
                raise ValueError("task 2")
            return i
        with pytest.raises(ValueError, match="task 2"):
            list(core_map(task, range(5)))


class TestSampleInvariant:
    def test_case_i_moments(self, inv_i):
        x = inv_i.states
        mean, se = _batched(x, np.mean)
        assert abs(mean) <= 5 * se
        var, se = _batched(x, np.var)
        assert abs(var - 1.0) <= 5 * se + 0.01
        xc = x - x.mean()
        k3, se = _batched(xc, lambda b: np.mean(b**3))
        assert abs(k3) <= 5 * se + 0.01
        k4, se = _batched(xc, lambda b: np.mean(b**4) - 3 * np.mean(b**2) ** 2)
        assert abs(k4 - 0.015) <= 5 * se + 0.01

    def test_case_iii_skew(self):
        x = sample_invariant(OU, CASE_III, budget=40000, seed=12).states
        k3, se = _batched(x - x.mean(), lambda b: np.mean(b**3))
        assert abs(k3 - 8.0 / 15.0) <= 5 * se + 0.02

    def test_brownian_matches_gaussian(self):
        x = sample_invariant(OU, DIFFUSION, budget=20000, seed=13).states
        for order, target in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0)):
            m, se = _batched(x, lambda b, k=order: np.mean(b**k))
            assert abs(m - target) <= 5 * se + 0.02

    def test_deterministic(self):
        a = sample_invariant(OU, CASE_I, budget=1000, seed=3)
        b = sample_invariant(OU, CASE_I, budget=1000, seed=3)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("step,budget", [(LONG_PATH["step"], LONG_PATH["budget"]), (0.003, 7000)])
    def test_matches_serial_reference(self, inv_long, step, budget):
        # the zero-start chunks composed through the affine start map against
        # one lfilter pass over the whole path, started at the mean.  The
        # burn-in is 50 spacings and a chunk 2_000_000 // keep spacings of
        # keep steps, also at step 0.003, where keep = 333 divides neither
        # 50 / step nor 2_000_000
        rate, mean = 0.5, 0.7
        rho = 1.0 - rate * step
        keep = round(asymptotics._SPACING / step)
        burn = 50 * keep
        chunk = 2_000_000 // keep * keep
        total = burn + budget * keep
        # the burn-in ends inside the first chunk, and the last chunk is short
        assert burn < chunk < total and total % chunk
        dz = np.concatenate([
            sample_increments(CASE_I, step, min(chunk, total - start),
                              substream(LONG_PATH["seed"], _TAG_INVARIANT, start // chunk))
            for start in range(0, total, chunk)
        ])
        y, _ = lfilter([1.0], [1.0, -rho], rate * mean * step + dz, zi=np.array([rho * mean]))
        want = y[burn + keep - 1 :: keep]
        got = (inv_long if step == LONG_PATH["step"] else
               sample_invariant(OU_SHIFTED, CASE_I, budget=budget, seed=LONG_PATH["seed"], step=step)).states
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_independent_of_worker_count(self, inv_long, monkeypatch):
        for workers in (1, 3):
            monkeypatch.setattr(_util, "_pool_size", lambda tasks, n=workers: n)
            again = sample_invariant(OU_SHIFTED, CASE_I, **LONG_PATH)
            assert np.array_equal(again.states, inv_long.states), workers

    def test_pool_size_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(_util.os, "sched_getaffinity", raising=False)
        assert _util._pool_size(100) == min(4, os.cpu_count() or 1)
        assert _util._pool_size(1) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="budget"):
            sample_invariant(OU, CASE_I, budget=500)
        with pytest.raises(ValueError, match="must be an integer"):
            sample_invariant(OU, CASE_I, budget=1000, seed=1.5)
        for budget in (1500.5, True):
            with pytest.raises(ValueError, match="budget must be an integer"):
                sample_invariant(OU, CASE_I, budget=budget)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_invariant(OU, CASE_I, budget=1000, seed=-1)
        # an integral float runs as its integer
        a = sample_invariant(OU, CASE_I, budget=1000.0, seed=3)
        b = sample_invariant(OU, CASE_I, budget=1000, seed=3)
        assert a.states.tobytes() == b.states.tobytes()

    @pytest.mark.parametrize("name", ["step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sample_invariant(OU, CASE_I, **{name: value})

    def test_catalog_restriction(self):
        not_reverting = TrueModel(rate=0.0, level=0.5, sigma=1.0)
        with pytest.raises(ValueError, match="mean-reverting"):
            sample_invariant(not_reverting, CASE_I)

    @pytest.mark.parametrize("sigma", [0.0, 1e-200])
    def test_zero_variance_refused_before_drawing(self, sigma, monkeypatch):
        # sigma = 1e-200 gives pi_0 a variance that underflows to zero.  A
        # point mass at 0 puts the benchmark's alpha* and gamma* on their box
        # edges, which run_asymptotics refuses before it samples pi_0
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before pi_0's variance was checked")

        monkeypatch.setattr(asymptotics, "_chunked_paths", refuse)
        flat = TrueModel(rate=0.5, level=0.0, sigma=sigma)
        with pytest.raises(ValueError, match="sigma"):
            sample_invariant(flat, CASE_I, budget=1000)
        with pytest.raises(ValueError, match="edge of its box"):
            run_asymptotics(BENCH, flat, CASE_I, budget=1000)

    def test_overflowing_cumulants_refused_before_drawing(self, monkeypatch):
        # sigma^4 overflows a float at sigma = 1e150: pi_0's cumulants are
        # refused as a numerical failure by both of their users
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before pi_0's cumulants were checked")

        monkeypatch.setattr(asymptotics, "_chunked_paths", refuse)
        huge = TrueModel(rate=0.5, level=0.0, sigma=1e150)
        with pytest.raises(NumericalError, match="sigma=1e\\+150"):
            sample_invariant(huge, CASE_I, budget=1000)
        with pytest.raises(NumericalError, match="sigma=1e\\+150"):
            pseudo_true(BENCH, huge, CASE_I)

    def test_mixing_gate_on_coarse_step(self):
        # Euler variance inflation 1/(1 - rate*step/2) = 25% at step 0.8
        with pytest.raises(MixingError):
            sample_invariant(OU, CASE_I, budget=5000, seed=4, step=0.8)

    def test_sample_size_gate(self):
        with pytest.raises(ValueError, match="1000"):
            InvariantSample(np.zeros(100), 0, 0.01)


class TestEPERhs:
    def test_scale_rhs_reduces_to_quadratic(self, oracle_i):
        g = _integrands(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star))[0]
        x = np.linspace(-3, 3, 13)
        want = (1.0 - x**2) / (2.0 * math.sqrt(2.0))
        np.testing.assert_allclose(g(x)[0], want, atol=1e-14)

    def test_drift_rhs_explicit_form(self, oracle_i):
        a_s, g_s = oracle_i.alpha_star, oracle_i.gamma_star
        g = _integrands(BENCH, OU, (a_s, g_s))[0]
        x = np.linspace(-3, 3, 13)
        want = (1.0 - x) * (-x / 2.0 - a_s * (1.0 - x)) * (1.0 + x**2) / g_s**2
        np.testing.assert_allclose(g(x)[1], want, atol=1e-14)

    @pytest.mark.parametrize("true_model", [OU, OU_SHIFTED], ids=["linear-decay", "mean-revert"])
    @pytest.mark.parametrize("scale", [RationalSqrt(), ConstantScale()], ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize(
        "drift", [MeanRevertLinear(m=0.7), ConstantDrift(), LinearDecay()], ids=lambda d: type(d).__name__
    )
    def test_matches_textbook_forms(self, drift, scale, true_model):
        # g_1 = (c^2 - C^2)/(gamma c^2) and g_2 = b (A - a)/c^2 with c from
        # the square-root profile; the tolerance is relative to the size of
        # the terms, since both forms cancel where g crosses zero
        alpha, gamma = 0.4, 1.1
        model = ModelSpec(drift=drift, scale=scale)
        x = np.linspace(-6.0, 6.0, 241)
        c2 = (gamma * family_form(scale, x)) ** 2
        big_c2 = true_model.sigma**2
        b = family_form(drift, x)
        big_a, a = true_model.level - true_model.rate * x, alpha * b
        want1 = (c2 - big_c2) / (gamma * c2)
        want2 = b * (big_a - a) / c2
        size1 = (c2 + big_c2) / (gamma * c2)
        level = true_model.level
        size2 = np.abs(b) * (abs(level) + np.abs(big_a - level) + np.abs(a)) / c2
        got = _integrands(model, true_model, (alpha, gamma))[0](x)
        for g, want, size in zip(got, (want1, want2), (size1, size2)):
            assert np.all(np.abs(g - want) <= 1e-13 * size)
            clear = np.abs(want) > 0.1 * size
            np.testing.assert_allclose(g[clear], want[clear], rtol=1e-13)

    @pytest.mark.parametrize("true_model", [OU, OU_SHIFTED], ids=["linear-decay", "mean-revert"])
    @pytest.mark.parametrize("scale", [RationalSqrt(), ConstantScale()], ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize(
        "drift", [MeanRevertLinear(m=0.7), ConstantDrift(), LinearDecay()], ids=lambda d: type(d).__name__
    )
    def test_coefficients_match_score_forms(self, drift, scale, true_model):
        # every row of the integrand table, evaluated by numpy's polyval, at
        # 1e-12 of its terms' size: g_1 = p(c^2 - C^2)/c^3, g_2 = b(A - a)/c^2
        # and the jump weights w_g = p C^2/c^3, w_a = b C/c^2 from the
        # textbook forms; the curvatures against _criterion_terms' second
        # derivatives at pi_0's increment moments (A, C^2) on a unit step
        alpha, gamma = 0.4, 1.1
        model = ModelSpec(drift=drift, scale=scale)
        x = np.linspace(-6.0, 6.0, 241)
        p, b = family_form(scale, x), family_form(drift, x)
        c, big_c, big_a = gamma * p, true_model.sigma, true_model.level - true_model.rate * x
        (_, _, gg), (_, _, ga, gag) = _criterion_terms(model, x, big_a, big_c**2, 1.0, gamma, alpha)
        wants = (
            (p * (c**2 - big_c**2) / c**3, b * (big_a - alpha * b) / c**2),
            (gg, -ga, -gag),
            (p * big_c**2 / c**3, b * big_c / c**2),
        )
        groups = _integrands(model, true_model, (alpha, gamma))
        # degree of g_2: deg b + max(deg b, 1) + deg(1/p^2)
        degree = (1 if isinstance(drift, ConstantDrift) else 2) + (2 if isinstance(scale, RationalSqrt) else 0)
        assert groups[0].coef.shape == (2, degree + 1)
        assert [g.coef.shape[0] for g in groups] == [len(w) for w in wants]
        for g, want in zip(groups, wants):
            for coef, w in zip(g.coef, want):
                got = np.polynomial.polynomial.polyval(x - g.center, coef)
                assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    def test_unknown_family_refused(self):
        with pytest.raises(ValueError, match="catalog drift"):
            _integrands(ModelSpec(drift=Cubic(), scale=ConstantScale()), OU, (0.4, 1.1))

    @pytest.mark.parametrize("value", [0.7, 0.3])
    def test_correct_constant_scale_gives_exact_zero(self, value):
        # gamma = sigma, non-dyadic: (gamma^2 - sigma^2 * 1) / gamma^3 is 0
        # exactly; at 0.3 the folded 1/gamma - sigma^2/gamma^3 is not
        true_model = TrueModel(rate=0.5, level=0.0, sigma=value)
        model = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=ConstantScale())
        g1, _ = _integrands(model, true_model, (0.25, value))[0](np.linspace(-6.0, 6.0, 241))
        assert np.all(g1 == 0.0)

    def test_both_centered_under_invariant_law(self, inv_i, oracle_i):
        theta = (oracle_i.alpha_star, oracle_i.gamma_star)
        for vals in _integrands(BENCH, OU, theta)[0](inv_i.states):
            mean, se = _batched(vals, np.mean)
            assert abs(mean) <= 3 * se


class TestPolyForm:
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("drift", DRIFTS + [MeanRevertLinear(m=0.7)], ids=repr)
    def test_expanded_about_the_basis_root(self, drift, scale):
        # x_c is b's root where b has one, so b has no constant term, and both
        # polynomials in t = x - x_c reproduce the families' textbook forms
        center, b, q = _poly_form(ModelSpec(drift, scale))
        if not isinstance(drift, ConstantDrift):
            assert family_form(drift, center) == 0.0 and b[0] == 0.0
        x = np.linspace(-4.0, 4.0, 81)
        np.testing.assert_allclose(np.polynomial.polynomial.polyval(x - center, b), family_form(drift, x), atol=1e-14)
        want = 1.0 / family_form(scale, x) ** 2
        np.testing.assert_allclose(np.polynomial.polynomial.polyval(x - center, q), want, rtol=1e-14)

    def test_unknown_scale_refused(self):
        class Wavy:
            def profile(self, x):
                return 2.0 + np.sin(x)

        with pytest.raises(ValueError, match="catalog scale family"):
            _poly_form(ModelSpec(LinearDecay(), Wavy()))


class TestPseudoTrue:
    @pytest.mark.parametrize("true_model", [OU, TrueModel(rate=0.8, level=0.8 * 0.7, sigma=1.3)],
                             ids=["ou", "shifted-scaled"])
    @pytest.mark.parametrize("law", [CASE_I, CASE_II, CASE_III], ids=["i", "ii", "iii"])
    def test_invariant_cumulants_match_oracle(self, law, true_model):
        rate, level, sigma = 0.5, 0.0, 1.0
        if true_model is not OU:
            rate, level, sigma = 0.8, 0.8 * 0.7, 1.3
        want = invariant_cumulants(cgf_cumulants(law, 4), rate, sigma, level)[1:]
        np.testing.assert_allclose(_invariant_cumulants(true_model, law), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("true_model", [OU, OU_SHIFTED], ids=["linear-decay", "mean-revert"])
    @pytest.mark.parametrize("law", [CASE_I, CASE_II, CASE_III], ids=["i", "ii", "iii"])
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("drift", DRIFTS, ids=repr)
    def test_matches_raw_moment_oracle(self, drift, scale, law, true_model):
        # a box wide enough that no value is clipped, so each value is pinned
        model = ModelSpec(drift, scale, alpha_box=(-10.0, 10.0))
        got, want = pseudo_true(model, true_model, law), pseudo_true_oracle(model, true_model, law)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("law", [CASE_I, CASE_II, CASE_III, DIFFUSION], ids=["i", "ii", "iii", "diffusion"])
    @pytest.mark.parametrize("drift", [MeanRevertLinear(m=0.0), LinearDecay()], ids=repr)
    def test_correctly_specified_is_exact(self, drift, law):
        # the fitted families contain the truth dX = -X/2 dt + dZ
        alpha, gamma = pseudo_true(ModelSpec(drift, ConstantScale()), OU, law)
        assert abs(alpha - 0.5) <= 1e-15 and abs(gamma - 1.0) <= 1e-15

    def test_agrees_with_invariant_sample_maximizer(self):
        # the closed-form stage maximizers over one pi_0 sample, for a pair
        # outside the benchmark; the tolerance is four batch-means standard
        # errors of each estimate, from the delta method.  The Euler chain's
        # stationary moments sit (j - 1) rate step / 2 above pi_0's, a
        # quarter of a standard error here
        model = ModelSpec(MeanRevertLinear(m=-0.3), RationalSqrt())
        alpha_s, gamma_s = pseudo_true(model, OU_SHIFTED, CASE_III)
        x = sample_invariant(OU_SHIFTED, CASE_III, budget=100000, seed=21).states[None, :]
        big_a = OU_SHIFTED.level - OU_SHIFTED.rate * x
        b, q = family_form(model.drift, x[0]), 1.0 / family_form(model.scale, x[0]) ** 2
        gamma = _fit_scale(model, np.array([np.sum(OU_SHIFTED.sigma**2 * q)]), q.size, 1.0)[0]
        alpha = _fit_drift(model, np.array([np.sum(big_a[0] * b * q)]), np.array([np.sum(b * b * q)]), 1.0)[0]
        influence = (big_a[0] - alpha[0] * b) * b * q / np.mean(b * b * q)
        assert abs(alpha[0] - alpha_s) <= 4.0 * batch_means_se(influence)
        assert abs(gamma[0] - gamma_s) <= 4.0 * batch_means_se(q) / (2.0 * gamma[0])

    def test_clipped_to_the_box(self):
        # under case iii's skew, a constant drift's alpha* is -m3 / 4 < 0
        wide = pseudo_true(ModelSpec(ConstantDrift(), RationalSqrt(), alpha_box=(-10.0, 10.0)), OU, CASE_III)
        assert wide[0] == pytest.approx(-(8.0 / 15.0) / 4.0, rel=1e-12) and wide[1] == pytest.approx(math.sqrt(2.0))
        boxed = ModelSpec(ConstantDrift(), RationalSqrt(), alpha_box=(0.0, 10.0), gamma_box=(0.05, 1.2))
        assert pseudo_true(boxed, OU, CASE_III) == (0.0, 1.2)

    def test_refusals(self):
        with pytest.raises(ValueError, match="catalog drift family"):
            pseudo_true(ModelSpec(Cubic(), ConstantScale()), OU, CASE_I)
        for truth in (TrueModel(rate=0.0, level=0.5, sigma=1.0),
                      TrueModel(rate=-0.5, level=0.0, sigma=1.0)):
            with pytest.raises(ValueError, match="mean-reverting"):
                pseudo_true(BENCH, truth, CASE_I)

    @pytest.mark.parametrize("model", [ModelSpec(MeanRevertLinear(m=0.0), ConstantScale()),
                                       ModelSpec(LinearDecay(), RationalSqrt())], ids=repr)
    def test_unidentified_alpha_refused(self, model):
        # a zero-sigma truth is a point mass at the basis's root 0, so
        # E[b^2 q] = 0 and no alpha fits better than another
        flat = TrueModel(rate=0.5, level=0.0, sigma=0.0)
        with pytest.raises(ValueError, match="not identified") as refused:
            pseudo_true(model, flat, CASE_I)
        assert repr(model) in str(refused.value) and repr(flat) in str(refused.value)


class TestEPESolve:
    def test_pure_ou_analytic(self, inv_i):
        # E^x[X_t] = x e^{-t/2}, so f(x) = 2x
        (f,) = epe_solve(IDENTITY, OU, CASE_I, m=1000, seed=7, inv=inv_i)
        assert f.x.size == 25
        assert np.all(np.abs(f.f - 2.0 * f.x) <= 3.0 * f.se)
        assert np.all(f.se > 0) and np.all(f.tail_bound > 0)

    def test_zero_rhs(self, inv_i):
        (f,) = epe_solve(ZERO, OU, CASE_I, m=60, seed=1, inv=inv_i)
        assert np.all(f.f == 0.0) and np.all(f.se == 0.0)

    def test_deterministic(self, inv_i):
        g = IDENTITY
        (a,) = epe_solve(g, OU, CASE_I, grid=np.linspace(-1, 1, 5), m=200, seed=2, inv=inv_i)
        (b,) = epe_solve(g, OU, CASE_I, grid=np.linspace(-1, 1, 5), m=200, seed=2, inv=inv_i)
        assert np.array_equal(a.f, b.f) and np.array_equal(a.se, b.se)

    def test_not_centered_rejected(self, inv_i):
        with pytest.raises(NotCenteredError):
            epe_solve(_PolyRHS(np.array([[1.0, 1.0]]), 0.0), OU, CASE_I, m=60, seed=2, inv=inv_i)

    def test_negative_seed_refused(self, inv_i):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            epe_solve(ZERO, OU, CASE_I, m=60, seed=-1, inv=inv_i)

    def test_plain_callable_refused(self, inv_i, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before g was checked")

        monkeypatch.setattr(asymptotics, "_chunked_paths", refuse)
        with pytest.raises(TypeError, match="_PolyRHS"):
            epe_solve(lambda x: np.asarray(x, float), OU, CASE_I, m=60, seed=2, inv=inv_i)

    def test_zero_padding_keeps_the_solution(self, inv_i):
        # g_1's row is zero-padded to g_2's degree in every run: summing the
        # identity from the power sums of degree 3 instead of 1 must not
        # change the answer
        kw = dict(grid=np.linspace(-2.0, 2.0, 9), t_max=10.0, m=200, seed=5, inv=inv_i)
        (plain,) = epe_solve(IDENTITY, OU, CASE_I, **kw)
        (padded,) = epe_solve(_PolyRHS(np.array([[0.0, 1.0, 0.0, 0.0]]), 0.0), OU, CASE_I, **kw)
        for name in ("f", "se", "tail_bound"):
            ref = getattr(plain, name)
            err = np.max(np.abs(getattr(padded, name) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), (name, err)

    def test_doubling_horizon_within_tail_bound(self, inv_i):
        g = IDENTITY
        grid = np.linspace(-2, 2, 9)
        (f20,) = epe_solve(g, OU, CASE_I, grid=grid, t_max=20.0, m=500, seed=9, inv=inv_i)
        (f40,) = epe_solve(g, OU, CASE_I, grid=grid, t_max=40.0, m=500, seed=9, inv=inv_i)
        assert np.all(np.abs(f40.f - f20.f) <= f20.tail_bound)

    def test_matches_euler_reference(self, inv_i, oracle_i, res_i):
        # the one-pass power-sum solve against the Euler recursion run from
        # every grid point on the same increment panel, for three inputs: a
        # cubic about m = 0.7 != 0, which exercises the mean term of the
        # affine form, on 7 points; _integrands' benchmark polynomials on the
        # 33-point run_asymptotics grid; and the same polynomials out to
        # |x - x_c| = 9, case ii's jump reach.  The 1234-step horizon ends
        # in a short third chunk, and the 218-step blocks end short inside
        # every chunk
        shifted = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.0)
        cubic = _PolyRHS(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]), 0.7)
        bench = _integrands(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star))[0]
        inputs = (
            (shifted, sample_invariant(shifted, CASE_I, budget=20000, seed=31), cubic, np.linspace(-5.0, 5.0, 7)),
            (OU, inv_i, bench, res_i.f1.x),
            (OU, inv_i, bench, bench.center + np.linspace(-9.0, 9.0, 13)),
        )
        t_max, m, step, seed = 12.34, 300, 0.01, 4
        steps, block = int(round(t_max / step)), max(1, _BLOCK_CELLS // m)
        assert steps % 500 != 0 and 500 % block != 0
        z = chunk_draws(CASE_I, step, steps, m, seed, _TAG_EPE)
        for model, inv, g, grid in inputs:
            assert inv.step == step
            got = epe_solve(g, model, CASE_I, grid=grid, t_max=t_max, m=m, seed=seed, inv=inv)
            want = np.empty((2, 3, grid.size))
            for i, x0 in enumerate(grid):
                values, first_bad = _euler_columns(model, step, np.full(m, x0), z)
                assert (first_bad < 0).all()
                for j, gx in enumerate(g(values)):
                    total = step * (gx.sum(axis=0) - 0.5 * (gx[0] + gx[-1]))
                    g_end = gx[-1]
                    tail = (abs(np.mean(g_end)) + 3.0 * batch_means_se(g_end)) / 0.5 + 3.0 * math.sqrt(
                        2.0 * t_max * np.var(g_end) / (0.5 * m)
                    )
                    want[j, :, i] = np.mean(total), batch_means_se(total), tail
            for j, (approx, gv) in enumerate(zip(got, g(inv.states))):
                for name, ref in zip(("f", "se", "tail_bound"), want[j]):
                    err = np.max(np.abs(getattr(approx, name) - ref))
                    assert err <= 1e-12 * np.max(np.abs(ref)), (grid.size, j, name, err)
                assert approx.g_mean == float(np.mean(gv)) and approx.g_se == batch_means_se(gv)
            # a single right-hand side gives the same numbers as its slot in the tuple
            (alone,) = epe_solve(_PolyRHS(g.coef[:1], g.center), model, CASE_I, grid=grid, t_max=t_max, m=m,
                                 seed=seed, inv=inv)
            assert np.array_equal(alone.f, got[0].f) and np.array_equal(alone.se, got[0].se)

    def test_independent_of_worker_count(self, inv_i, oracle_i, monkeypatch):
        # _integrands' score polynomials over three chunks, the last one short
        # (1234 steps), whose partial sums are added in chunk order
        g = _integrands(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star))[0]
        default = _util._pool_size
        grid = np.linspace(-2.0, 2.0, 7)
        runs = []
        for workers in (None, 1, 3):
            monkeypatch.setattr(_util, "_pool_size", lambda tasks, n=workers: n or default(tasks))
            runs.append(epe_solve(g, OU, CASE_I, grid=grid, t_max=12.34, m=100, seed=6, inv=inv_i))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                for name in ("x", "f", "se", "tail_bound"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_one_pool_call_over_the_draw_chunks(self, inv_i, oracle_i, res_i, monkeypatch):
        # a solve makes one pool call, with one task per 500-step chunk of
        # the paths, the short last chunk included, whatever the grid's size
        # (33 run_asymptotics points or 5); the power sums are taken as the
        # chunks arrive
        g = _integrands(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star))[0]
        calls = []

        def spy(fn, items, core_map=sde.core_map):
            calls.append(list(items))
            return core_map(fn, calls[-1])

        monkeypatch.setattr(sde, "core_map", spy)
        kw = dict(t_max=12.34, m=200, seed=3, inv=inv_i)
        for grid in (res_i.f1.x, np.linspace(-1.0, 2.0, 5)):
            calls.clear()
            out = epe_solve(g, OU, CASE_I, grid=grid, **kw)
            assert calls == [[(0, 500), (1, 500), (2, 234)]]
            assert len(out) == 2 and all(np.array_equal(a.x, grid) for a in out)

    def test_non_finite_grid_refused_before_drawing(self, inv_i, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before the grid was checked")

        monkeypatch.setattr(asymptotics, "_chunked_paths", refuse)
        for grid in ([0.0, math.nan], [0.0, 1.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                epe_solve(IDENTITY, OU, CASE_I, grid=grid, m=60, seed=2, inv=inv_i)

    def test_divergent_start_rejected(self, inv_i):
        grid = np.array([0.0, 2.0 * DIVERGENCE_BOUND])
        with pytest.raises(DivergenceError):
            epe_solve(IDENTITY, OU, CASE_I, grid=grid, m=60, seed=2, inv=inv_i)

    def test_linear_tail_extrapolation(self):
        # the two outer pieces extend the outermost grid slopes
        grid = np.linspace(-2.0, 2.0, 5)
        f = EPEApprox(grid, grid**2, np.ones(5), np.ones(5))
        q = np.array([1.5, 4.0, -5.0])
        intercepts, slopes, j = f._segments(q)
        assert j.tolist() == [3, 3, 0]
        inside, high, low = intercepts[j] + slopes[j] * q
        assert inside == pytest.approx(np.interp(1.5, grid, grid**2))
        hi_slope = (4.0 - 1.0) / 1.0
        assert high == pytest.approx(4.0 + hi_slope * 2.0)
        lo_slope = (1.0 - 4.0) / 1.0
        assert low == pytest.approx(4.0 + lo_slope * -3.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_non_finite_sample_step_refused_before_drawing(self, inv_i, monkeypatch, step):
        # the paths take the step of the chain the pi_0 sample came from
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before the step was checked")

        monkeypatch.setattr(asymptotics, "_chunked_paths", refuse)
        with pytest.raises(ValueError, match="finite"):
            epe_solve(ZERO, OU, CASE_I, m=60, inv=InvariantSample(inv_i.states, inv_i.seed, step))

    def test_horizon_below_one_step_rejected(self, inv_i):
        # 0.004 / 0.01 rounds to zero steps: refused before any path is drawn
        with pytest.raises(ValueError, match="at least one"):
            epe_solve(ZERO, OU, CASE_I, t_max=0.004, m=60, inv=inv_i)

    def test_approx_validation(self, inv_i):
        with pytest.raises(ValueError, match="increasing"):
            EPEApprox(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="shapes"):
            EPEApprox(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="two points"):
            epe_solve(ZERO, OU, CASE_I, grid=np.array([1.0]), m=60, inv=inv_i)
        with pytest.raises(ValueError, match="finite"):
            epe_solve(ZERO, OU, CASE_I, m=60, inv=inv_i, t_max=math.inf)
        for m in (60.5, True):
            with pytest.raises(ValueError, match="m must be an integer"):
                epe_solve(ZERO, OU, CASE_I, m=m, inv=inv_i)
        # an integral float runs as its integer
        (f,) = epe_solve(IDENTITY, OU, CASE_I, t_max=1.0, m=60.0, inv=inv_i)
        (want,) = epe_solve(IDENTITY, OU, CASE_I, t_max=1.0, m=60, inv=inv_i)
        assert f.f.tobytes() == want.f.tobytes() and f.se.tobytes() == want.se.tobytes()


class TestMartingaleCheck:
    def test_pure_ou_analytic_martingale(self):
        grid = np.linspace(-4, 4, 41)
        f = EPEApprox(grid, 2 * grid, np.zeros(41), np.zeros(41))
        z = martingale_check(f, lambda x: np.asarray(x, float), OU, CASE_I, reps=4000, seed=3)
        assert z.shape == (3, 3)
        assert z.max() <= 3.0

    def test_zero_case_identically_zero(self):
        grid = np.linspace(-4, 4, 9)
        f = EPEApprox(grid, np.zeros(9), np.zeros(9), np.zeros(9))
        z = martingale_check(f, lambda x: np.zeros_like(np.asarray(x, float)), OU, CASE_I, reps=100, seed=1)
        assert np.all(z == 0.0)

    def test_benchmark_f1_panel(self, res_i, oracle_i):
        g = _integrands(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star))[0]
        z = martingale_check(res_i.f1, lambda x: g(x)[0], OU, CASE_I, reps=4000, seed=13)
        assert z.max() <= 4.0


class TestGammaMatrix:
    def test_case_i_values(self, inv_i, oracle_i):
        g = gamma_matrix(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star), inv_i)
        assert g[0, 1] == 0.0
        assert g[0, 0] == pytest.approx(oracle_i.gamma_gamma, abs=0.06)
        assert g[1, 1] == pytest.approx(oracle_i.gamma_alpha, abs=0.45)
        assert abs(g[1, 0]) <= 0.08

    def test_blocked_terms_match_one_call_bitwise(self, oracle_i):
        alpha_s, gamma_s = oracle_i.alpha_star, oracle_i.gamma_star
        x = np.random.default_rng(3).standard_normal(2 * _BLOCK_CELLS + 5)
        rows = _integrands(BENCH, OU, (alpha_s, gamma_s))[1]
        for a, b in zip(_gamma_terms(rows, x), rows(x)):
            assert np.array_equal(a, b)
            assert np.mean(a) == np.mean(b)

    def test_diffusion_values(self):
        orc = benchmark_oracle(DIFFUSION)
        inv = sample_invariant(OU, DIFFUSION, budget=20000, seed=14)
        g = gamma_matrix(BENCH, OU, (orc.alpha_star, orc.gamma_star), inv)
        assert g[0, 0] == pytest.approx(-2.0, abs=0.1)
        assert g[1, 1] == pytest.approx(6.0, abs=0.5)

    def test_correct_specification_exact_zeros(self, inv_i):
        model = ModelSpec(drift=LinearDecay(), scale=ConstantScale())
        g = gamma_matrix(model, OU, (0.5, 1.0), inv_i)
        # A - a vanishes identically, so the cross entry is exactly zero
        assert g[1, 0] == 0.0
        assert g[0, 0] == pytest.approx(-4.0, abs=1e-12)
        assert g[1, 1] == pytest.approx(2.0 * np.mean(inv_i.states**2), abs=1e-12)

    def test_matches_path_hessians(self, inv_i, oracle_i):
        # independent construction of the same limit: criterion hessians on a
        # long observed path vs the pi_0-averaged displays
        h, n = 0.01, 1_000_000
        rng = np.random.default_rng(17)
        dz = sample_increments(CASE_I, h, n, rng)
        rho = 1.0 - 0.5 * h
        y, _ = lfilter([1.0], [1.0, -rho], dz, zi=np.array([0.0]))
        path = SamplePath(h=h, values=np.concatenate([[0.0], y]))
        gmat = gamma_matrix(BENCH, OU, (oracle_i.alpha_star, oracle_i.gamma_star), inv_i)

        gs = oracle_i.gamma_star
        hess = g1_eval(path, BENCH, gs)[2]
        eps = 1e-4
        fd = (
            g1_eval(path, BENCH, gs + eps)[0]
            - 2.0 * g1_eval(path, BENCH, gs)[0]
            + g1_eval(path, BENCH, gs - eps)[0]
        ) / eps**2
        assert fd == pytest.approx(hess, rel=1e-5)
        assert hess == pytest.approx(gmat[0, 0], abs=0.12)

        a_s = oracle_i.alpha_star
        hess2 = g2_eval(path, BENCH, gs, a_s)[2]
        fd2 = (
            g2_eval(path, BENCH, gs, a_s + eps)[0]
            - 2.0 * g2_eval(path, BENCH, gs, a_s)[0]
            + g2_eval(path, BENCH, gs, a_s - eps)[0]
        ) / eps**2
        assert fd2 == pytest.approx(hess2, rel=1e-5)
        assert -hess2 == pytest.approx(gmat[1, 1], abs=1.5)


class TestSigmaMatrix:
    def test_case_i_matches_oracle(self, res_i, oracle_i):
        err = np.abs(res_i.sigma - oracle_i.sigma)
        gate = 4.0 * res_i.sigma_se + 0.03 * np.abs(oracle_i.sigma)
        assert np.all(err <= gate), f"{res_i.sigma} vs {oracle_i.sigma}"

    def test_symmetric_psd(self, res_i):
        assert res_i.sigma[0, 1] == res_i.sigma[1, 0]
        assert np.linalg.eigvalsh(res_i.sigma).min() >= -1e-6

    def test_correct_scale_reduces_to_fourth_cumulant(self, inv_i, oracle_i):
        # c constant and correct: f1 = 0 and Sigma_gamma = 4 kappa_4 exactly
        model = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=ConstantScale())
        theta = (0.25, 1.0)
        g, _, jumps = _integrands(model, OU, theta)
        (f1,) = epe_solve(_PolyRHS(g.coef[:1], g.center), OU, CASE_I, m=60, seed=15, inv=inv_i)
        assert np.all(f1.f == 0.0)
        (f2,) = epe_solve(_PolyRHS(g.coef[1:], g.center), OU, CASE_I, m=800, seed=15, inv=inv_i)
        sig = _sigma_full(jumps, OU.sigma, inv_i, f1, f2, CASE_I)[0]
        assert sig[0, 0] == pytest.approx(4.0 * oracle_i.kappas[4], rel=1e-6)

    def test_matches_per_node_oracle(self, oracle_i):
        # the per-piece moment sums against every (state, node) cell, at the
        # coarse and half-step nodes of cases i, ii and iii, for a positive
        # and a negative true scale; the states lie on the knots, within
        # 1e-13 of them, outside the grid and in between
        theta = (oracle_i.alpha_star, oracle_i.gamma_star)
        grid, ones = np.linspace(-2.0, 2.0, 9), np.ones(9)
        f1 = EPEApprox(grid, 0.3 * grid**2 - 0.1 * grid, ones, ones)
        f2 = EPEApprox(grid, np.tanh(grid), ones, ones)
        near = [grid, grid + 1e-13, grid - 1e-13, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)]
        outside = [-9.0, -3.5, -2.0 - 1e-9, 2.5, 7.0]
        states = np.concatenate(near + [outside, np.random.default_rng(2).normal(0.0, 1.5, 200)])
        flipped = TrueModel(rate=0.5, level=0.0, sigma=-1.0)
        for law in (CASE_I, CASE_II, CASE_III):
            z, w, qstep = _converged_nodes(law)
            node_sets = ((z, w), _nodes_at(law, qstep / 2.0))
            for (nodes, weights), true_model in itertools.product(node_sets, (OU, flipped)):
                jumps = _integrands(BENCH, true_model, theta)[2]
                got = _sigma_terms(jumps, true_model.sigma, states, f1, f2, nodes, weights)
                want = sigma_terms_by_node(BENCH, true_model, theta, states, f1, f2, nodes, weights)
                # S_cross is measured against its Cauchy-Schwarz bound
                for name, a, b, scale in zip("gax", got, want, (want[0], want[1], np.sqrt(want[0] * want[1]))):
                    err = np.max(np.abs(a - b) / scale)
                    assert err <= 1e-12, (law, nodes.size, true_model.sigma, name, err)

    def test_refuses_other_f_before_any_work(self):
        # no weights, states or nodes: any work would fail on them first
        grid = np.linspace(-2.0, 2.0, 9)
        f = EPEApprox(grid, np.tanh(grid), np.ones(9), np.ones(9))
        with pytest.raises(TypeError, match="EPEApprox"):
            _sigma_terms(None, None, None, f, np.tanh, None, None)
        coarse = EPEApprox(grid[::2], np.tanh(grid[::2]), np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="one grid"):
            _sigma_terms(None, None, None, f, coarse, None, None)

    def test_seed_exchangeable(self):
        a = run_asymptotics(BENCH, OU, CASE_I, seed=21, budget=15000, m=600, t_max=30.0)
        b = run_asymptotics(BENCH, OU, CASE_I, seed=22, budget=15000, m=600, t_max=30.0)
        gate = 3.0 * np.sqrt(a.sigma_se**2 + b.sigma_se**2) + 0.02 * np.abs(a.sigma)
        assert np.all(np.abs(a.sigma - b.sigma) <= gate)


class TestAvar:
    def test_identity_gamma(self, oracle_i):
        np.testing.assert_array_equal(avar(np.eye(2), oracle_i.sigma), oracle_i.sigma)

    def test_diagonal_gamma(self, oracle_i):
        s = oracle_i.sigma
        v = avar(np.diag([2.0, 4.0]), s)
        assert v[0, 0] == pytest.approx(s[0, 0] / 4.0, rel=1e-14)
        assert v[1, 1] == pytest.approx(s[1, 1] / 16.0, rel=1e-14)
        assert v[0, 1] == pytest.approx(s[0, 1] / 8.0, rel=1e-14)

    def test_singular_gamma_rejected(self):
        with pytest.raises(SingularGammaError):
            avar(np.array([[1.0, 0.0], [0.0, 1e-13]]), np.eye(2))

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(CovarianceError):
            avar(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_case_i_diagonal_near_oracle(self, res_i, oracle_i):
        rel = np.abs(np.diag(res_i.v) - np.diag(oracle_i.avar)) / np.diag(oracle_i.avar)
        assert np.all(rel <= 0.12)


class TestRunAsymptotics:
    def test_report_shape(self, res_i):
        assert isinstance(res_i, AsymptoticsResult)
        obj = res_i.to_obj()
        assert set(obj) == {"Gamma", "Sigma", "V", "diagnostics"}
        diag = obj["diagnostics"]
        assert set(diag) >= {"invariant", "centering", "epe", "gamma_condition"}
        # the fixed burn-in and spacing of pi_0, and 25 quantiles plus four
        # jump-reach points on each side of the EPE grid
        assert (diag["invariant"]["burn_in"], diag["invariant"]["spacing"]) == (50.0, 1.0)
        assert diag["epe"]["grid_points"] == 33

    def test_v_consistent_with_parts(self, res_i):
        np.testing.assert_allclose(res_i.v, avar(res_i.gamma, res_i.sigma), atol=1e-14)

    def test_brownian_rejected(self):
        with pytest.raises(ValueError, match="pure-jump"):
            run_asymptotics(BENCH, OU, Brownian(1.0))

    @pytest.mark.parametrize(
        "bad",
        [dict(t_max=0.004), dict(t_max=math.inf), dict(step=math.nan), dict(m=29), dict(m=60.5), dict(m=True)],
    )
    def test_epe_arguments_checked_before_sampling(self, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("pi_0 was sampled before the arguments were checked")

        monkeypatch.setattr(asymptotics, "sample_invariant", refuse)
        # a boolean or non-integral m is refused as such, the rest by range
        match = "m must be an integer" if isinstance(bad.get("m"), (bool, float)) else "m >= 30"
        with pytest.raises(ValueError, match=match):
            run_asymptotics(BENCH, OU, CASE_I, budget=600000, **bad)

    def test_boundary_theta_star_refused_before_sampling(self, monkeypatch):
        # under case iii's skew a constant drift's alpha* is -2/15, which
        # pseudo_true clips to the box edge 0: not a critical point, so the
        # EPE right-hand side g_2 is not centered
        def refuse(*args, **kwargs):
            raise AssertionError("pi_0 was sampled before theta* was checked")

        monkeypatch.setattr(asymptotics, "sample_invariant", refuse)
        model = ModelSpec(ConstantDrift(), RationalSqrt())
        assert pseudo_true(model, OU, CASE_III)[0] == 0.0
        with pytest.raises(ValueError, match=r"alpha\* = 0.0 is on the edge of its box \(0.0, 10.0\)"):
            run_asymptotics(model, OU, CASE_III)
        narrow = ModelSpec(MeanRevertLinear(m=1.0), RationalSqrt(), gamma_box=(0.05, 1.2))
        with pytest.raises(ValueError, match=r"gamma\* = 1.2 is on the edge"):
            run_asymptotics(narrow, OU, CASE_I)

    def test_deterministic(self):
        kw = dict(seed=8, budget=2000, m=60, t_max=10.0)
        a = run_asymptotics(BENCH, OU, CASE_I, **kw)
        b = run_asymptotics(BENCH, OU, CASE_I, **kw)
        assert np.array_equal(a.sigma, b.sigma) and np.array_equal(a.gamma, b.gamma)

    def test_builds_the_integrand_table_once(self, monkeypatch):
        # theta* comes from pseudo_true, and its one _integrands table feeds
        # the EPE solves, Gamma and Sigma
        built = []

        def spy(*args, integrands=asymptotics._integrands):
            built.append(args)
            return integrands(*args)

        monkeypatch.setattr(asymptotics, "_integrands", spy)
        run_asymptotics(BENCH, OU, CASE_I, seed=8, budget=2000, m=60, t_max=10.0)
        assert built == [(BENCH, OU, pseudo_true(BENCH, OU, CASE_I))]
