"""Estimator tests: objectives, derivatives, closed forms, staging."""

import math
import tracemalloc

import numpy as np
import pytest

from levy_gqmle.coefficients import (
    ConstantDrift,
    ConstantScale,
    LinearDecay,
    MeanRevertLinear,
    RationalSqrt,
    _horner,
)
from levy_gqmle.gqmle import (
    _FIT_TILE,
    ModelSpec,
    _fit_drift,
    _fit_rows,
    _fit_scale,
    estimate_staged,
)
from levy_gqmle.sde import PathConfig, SamplePath, TrueModel, simulate_euler
from _oracles import benchmark_closed_form, fit_rows_untiled, g1_eval, g2_eval
from test_levy import CASE_I

BENCH = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=RationalSqrt())
BENCH_WIDE = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=RationalSqrt(), alpha_box=(-50.0, 50.0))
CONST = ModelSpec(drift=ConstantDrift(), scale=ConstantScale())
OU = TrueModel(rate=0.5, level=0.0, sigma=1.0)


def _sim(n=400, h=0.05, seed=0, noise=CASE_I):
    return simulate_euler(OU, noise, PathConfig(n=n, h=h, x0=0.0, seed=seed))


def _sums(path, model):
    """(S2, S1, Sb) = (sum dx^2 q, sum dx b q, sum b^2 q) of one path, each
    over the whole path as a one-row array, multiplied as the fit does."""
    x, dx = path.values[None, :-1], path.increments()[None]
    q = _horner(model.scale.q_coef, x)
    b = _horner(model.drift.basis_coef, x)
    bq = q * b
    return np.sum(dx * dx * q, axis=1), np.sum(dx * bq, axis=1), np.sum(b * bq, axis=1)


def _stage_one(path, model):
    """Stage one's gamma alone on one path."""
    return float(_fit_scale(model, _sums(path, model)[0], path.n, path.h)[0][0])


def _stage_two(path, model):
    """Stage two's alpha alone on one path."""
    _, s1, sb = _sums(path, model)
    return float(_fit_drift(model, s1, sb, path.h)[0][0])


class TestG1:
    def test_hand_path_constant_scale(self):
        # h=1, increments (1,2): gamma^2 = (1/T) sum dx^2 = 5/2
        path = SamplePath(h=1.0, values=np.array([0.0, 1.0, 3.0]))
        res = estimate_staged(path, CONST)
        assert res.gamma_hat == pytest.approx(math.sqrt(5 / 2), abs=1e-14)

    def test_constant_scale_stationary_point(self):
        path = _sim(seed=1)
        res = estimate_staged(path, CONST)
        want = math.sqrt(float(np.sum(path.increments() ** 2)) / path.T)
        assert res.gamma_hat == pytest.approx(want, abs=1e-14)
        assert abs(g1_eval(path, CONST, res.gamma_hat)[1]) < 1e-10

    @pytest.mark.parametrize("k", range(20))
    def test_derivatives_match_finite_differences(self, k):
        rng = np.random.default_rng(1000 + k)
        path = _sim(n=150, seed=2000 + k)
        model = BENCH if k % 2 == 0 else CONST
        gamma = float(rng.uniform(0.5, 3.0))
        eps = 1e-6 * gamma
        v, g, H = g1_eval(path, model, gamma)
        vp = g1_eval(path, model, gamma + eps)[0]
        vm = g1_eval(path, model, gamma - eps)[0]
        assert g == pytest.approx((vp - vm) / (2 * eps), rel=1e-6, abs=1e-9)
        gp = g1_eval(path, model, gamma + eps)[1]
        gm = g1_eval(path, model, gamma - eps)[1]
        assert H == pytest.approx((gp - gm) / (2 * eps), rel=1e-6, abs=1e-9)

    def test_domain_error_on_nonpositive_scale(self):
        path = _sim(n=50)
        with pytest.raises(ValueError, match="non-positive"):
            g1_eval(path, CONST, -1.0)


class TestG2:
    def test_constant_drift_endpoint_slope(self):
        path = _sim(seed=3)
        model = ModelSpec(drift=ConstantDrift(), scale=ConstantScale(), alpha_box=(-10.0, 10.0))
        alpha = _stage_two(path, model)
        want = (path.values[-1] - path.values[0]) / path.T
        assert alpha == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k", range(20))
    def test_derivatives_match_finite_differences(self, k):
        rng = np.random.default_rng(3000 + k)
        path = _sim(n=150, seed=4000 + k)
        model = BENCH if k % 2 == 0 else CONST
        gamma_hat = float(rng.uniform(0.8, 2.0))
        alpha = float(rng.uniform(0.05, 1.5))
        eps = 1e-6 * max(1.0, alpha)
        v, g, H = g2_eval(path, model, gamma_hat, alpha)
        vp = g2_eval(path, model, gamma_hat, alpha + eps)[0]
        vm = g2_eval(path, model, gamma_hat, alpha - eps)[0]
        assert g == pytest.approx((vp - vm) / (2 * eps), rel=1e-6, abs=1e-9)
        gp = g2_eval(path, model, gamma_hat, alpha + eps)[1]
        gm = g2_eval(path, model, gamma_hat, alpha - eps)[1]
        assert H == pytest.approx((gp - gm) / (2 * eps), rel=1e-6, abs=1e-9)

    def test_newton_one_step_exact_for_linear_drift(self):
        # the objective is an exact quadratic in alpha
        path = _sim(seed=5)
        alpha0 = 7.3
        v, g, H = g2_eval(path, BENCH, 1.4, alpha0)
        alpha1 = alpha0 - g / H
        assert abs(g2_eval(path, BENCH, 1.4, alpha1)[1]) < 1e-9


class TestEstimators:
    def test_staged_aggregates(self):
        path = _sim(n=1000, seed=8)
        res = estimate_staged(path, BENCH)
        assert res.gamma_hat == _stage_one(path, BENCH)
        assert res.alpha_hat == _stage_two(path, BENCH)
        assert res.g1_value == g1_eval(path, BENCH, res.gamma_hat)[0]
        assert res.g2_value == g2_eval(path, BENCH, res.gamma_hat, res.alpha_hat)[0]
        assert np.isfinite(res.g1_value) and np.isfinite(res.g2_value)

    def test_stage_two_invariant_to_scale_level(self):
        # multiplicative scale cancels from the weighted LS: the stage-two
        # criterion is quadratic in alpha, and its Newton step from the
        # estimate stays there whatever gamma the criterion is read at
        path = _sim(n=800, seed=9)
        res = estimate_staged(path, BENCH)
        for gamma in (math.sqrt(2), 0.3, 7.0):
            _, g, H = g2_eval(path, BENCH, gamma, res.alpha_hat)
            assert res.alpha_hat - g / H == pytest.approx(res.alpha_hat, abs=1e-12)

    def test_gradients_vanish_at_estimates(self):
        for seed in (21, 22, 23):
            path = _sim(n=600, seed=seed)
            res = estimate_staged(path, BENCH)
            assert abs(g1_eval(path, BENCH, res.gamma_hat)[1]) < 1e-8
            assert abs(g2_eval(path, BENCH, res.gamma_hat, res.alpha_hat)[1]) < 1e-8

    def test_noiseless_drift_recovery_order_h(self):
        # exact-flow samples of dx = -0.8 x dt: the estimator recovers the
        # rate up to O(h) discretization error
        alpha_true = 0.8
        errs = []
        for h in (0.05, 0.025):
            t = np.arange(201) * h
            path = SamplePath(h=h, values=2.0 * np.exp(-alpha_true * t))
            model = ModelSpec(drift=LinearDecay(), scale=ConstantScale())
            alpha = _stage_two(path, model)
            errs.append(abs(alpha - alpha_true))
            assert errs[-1] < alpha_true**2 * h
        assert errs[1] < errs[0]

    def test_boundary_clamp_and_flag(self):
        path = SamplePath(h=1.0, values=np.linspace(0, 1e-5, 50))
        res = estimate_staged(path, CONST)
        assert res.gamma_hat == CONST.gamma_box[0]
        assert res.stage1_boundary and not res.stage1_degenerate

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiles", ["one", "last"])
    @pytest.mark.parametrize(
        "tail, models",
        [([1e200, 0.2, -0.1, 0.4], (BENCH, CONST)), ([0.2, -0.1, 0.4, 1e150, 1e150], (BENCH,))],
        ids=["q", "drift-weight"],
    )
    def test_overflowing_state_refused(self, tiles, tail, models):
        # at x = 1e200, q = 1 + x^2 is inf, and (dX)^2 overflows even where
        # q = 1: either scale is refused, not carried on as a gamma clamped
        # to the box with -inf criteria, and without a numpy warning.  A path
        # that climbs to 1e150 and stays keeps q = 1e300 and (dX)^2 q finite,
        # but b^2 q overflows: refused too, not fitted as an unflagged nan
        # alpha.  On a longer path the overflow sits in the fit's last tile only
        values = np.array([0.0, 0.3, *tail])
        if tiles == "last":
            values = np.concatenate([np.full(2 * _FIT_TILE, 0.2), values])
        path = SamplePath(h=0.1, values=values)
        for model in models:
            with pytest.raises(ValueError, match="scale coefficient evaluated non-positive"):
                estimate_staged(path, model)

    @pytest.mark.parametrize("n", [49, 2 * _FIT_TILE + 5])
    def test_degenerate_path_lower_edge(self, n):
        path = SamplePath(h=1.0, values=np.zeros(n + 1))
        res = estimate_staged(path, BENCH)
        assert res.gamma_hat == BENCH.gamma_box[0]
        assert res.stage1_degenerate and res.stage1_boundary


class TestClosedFormExample:
    def test_matches_staged_on_random_paths(self):
        # raw closed-form values, so compare against a box that never binds
        for seed in range(100):
            path = _sim(n=100, seed=500 + seed)
            alpha, gamma = benchmark_closed_form(path)
            res = estimate_staged(path, BENCH_WIDE)
            assert gamma == pytest.approx(res.gamma_hat, abs=1e-10)
            assert alpha == pytest.approx(res.alpha_hat, abs=1e-10)

    def test_hand_two_step_path(self):
        # spelled-out display arithmetic on a 3-point path
        x0, x1, x2, h = 0.5, 1.5, 0.25, 0.5
        path = SamplePath(h=h, values=np.array([x0, x1, x2]))
        d1, d2 = x1 - x0, x2 - x1
        gamma_want = math.sqrt((d1**2 * (x0**2 + 1) + d2**2 * (x1**2 + 1)) / (2 * h))
        num = d1 * (1 - x0) * (1 + x0**2) + d2 * (1 - x1) * (1 + x1**2)
        den = h * ((x0 - 1) ** 2 * (1 + x0**2) + (x1 - 1) ** 2 * (1 + x1**2))
        alpha, gamma = benchmark_closed_form(path)
        assert gamma == pytest.approx(gamma_want, abs=1e-14)
        assert alpha == pytest.approx(num / den, abs=1e-14)
        res = estimate_staged(path, BENCH)
        assert res.gamma_hat == pytest.approx(gamma_want, abs=1e-12)
        assert res.alpha_hat == pytest.approx(num / den, abs=1e-12)

    def test_zero_path_boundary_flag(self):
        # zero quadratic variation: the raw closed form gives gamma = 0, which
        # the staged fit clamps to the lower box edge and flags
        path = SamplePath(h=1.0, values=np.zeros(20))
        alpha, gamma = benchmark_closed_form(path)
        assert gamma == 0.0
        res = estimate_staged(path, BENCH)
        assert res.gamma_hat == BENCH.gamma_box[0]
        assert res.stage1_boundary and res.stage1_degenerate
        # stage two then sees the exact lower edge alpha = 0, not a clamp
        assert not (res.stage2_boundary or res.stage2_degenerate)
        assert res.alpha_hat == alpha == 0.0

    @pytest.mark.parametrize("n", [19, 2 * _FIT_TILE + 5])
    def test_constant_path_at_one_degenerate(self, n):
        # the drift basis 1 - x vanishes at x = 1, so the closed form's
        # denominator is zero: the staged fit returns the lower alpha edge, flagged;
        # a constant path also has zero quadratic variation, so stage one is too
        path = SamplePath(h=1.0, values=np.ones(n + 1))
        res = estimate_staged(path, BENCH)
        assert res.alpha_hat == BENCH.alpha_box[0]
        assert res.stage2_degenerate and res.stage2_boundary
        assert res.stage1_degenerate and res.stage1_boundary


class TestTiledFit:
    MODELS = [BENCH_WIDE, CONST, ModelSpec(LinearDecay(), RationalSqrt(), alpha_box=(-50.0, 50.0))]

    @pytest.mark.parametrize("n", [1, _FIT_TILE - 1, _FIT_TILE, _FIT_TILE + 1, 3 * _FIT_TILE + 7])
    @pytest.mark.parametrize("rows", [1, 3, 16, 17])
    def test_matches_untiled_oracle(self, rows, n):
        # the tiled sums against whole-row textbook sums, within rounding
        # (bound set beforehand); each row of the block is bitwise the fit
        # of that row alone
        block = np.stack([_sim(n=n, h=0.01, seed=700 + r).values for r in range(rows)])
        for model in self.MODELS:
            alpha, gamma, stage1, stage2 = _fit_rows(model, block, 0.01)
            want = fit_rows_untiled(model, block, 0.01)
            np.testing.assert_allclose(alpha, want[0], rtol=1e-13, atol=0)
            np.testing.assert_allclose(gamma, want[1], rtol=1e-13, atol=0)
            for got, oracle in zip((*stage1, *stage2), (*want[2], *want[3])):
                assert np.array_equal(got, oracle)
            for r in (0, rows - 1):
                alone = _fit_rows(model, block[r : r + 1], 0.01)
                assert (alone[0][0], alone[1][0]) == (alpha[r], gamma[r])

    def test_memory_does_not_grow_with_path_length(self):
        # the fit's temporaries span one tile, so its traced peak stays
        # flat in n and far below the panel it reads
        def peak(n):
            values = np.cumsum(np.random.default_rng(n).normal(0.0, 0.1, (16, n + 1)), axis=1)
            tracemalloc.start()
            try:
                _fit_rows(BENCH, values, 0.01)
                return tracemalloc.get_traced_memory()[1], values.nbytes
            finally:
                tracemalloc.stop()

        short, _ = peak(4 * _FIT_TILE)
        long, panel = peak(40000)
        assert long <= 1.2 * short
        assert long < panel / 4


class TestOptimizerProperties:
    def test_stage_one_gradient_single_sign_change(self):
        # unimodality on the box: the gradient crosses zero exactly once
        for seed in (51, 52, 53):
            path = _sim(n=300, seed=seed)
            grid = np.exp(np.linspace(math.log(0.05), math.log(20.0), 200))
            grads = np.array([g1_eval(path, BENCH, g)[1] for g in grid])
            signs = np.sign(grads)
            changes = np.sum(signs[1:] != signs[:-1])
            assert changes == 1

    def test_model_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(drift=ConstantDrift(), scale=ConstantScale(), gamma_box=(0.0, 10.0))
        with pytest.raises(ValueError):
            ModelSpec(drift=ConstantDrift(), scale=ConstantScale(), alpha_box=(3.0, 1.0))

    def test_result_json_flat(self):
        path = _sim(n=100, seed=61)
        res = estimate_staged(path, BENCH)
        obj = res.to_obj()
        assert set(map(type, obj.values())) <= {float, bool}
