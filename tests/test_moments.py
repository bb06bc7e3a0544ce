"""Residual-moment tests against the driving-law cumulants."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.signal import lfilter

from levy_gqmle._util import substream
from levy_gqmle.coefficients import ConstantDrift, ConstantScale, LinearDecay, MeanRevertLinear, RationalSqrt
from levy_gqmle.gqmle import ModelSpec, estimate_staged
from levy_gqmle.levy import sample_increments
from levy_gqmle.moments import residual_moment
from levy_gqmle.sde import SamplePath
from _oracles import family_form
from test_levy import CASE_I, CASE_II, CASE_III

CONST = ModelSpec(drift=ConstantDrift(), scale=ConstantScale())
BENCH = ModelSpec(drift=MeanRevertLinear(m=1.0), scale=RationalSqrt())


def _const_path(noise, n, h, a=0.3, c=1.0, seed=0):
    # constant coefficients: the Euler recursion is an exact cumulative sum
    dz = sample_increments(noise, h, n, substream(seed, 901))
    return SamplePath(h=h, values=np.concatenate([[0.0], np.cumsum(a * h + c * dz)]))


def _ou_path(noise, n, h, seed=0):
    # dX = -X/2 dt + dZ on the Euler grid, via the AR(1) fast path
    dz = sample_increments(noise, h, n, substream(seed, 903))
    rho = 1.0 - 0.5 * h
    y, _ = lfilter([1.0], [1.0, -rho], dz, zi=np.array([0.0]))
    return SamplePath(h=h, values=np.concatenate([[0.0], y]))


def _moment_and_se(path, est, model, r):
    m = residual_moment(path, est, model, r)
    x = path.values[:-1]
    a, c = est.alpha_hat * family_form(model.drift, x), est.gamma_hat * family_form(model.scale, x)
    z = (path.increments() - path.h * a) / c
    se = float(np.std(z**r, ddof=1)) / (math.sqrt(path.n) * path.h)
    return m, se


class TestResidualMoment:
    def test_correct_spec_case_i_fourth_moment(self):
        # kappa_4 = 0.03; the finite-h term 3 h kappa_2^2 needs its own allowance
        path = _const_path(CASE_I, n=2_000_000, h=0.001, seed=1)
        est = estimate_staged(path, CONST)
        m4, se = _moment_and_se(path, est, CONST, 4)
        assert abs(m4 - 0.03) < 4 * se + 3.5 * path.h

    def test_correct_spec_case_i_third_moment_vanishes(self):
        path = _const_path(CASE_I, n=2_000_000, h=0.001, seed=1)
        est = estimate_staged(path, CONST)
        m3, se = _moment_and_se(path, est, CONST, 3)
        assert abs(m3) < 4 * se + 1e-3

    def test_case_ii_third_moment_symmetric(self):
        path = _const_path(CASE_II, n=2_000_000, h=0.002, seed=2)
        est = estimate_staged(path, CONST)
        m3, se = _moment_and_se(path, est, CONST, 3)
        assert abs(m3) < 4 * se + 0.02

    def test_case_iii_third_and_fourth_moments(self):
        path = _const_path(CASE_III, n=2_000_000, h=0.001, seed=3)
        est = estimate_staged(path, CONST)
        m3, se3 = _moment_and_se(path, est, CONST, 3)
        assert abs(m3 - 0.8) < 4 * se3 + 0.05
        m4, se4 = _moment_and_se(path, est, CONST, 4)
        assert abs(m4 - 89 / 75) < 4 * se4 + 4.0 * path.h

    @pytest.mark.parametrize("noise", [CASE_I, CASE_II, CASE_III], ids=str)
    def test_second_moment_is_one(self, noise):
        path = _const_path(noise, n=200_000, h=0.002, seed=4)
        est = estimate_staged(path, CONST)
        m2 = residual_moment(path, est, CONST, 2)
        # nearly self-normalized: gamma_hat^2 is the same quadratic sum
        assert m2 == pytest.approx(1.0, abs=0.02)

    def test_even_moments_nonnegative(self):
        for seed in range(3):
            path = _const_path(CASE_II, n=2_000, h=0.01, seed=seed)
            est = estimate_staged(path, CONST)
            for r in (2, 4, 6):
                assert residual_moment(path, est, CONST, r) >= 0.0

    def test_drift_misspecification_same_limit(self):
        """Wrong constant drift against a mean-reverting truth, correct scale:
        the fourth-moment estimate still lands on kappa_4 at two sample sizes."""
        runs = {}
        for n, h in ((150_000, 0.004), (600_000, 0.001)):
            path = _ou_path(CASE_I, n=n, h=h, seed=5)
            est = estimate_staged(path, CONST)
            runs[n] = _moment_and_se(path, est, CONST, 4) + (h,)
        for m4, se, h in runs.values():
            assert abs(m4 - 0.03) < 4 * se + 3.5 * h
        (m_a, se_a, h_a), (m_b, se_b, h_b) = runs.values()
        assert abs(m_a - m_b) < 4 * (se_a + se_b) + 3.5 * (h_a + h_b)

    def test_numpy_integer_r_accepted(self):
        path = _const_path(CASE_I, n=500, h=0.01)
        est = estimate_staged(path, CONST)
        assert residual_moment(path, est, CONST, np.int64(2)) == residual_moment(path, est, CONST, 2)
        # an integral float runs as its integer, as every other integer setting does
        assert residual_moment(path, est, CONST, 4.0) == residual_moment(path, est, CONST, 4)


@pytest.fixture(scope="module")
def fitted():
    path = _const_path(CASE_I, n=500, h=0.01)
    return path, estimate_staged(path, CONST)


class TestValidation:
    @pytest.mark.parametrize("r", [1, 0, -3])
    def test_r_below_two_rejected(self, fitted, r):
        path, est = fitted
        with pytest.raises(ValueError, match="r must be"):
            residual_moment(path, est, CONST, r)

    def test_non_integer_r_rejected(self, fitted):
        path, est = fitted
        with pytest.raises(ValueError, match="integer"):
            residual_moment(path, est, CONST, 2.5)
        with pytest.raises(ValueError, match="integer"):
            residual_moment(path, est, CONST, True)

    def test_non_finite_estimate_rejected(self, fitted):
        path, est = fitted
        bad = dataclasses.replace(est, alpha_hat=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            residual_moment(path, bad, CONST, 2)

    def test_non_positive_scale_rejected(self, fitted):
        path, est = fitted
        bad = dataclasses.replace(est, gamma_hat=0.0)
        with pytest.raises(ValueError, match="non-positive"):
            residual_moment(path, bad, CONST, 2)

    def test_overflowing_scale_on_path_rejected(self, fitted):
        # an estimate fitted on another path, applied to one where q = 1 + x^2
        # overflows to inf at x = 1e200: refused, not a zero scale's inf or nan
        path, _ = fitted
        est = estimate_staged(path, BENCH)
        bad_path = SamplePath(h=0.1, values=np.array([0.0, 0.3, 1e200, 0.2, -0.1, 0.4]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-positive"):
            residual_moment(bad_path, est, BENCH, 2)
