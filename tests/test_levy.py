"""Noise-law tests: cumulants, densities, samplers, jump-measure quadrature."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import cgf_cumulants, char_exponent
from levy_gqmle import levy
from levy_gqmle._util import _BLOCK_CELLS, NumericalError
from levy_gqmle.levy import (
    _K1E_NODES,
    BilateralGamma,
    Brownian,
    NormalInverseGaussian,
    _converged_nodes,
    _k1e,
    cumulants,
    levy_density,
    sample_increments,
    standardization_check,
)

CASE_I = NormalInverseGaussian(10, 0, 10, 0)
CASE_II = BilateralGamma(1, math.sqrt(2), 1, math.sqrt(2))
CASE_III = NormalInverseGaussian(25 / 3, 20 / 3, 9 / 5, -12 / 5)
DIFFUSION = Brownian(1.0)

STANDARDIZED = [CASE_I, CASE_II, CASE_III, DIFFUSION]
PURE_JUMP = [CASE_I, CASE_II, CASE_III]

FROZEN_CUMULANTS = {
    CASE_I: (0.0, 1.0, 0.0, 0.03),
    CASE_II: (0.0, 1.0, 0.0, 3.0),
    CASE_III: (0.0, 1.0, 0.8, 89 / 75),
    DIFFUSION: (0.0, 1.0, 0.0, 0.0),
}


class TestCumulants:
    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_frozen_values(self, law):
        got = cumulants(law, 4)
        assert got == pytest.approx(FROZEN_CUMULANTS[law], abs=1e-12)

    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_matches_cgf_oracle(self, law):
        oracle = cgf_cumulants(law, order=4)
        assert cumulants(law, 4) == pytest.approx(oracle[1:5], rel=1e-9, abs=1e-12)

    def test_order_truncation(self):
        assert len(cumulants(CASE_I, 2)) == 2
        with pytest.raises(ValueError):
            cumulants(CASE_I, 5)
        with pytest.raises(ValueError):
            cumulants(CASE_I, 0)

    @given(
        alpha=st.floats(1.0, 30.0),
        beta_frac=st.floats(-0.9, 0.9),
        delta=st.floats(0.1, 20.0),
        mu=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_nig_closed_forms_match_cgf(self, alpha, beta_frac, delta, mu):
        law = NormalInverseGaussian(alpha, beta_frac * alpha, delta, mu)
        oracle = cgf_cumulants(law, order=4)
        assert cumulants(law, 4) == pytest.approx(oracle[1:5], rel=1e-6, abs=1e-9)

    @given(
        sp=st.floats(0.2, 5.0),
        rp=st.floats(0.5, 5.0),
        sm=st.floats(0.2, 5.0),
        rm=st.floats(0.5, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bgamma_closed_forms_match_cgf(self, sp, rp, sm, rm):
        law = BilateralGamma(sp, rp, sm, rm)
        oracle = cgf_cumulants(law, order=4)
        assert cumulants(law, 4) == pytest.approx(oracle[1:5], rel=1e-6, abs=1e-9)


class TestValidation:
    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            NormalInverseGaussian(10, 10, 1, 0)  # |beta| = alpha
        with pytest.raises(ValueError):
            NormalInverseGaussian(10, 0, -1, 0)
        with pytest.raises(ValueError):
            BilateralGamma(1, -1, 1, 1)
        with pytest.raises(ValueError):
            Brownian(0.0)

    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_standardization_passes(self, law):
        standardization_check(law)

    def test_standardization_rejects_shift(self):
        with pytest.raises(ValueError, match="not standardized"):
            standardization_check(NormalInverseGaussian(10, 0, 10, 1.0))
        with pytest.raises(ValueError, match="not standardized"):
            standardization_check(BilateralGamma(1, 1, 1, 1))  # variance 2


class TestDensity:
    def test_bgamma_reference_point(self):
        # shape/|z| e^{-rate z} at z=1
        assert levy_density(CASE_II, 1.0) == pytest.approx(math.exp(-math.sqrt(2)), rel=1e-12)

    def test_nig_reference_point(self):
        want = float(100 / mpmath.pi * mpmath.besselk(1, 10))
        assert levy_density(CASE_I, 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(5.936e-4, rel=1e-3)

    @pytest.mark.parametrize("law", [CASE_I, CASE_II], ids=str)
    def test_symmetry(self, law):
        z = np.array([0.05, 0.3, 1.0, 2.5, 7.0])
        np.testing.assert_allclose(levy_density(law, z), levy_density(law, -z), rtol=1e-12)

    def test_asymmetric_case_is_asymmetric(self):
        assert levy_density(CASE_III, 0.5) != pytest.approx(levy_density(CASE_III, -0.5), rel=1e-3)

    def test_large_z_no_overflow(self):
        # skewed NIG: e^{beta z} alone overflows, the k1e form must not
        val = levy_density(CASE_III, 200.0)
        assert np.isfinite(val) and val >= 0.0

    def test_rejects_origin_and_brownian(self):
        with pytest.raises(ValueError, match="z = 0"):
            levy_density(CASE_I, 0.0)
        with pytest.raises(ValueError, match="z = 0"):
            levy_density(CASE_II, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="no jump part"):
            levy_density(DIFFUSION, 1.0)

    @pytest.mark.parametrize("law", [CASE_I, CASE_II, CASE_III], ids=str)
    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, law, z):
        # refused, as z = 0 is, rather than answered with nan, 0 or a
        # RuntimeWarning; alone and among finite z
        for arg in (z, np.array([1.0, z, -2.0])):
            with pytest.raises(ValueError, match="finite"):
                levy_density(law, arg)


class TestK1e:
    # levy_density passes x = alpha |z| with |z| >= e^-30 and any alpha > 0,
    # so every positive x: 10 decades apart over the doubles, 8 per decade
    # where the rule's step and the series' remainder matter, and both sides
    # of the switch to the series
    X = np.unique(np.concatenate([
        np.logspace(-300, 300, 61), np.logspace(-12, 4, 129), [np.nextafter(1e-10, 0.0), 1e-10],
    ]))

    def test_matches_mpmath(self):
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselk(1, x) * mpmath.exp(x)) for x in map(mpmath.mpf, self.X)])
        np.testing.assert_allclose(_k1e(self.X), want, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("cells", [1, 3 * _K1E_NODES + 1, _BLOCK_CELLS])
    def test_blocks_bitwise_any_split(self, cells, monkeypatch):
        # each x is summed over its own row of nodes: one row per block,
        # three, and the default blocks all give the same bits, and so do
        # calls on arbitrary pieces and on single x
        rows = _BLOCK_CELLS // _K1E_NODES
        x = np.logspace(-16, 4, 2 * rows + 5)
        whole = _k1e(x)
        monkeypatch.setattr(levy, "_BLOCK_CELLS", cells)
        for cuts in ([1, rows - 1, rows + 3, 2 * rows + 4], [rows, 2 * rows], [7, 100, 301, 302]):
            got = np.concatenate([_k1e(part) for part in np.split(x, cuts)])
            assert got.tobytes() == whole.tobytes(), cuts
        assert [_k1e(v).item() for v in x[::97]] == whole[::97].tolist()


class TestSampling:
    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_h_zero_gives_zeros(self, law):
        rng = np.random.default_rng(0)
        assert np.all(sample_increments(law, 0.0, 100, rng) == 0.0)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            sample_increments(CASE_I, -0.1, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("law", [CASE_I, CASE_III], ids=str)
    def test_nig_overflow_raises_numerical_error(self, law):
        # the IG shape (delta h)^2 is out of float range; nothing is drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NumericalError, match=r"overflow at h=1e\+200"):
            sample_increments(law, 1e200, 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("h", [2.0**104 * (1.0 + 2.0**-52), 1e40, 1e200])
    def test_bilateral_gamma_degenerate_step_raises_numerical_error(self, h):
        # past shape h = 2^104 a gamma draw rounds to its mean, so the two
        # draws' difference would be 0; nothing is drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NumericalError, match=r"bilateral gamma increments degenerate"):
            sample_increments(CASE_II, h, 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("h", [0.05, 2.0**104])
    def test_bilateral_gamma_drawn_up_to_the_bound(self, h):
        # up to shape h = 2^104 the increments are the two gamma draws' difference
        rng = np.random.default_rng(5)
        want = rng.gamma(h, 1.0 / math.sqrt(2), 10) - rng.gamma(h, 1.0 / math.sqrt(2), 10)
        assert np.array_equal(sample_increments(CASE_II, h, 10, np.random.default_rng(5)), want)

    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_deterministic_given_stream(self, law):
        a = sample_increments(law, 0.1, 50, np.random.default_rng(42))
        b = sample_increments(law, 0.1, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_nig_small_time_mean_and_variance(self):
        h, n = 0.05, 1_000_000
        z = sample_increments(CASE_I, h, n, np.random.default_rng(101))
        se_mean = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - 0.0) < 4 * se_mean
        v = z.var(ddof=1)
        se_var = np.std((z - z.mean()) ** 2, ddof=1) / math.sqrt(n)
        assert abs(v - h) < 4 * se_var

    def test_bgamma_fourth_cumulant(self):
        n_batches, per = 30, 100_000
        z = sample_increments(CASE_II, 1.0, (n_batches, per), np.random.default_rng(7))
        m = z - z.mean(axis=1, keepdims=True)
        k4 = (m**4).mean(axis=1) - 3.0 * ((m**2).mean(axis=1)) ** 2
        se = k4.std(ddof=1) / math.sqrt(n_batches)
        assert abs(k4.mean() - 3.0) < 4 * se

    @pytest.mark.parametrize("law", PURE_JUMP, ids=str)
    def test_infinite_divisibility(self, law):
        # cumulants over h match those of two summed h/2 draws
        h, n_batches, per = 0.2, 30, 40_000
        rng = np.random.default_rng(11)
        z_full = sample_increments(law, h, (n_batches, per), rng)
        z_half = sample_increments(law, h / 2, (n_batches, per), rng) + sample_increments(
            law, h / 2, (n_batches, per), rng
        )
        for order in (1, 2, 3, 4):
            k_full = _batch_cumulant(z_full, order)
            k_half = _batch_cumulant(z_half, order)
            se = math.hypot(k_full.std(ddof=1), k_half.std(ddof=1)) / math.sqrt(n_batches)
            assert abs(k_full.mean() - k_half.mean()) < 5 * se

    @pytest.mark.parametrize("law", STANDARDIZED + [Brownian(0.3)], ids=str)
    def test_in_place_arithmetic_matches_textbook_bitwise(self, law):
        # the blocked, in-place sampler against the plain expressions on the
        # same generator; sizes straddle the 2^16-draw NIG block
        for size in (1, 7, (1 << 16) + 3, 2_000_000, (500, 1500), (3, 70000)):
            got = sample_increments(law, 0.01, size, np.random.default_rng(23))
            want = _textbook_increments(law, 0.01, size, np.random.default_rng(23))
            assert got.shape == want.shape and np.array_equal(got, want), size


def _textbook_increments(law, h, size, rng):
    if isinstance(law, NormalInverseGaussian):
        dh = law.delta * h
        y = rng.wald(dh / math.sqrt(law.alpha**2 - law.beta**2), dh**2, size)
        z = rng.standard_normal(size)
        return law.mu * h + law.beta * y + np.sqrt(y) * z
    if isinstance(law, BilateralGamma):
        gp = rng.gamma(law.shape_pos * h, 1.0 / law.rate_pos, size)
        gm = rng.gamma(law.shape_neg * h, 1.0 / law.rate_neg, size)
        return gp - gm
    return law.sigma * math.sqrt(h) * rng.standard_normal(size)


def _batch_cumulant(z: np.ndarray, order: int) -> np.ndarray:
    if order == 1:
        return z.mean(axis=1)
    m = z - z.mean(axis=1, keepdims=True)
    if order == 2:
        return (m**2).mean(axis=1)
    if order == 3:
        return (m**3).mean(axis=1)
    return (m**4).mean(axis=1) - 3.0 * ((m**2).mean(axis=1)) ** 2


class TestCharExponent:
    @pytest.mark.parametrize("law", STANDARDIZED, ids=str)
    def test_small_u_expansion(self, law):
        k = cumulants(law, 4)
        u = 0.01
        series = 1j * k[0] * u - k[1] * u**2 / 2 - 1j * k[2] * u**3 / 6 + k[3] * u**4 / 24
        assert char_exponent(law, u) == pytest.approx(series, abs=1e-11)

    @pytest.mark.parametrize("law", PURE_JUMP, ids=str)
    def test_empirical_characteristic_function(self, law):
        h, n = 0.5, 200_000
        z = sample_increments(law, h, n, np.random.default_rng(23))
        for u in (0.5, 1.0):
            want = np.exp(h * char_exponent(law, u))
            got = np.mean(np.exp(1j * u * z))
            assert abs(got - want) < 4.0 / math.sqrt(n)


def _jump_integral(law, integrand):
    """Integral against the jump measure on the grid the Sigma quadrature uses."""
    z, w, _ = _converged_nodes(law)
    return float(np.dot(integrand(z), w))


class TestQuadrature:
    @pytest.mark.parametrize("law", PURE_JUMP, ids=str)
    def test_second_moment_is_one(self, law):
        assert _jump_integral(law, lambda z: z**2) == pytest.approx(1.0, rel=1e-6)

    def test_fourth_moment_case_i(self):
        assert _jump_integral(CASE_I, lambda z: z**4) == pytest.approx(0.03, rel=1e-6)

    def test_zero_integrand(self):
        assert _jump_integral(CASE_I, lambda z: np.zeros_like(z)) == 0.0

    @pytest.mark.parametrize("law", PURE_JUMP, ids=str)
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_moment_identity(self, law, r):
        # integral of z^r against the jump measure equals kappa_r
        want = cumulants(law, 4)[r - 1]
        assert _jump_integral(law, lambda z: z**r) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_brownian_rejected(self):
        with pytest.raises(ValueError, match="no jump part"):
            _jump_integral(DIFFUSION, lambda z: z**2)

    def test_exponential_tail_integrand(self):
        # integrand with polynomial growth still converges (weighted by the density tail)
        val = _jump_integral(CASE_II, lambda z: z**4 * np.cos(z))
        check = _jump_integral(CASE_II, lambda z: z**4)
        assert np.isfinite(val) and abs(val) < check
