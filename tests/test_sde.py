"""Simulation and path I/O tests."""

import io
import math

import numpy as np
import pytest
from scipy.signal import lfilter

from levy_gqmle._util import batch_means_se, substream
from levy_gqmle.coefficients import ConstantDrift, ConstantScale, LinearDecay, MeanRevertLinear, RationalSqrt
from levy_gqmle.levy import NormalInverseGaussian, cumulants, sample_increments
from levy_gqmle.sde import (
    DivergenceError,
    PathConfig,
    SamplePath,
    TrueModel,
    _affine_paths,
    _step_map,
    load_path,
    simulate_euler,
    small_time_moment_check,
    write_path,
)
from _oracles import _euler_columns
from test_levy import CASE_I, CASE_II, CASE_III

OU = TrueModel(LinearDecay(), 0.5, ConstantScale(), 1.0)
DRIFT_ONLY = TrueModel(LinearDecay(), 0.5, ConstantScale(), 0.0)


class TestSimulate:
    def test_deterministic_recursion(self):
        cfg = PathConfig(n=2, h=0.1, x0=1.0, seed=0)
        path = simulate_euler(DRIFT_ONLY, CASE_I, cfg)
        np.testing.assert_allclose(path.values, [1.0, 0.95, 0.9025], rtol=1e-14)

    def test_same_seed_same_path(self):
        cfg = PathConfig(n=500, h=0.05, x0=0.0, seed=77)
        a = simulate_euler(OU, CASE_I, cfg)
        b = simulate_euler(OU, CASE_I, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = simulate_euler(OU, CASE_I, PathConfig(n=100, h=0.05, seed=1))
        b = simulate_euler(OU, CASE_I, PathConfig(n=100, h=0.05, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_divergence_reports_step(self):
        exploding = TrueModel(LinearDecay(), -5.0, ConstantScale(), 0.0)
        with pytest.raises(DivergenceError) as exc:
            simulate_euler(exploding, CASE_I, PathConfig(n=60, h=1.0, x0=1.0, seed=0))
        assert exc.value.step > 0

    def test_refine_subsamples_observation_grid(self):
        cfg = PathConfig(n=50, h=0.1, x0=0.0, seed=9, refine=4)
        path = simulate_euler(OU, CASE_I, cfg)
        assert path.n == 50 and path.h == 0.1

    def test_refine_consistency(self):
        # moments of the subsampled path are stable in the refine factor
        stats = []
        for refine in (8, 16):
            cfg = PathConfig(n=30_000, h=0.1, x0=0.0, seed=13, refine=refine)
            path = simulate_euler(OU, CASE_I, cfg)
            x = path.values[200:]
            stats.append((x.var(), batch_means_se(x**2)))
        (v8, se8), (v16, se16) = stats
        assert abs(v8 - v16) < 5 * math.hypot(se8, se16)


class TestAffinePaths:
    @pytest.mark.parametrize("model,dt", [
        (OU, 0.05),
        (TrueModel(MeanRevertLinear(m=0.7), 0.5, ConstantScale(), 1.3), 0.05),
        (TrueModel(ConstantDrift(), 0.4, ConstantScale(), 0.8), 0.05),  # rho = 1
        (TrueModel(LinearDecay(), -5.0, ConstantScale(), 1.0), 1.0),  # rho = 6
        (TrueModel(LinearDecay(), 4.0, ConstantScale(), 1.0), 1.0),  # rho = -3
    ], ids=["linear-decay", "mean-revert", "constant-drift", "exploding", "oscillating"])
    def test_matches_euler_oracle(self, model, dt):
        # every row against the Euler loop on the same increments, up to the
        # first bad state, which both must place at the same index
        R, steps = 6, 2000
        z = sample_increments(CASE_III, dt, (R, steps), substream(5, 1))
        x0 = np.linspace(-2.0, 3.0, R)
        got = np.empty((R, steps + 1))
        got[:, 0], got[:, 1:] = x0, z
        first_bad = _affine_paths(model, dt, x0, got[:, 1:])
        want, want_bad = _euler_columns(model, dt, x0, z.T)
        assert got.shape == (R, steps + 1)
        np.testing.assert_array_equal(first_bad, want_bad)
        for row, bad in enumerate(first_bad):
            end = steps + 1 if bad < 0 else bad
            ref = want[:end, row]
            assert np.max(np.abs(got[row, :end] - ref)) <= 1e-12 * np.max(np.abs(ref)), row

    def test_row_in_block_equals_row_alone(self):
        model = TrueModel(MeanRevertLinear(m=0.7), 0.5, ConstantScale(), 1.3)
        z = sample_increments(CASE_II, 0.02, (32, 5000), substream(6, 1))
        x0 = np.linspace(-1.0, 1.0, 32)
        block = z.copy()
        _affine_paths(model, 0.02, x0, block)
        for row in (0, 17, 31):
            alone = z[row : row + 1].copy()
            _affine_paths(model, 0.02, x0[row], alone)
            assert np.array_equal(alone[0], block[row]), row

    def test_time_major_panel_in_place_equals_one_lfilter(self):
        # a (steps, m) panel passed as panel.T is filtered along time in
        # blocks of a few hundred steps, bitwise as one call over the panel
        model = TrueModel(MeanRevertLinear(m=0.7), 0.5, ConstantScale(), 1.3)
        panel = sample_increments(CASE_I, 0.01, (1000, 300), substream(7, 1))
        x0 = np.linspace(-2.0, 2.0, 300)
        rho, scale, shift = _step_map(model, 0.01)
        want, _ = lfilter([1.0], [1.0, -rho], panel * scale + shift, axis=0, zi=rho * x0[None])
        first_bad = _affine_paths(model, 0.01, x0, panel.T)
        assert np.array_equal(panel, want)
        assert np.all(first_bad == -1)

    def test_long_row_in_place_equals_one_lfilter(self):
        # a 1-D path passed as path[None], longer than one filter block
        model = TrueModel(MeanRevertLinear(m=0.7), 0.5, ConstantScale(), 1.3)
        path = sample_increments(CASE_III, 0.01, 200_000, substream(7, 2))
        rho, scale, shift = _step_map(model, 0.01)
        want, _ = lfilter([1.0], [1.0, -rho], path * scale + shift, zi=[rho * 0.4])
        first_bad = _affine_paths(model, 0.01, 0.4, path[None])
        assert np.array_equal(path, want)
        assert first_bad.tolist() == [-1]

    def test_bad_start_is_index_zero(self):
        z = sample_increments(CASE_I, 0.05, (5, 100), substream(7, 3))
        first_bad = _affine_paths(OU, 0.05, np.array([np.nan, 2e12, -np.inf, 0.5, -1e12]), z)
        assert first_bad.tolist() == [0, 0, 0, -1, -1]
        assert _affine_paths(OU, 0.05, np.inf, z[:1].copy()).tolist() == [0]

    def test_non_constant_scale_refused(self):
        model = TrueModel(LinearDecay(), 0.5, RationalSqrt(), 1.0)
        with pytest.raises(ValueError, match="constant true scale"):
            simulate_euler(model, CASE_I, PathConfig(n=10, h=0.1))


_STATIONARY_CACHE = {}


def _stationary_states(law):
    # one long path per law, burn-in discarded, shared by the cumulant checks
    if law not in _STATIONARY_CACHE:
        cfg = PathConfig(n=200_000, h=0.05, x0=0.0, seed=29, refine=1)
        path = simulate_euler(OU, law, cfg)
        _STATIONARY_CACHE[law] = path.values[int(20 / cfg.h) :]
    return _STATIONARY_CACHE[law]


class TestStationaryCumulants:
    @pytest.mark.parametrize("law,j,target", [
        (CASE_I, 2, 1.0),
        (CASE_I, 4, 0.015),
        (CASE_III, 3, 8 / 15),
    ], ids=["var-i", "kurt-i", "skew-iii"])
    def test_matches_invariant_cumulants(self, law, j, target):
        # invariant cumulants are kappa_j / (j/2) for drift rate 1/2; the
        # 0.02 term allows for the O(h) Euler bias at h = 0.05
        x = _stationary_states(law)
        xc = x - x.mean()
        if j == 2:
            series = xc**2
        elif j == 3:
            series = xc**3
        else:
            series = xc**4 - 3 * (xc**2).mean() * xc**2
        est = series.mean()
        se = batch_means_se(series)
        assert est == pytest.approx(target, abs=5 * se + 0.02)


class TestPathIO:
    def test_round_trip(self, tmp_path):
        p = simulate_euler(OU, CASE_II, PathConfig(n=200, h=0.05, seed=3))
        f = tmp_path / "path.csv"
        write_path(p, f)
        q = load_path(f)
        assert q.h == p.h
        np.testing.assert_array_equal(q.values, p.values)

    def test_two_row_parse(self):
        q = load_path(io.StringIO("t,x\n0,1\n0.1,0.95\n"))
        assert q.h == pytest.approx(0.1)
        np.testing.assert_allclose(q.values, [1.0, 0.95])

    def test_non_equispaced_rejected(self):
        with pytest.raises(ValueError, match="equispaced"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9\n0.25,0.8\n"))

    def test_non_finite_time_rejected(self):
        # a NaN time cell compares False against every grid tolerance, so it
        # must be rejected on its own
        with pytest.raises(ValueError, match="finite"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9\nnan,0.8\n0.3,0.7\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_path(io.StringIO("time,value\n0,1\n0.1,0.9\n"))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9,7\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            load_path(io.StringIO("t,x\n0,1\n0.1,oops\n"))

    def test_write_to_stream(self):
        p = SamplePath(h=0.5, values=np.array([0.0, 1.0, 0.5]))
        buf = io.StringIO()
        write_path(p, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x"
        assert lines[1] == "0,0" and lines[2] == "0.5,1"


class TestConfigAndPathTypes:
    def test_path_config_validation(self):
        with pytest.raises(ValueError):
            PathConfig(n=0, h=0.1)
        with pytest.raises(ValueError):
            PathConfig(n=10, h=0.0)
        with pytest.raises(ValueError):
            PathConfig(n=10, h=0.1, refine=0)

    def test_config_round_trip(self):
        cfg = PathConfig(n=10, h=0.1, x0=0.5, seed=4, refine=2)
        assert PathConfig.from_obj(cfg.to_obj()) == cfg

    def test_sample_path_validation(self):
        with pytest.raises(ValueError, match="finite"):
            SamplePath(h=0.1, values=np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            SamplePath(h=0.1, values=np.array([1.0]))

    def test_true_model_round_trip(self):
        assert TrueModel.from_obj(OU.to_obj()) == OU


class TestSmallTimeMoment:
    def test_p_domain_checked(self):
        cfg = PathConfig(n=1, h=0.05, seed=0)
        with pytest.raises(ValueError):
            small_time_moment_check(OU, CASE_I, cfg, p=0.9, reps=10)
        with pytest.raises(ValueError):
            small_time_moment_check(OU, CASE_I, cfg, p=2.5, reps=10)

    def test_drift_only_ratio_vanishes(self):
        # deterministic motion gives E|X_h - x|^p = O(h^p), so ratio = O(h^{p-1})
        cfg = PathConfig(n=1, h=0.01, seed=0, refine=4)
        rep = small_time_moment_check(DRIFT_ONLY, CASE_I, cfg, p=1.5, reps=50, K=2.0)
        sup_h, sup_half = rep.sup_ratios
        assert sup_h < 0.3
        assert sup_half < sup_h

    def test_benchmark_noise_i_bounded(self):
        cfg = PathConfig(n=1, h=0.05, seed=17, refine=4)
        rep = small_time_moment_check(OU, CASE_I, cfg, p=1.5, reps=4000, K=2.0)
        sup_h, sup_half = rep.sup_ratios
        assert np.isfinite(sup_h) and np.isfinite(sup_half)
        assert sup_half / sup_h < 2.0

    def test_noise_ii_halving_factor_bounded(self):
        cfg = PathConfig(n=1, h=0.05, seed=19, refine=4)
        rep = small_time_moment_check(OU, CASE_II, cfg, p=1.5, reps=4000, K=2.0)
        sup_h, sup_half = rep.sup_ratios
        assert max(sup_half / sup_h, sup_h / sup_half) < 2.0
