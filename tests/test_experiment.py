"""Tests for the replication-study layer: case catalog, optimal values,
run_mc determinism, normality of the replications, and report emission."""

import json
import math
import os
import pathlib

import numpy as np
import pytest
from scipy.special import ndtri

from levy_gqmle import _util, experiment
from levy_gqmle._util import substream
from levy_gqmle.asymptotics import pseudo_true
from levy_gqmle.coefficients import ConstantScale, MeanRevertLinear
from levy_gqmle.experiment import (
    _TAG_MC,
    CASES,
    ExperimentDesign,
    ExperimentError,
    McSummary,
    benchmark_model,
    emit_report,
    noise_case,
    optimal_values,
    run_mc,
    summarize_replications,
    true_ou,
)
from levy_gqmle.gqmle import _FIT_TILE, ModelSpec, estimate_staged
from levy_gqmle.levy import BilateralGamma, Brownian, NormalInverseGaussian, cumulants, sample_increments
from levy_gqmle.sde import SamplePath, TrueModel, _first_bad, _scan, _step_map
from _oracles import _euler_columns

EXACT_ALPHA = {
    "i": 803.0 / 2406.0,
    "ii": 11.0 / 30.0,
    "iii": 609.0 / 1658.0,
    "diffusion": 1.0 / 3.0,
}


@pytest.fixture(scope="module")
def summary_small():
    design = ExperimentDesign("i", designs=((250, 0.04), (1000, 0.02)), replications=120, seed=7)
    return run_mc(design)


class TestNoiseCase:
    def test_catalog_types(self):
        assert isinstance(noise_case("i"), NormalInverseGaussian)
        assert isinstance(noise_case("ii"), BilateralGamma)
        assert isinstance(noise_case("iii"), NormalInverseGaussian)
        assert isinstance(noise_case("diffusion"), Brownian)

    @pytest.mark.parametrize("label,canon", [
        ("I", "i"),
        ("(ii)", "ii"),
        (" iii ", "iii"),
        ("DIFFUSION", "diffusion"),
    ])
    def test_label_normalization(self, label, canon):
        assert noise_case(label) == noise_case(canon)

    @pytest.mark.parametrize("case", CASES)
    def test_standardized(self, case):
        k = cumulants(noise_case(case))
        assert abs(k[0]) < 1e-12
        assert abs(k[1] - 1.0) < 1e-12

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            noise_case("iv")


class TestOptimalValues:
    @pytest.mark.parametrize("case", CASES)
    def test_exact_values(self, case):
        alpha, gamma = optimal_values(case)
        assert alpha == pytest.approx(EXACT_ALPHA[case], abs=1e-12)
        assert gamma == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("case", CASES)
    def test_consistent_with_law_cumulants(self, case):
        # recompute from the public cumulants of the catalog law
        k = cumulants(noise_case(case))
        m3 = 2.0 * k[2] / 3.0
        m4 = k[3] / 2.0 + 3.0
        alpha, gamma = optimal_values(case)
        assert alpha == pytest.approx((1.0 - m3 + m4) / (2.0 * (3.0 - 2.0 * m3 + m4)), rel=1e-12)
        assert gamma == pytest.approx(math.sqrt(1.0 + k[1]), rel=1e-12)

    def test_label_normalization(self):
        assert optimal_values("(II)") == optimal_values("ii")

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            optimal_values("brownian-squared")


class TestExperimentDesign:
    def test_defaults(self):
        d = ExperimentDesign("i")
        assert d.designs == ((1000, 0.05), (5000, 0.02), (10000, 0.01))
        assert d.replications == 1000
        assert d.seed == 0

    def test_case_normalized_on_construction(self):
        assert ExperimentDesign("(II)").case == "ii"

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(replications=99), "replications"),
        (dict(designs=()), "at least one"),
        (dict(designs=((1, 0.05),)), "n must be"),
        (dict(designs=((100, 0.0),)), "h must be"),
        (dict(designs=((100, -0.5),)), "h must be"),
        (dict(designs=((100, math.inf),)), "h must be"),
        (dict(designs=((200.9, 0.05),)), "n must be an integer"),
        (dict(designs=((True, 0.05),)), "n must be an integer"),
        (dict(replications=150.5), "replications must be an integer"),
        (dict(replications=True), "replications must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(seed=math.nan), "seed must be an integer"),
        (dict(seed=-1), "seed must be >= 0"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            ExperimentDesign("i", **kwargs)

    def test_integral_values_become_ints(self):
        d = ExperimentDesign("i", replications=150.0, seed=np.int64(3))
        assert (d.replications, d.seed) == (150, 3)
        assert type(d.replications) is int and type(d.seed) is int


class TestRunMc:
    def test_shapes_and_metadata(self, summary_small):
        assert summary_small.case == "i"
        assert summary_small.replications == 120
        assert summary_small.theta_star == optimal_values("i")
        assert len(summary_small.per_design) == 2
        for d in summary_small.per_design:
            assert d.estimates.shape == (120, 2)
            assert d.cov_scaled.shape == (2, 2)
            assert d.n_failed == 0
            assert d.failures == ()

    def test_substream_address_contract(self):
        # replication k's result depends only on (seed, tag, design, k): a
        # larger study repeats the smaller one's rows bitwise, and each row
        # is bitwise the per-path fit of that replication's own path, filtered
        # as a one-row call, also on paths the fit sums over several time
        # tiles; that path also agrees with the Euler loop
        designs = ((250, 0.04), (1000, 0.02), (3 * _FIT_TILE + 7, 0.01))
        small = run_mc(ExperimentDesign("ii", designs=designs, replications=100, seed=7))
        large = run_mc(ExperimentDesign("ii", designs=designs, replications=130, seed=7))
        law, model = noise_case("ii"), benchmark_model()
        for d_index, ((n, h), a, b) in enumerate(zip(designs, small.per_design, large.per_design)):
            assert a.n_failed == 0 and b.n_failed == 0
            assert np.array_equal(a.estimates, b.estimates[:100])
            for k in range(100):
                z = sample_increments(law, h, n, substream(7, _TAG_MC, d_index, k))
                values = np.zeros((1, n + 1))
                values[0, 1:] = z
                _scan(*_step_map(true_ou(), h), 0.0, values[:, 1:])
                assert _first_bad(values[:, 1:], 0.0)[0] == -1
                est = estimate_staged(SamplePath(h=h, values=values[0]), model)
                assert (a.estimates[k, 0], a.estimates[k, 1]) == (est.alpha_hat, est.gamma_hat)
                euler, _ = _euler_columns(true_ou(), h, np.zeros(1), z[:, None])
                assert np.max(np.abs(values[0] - euler[:, 0])) <= 1e-12 * np.max(np.abs(euler))

    def test_independent_of_worker_count(self, monkeypatch):
        # 130 replications end in a short block; the blocks' results are
        # joined in replication order whatever the number of workers
        design = ExperimentDesign("ii", designs=((250, 0.04), (400, 0.02)), replications=130, seed=7)
        want = json.dumps(run_mc(design).to_obj())
        for workers in (1, 3):
            monkeypatch.setattr(_util, "_pool_size", lambda tasks, n=workers: n)
            obj = run_mc(design).to_obj()
            assert all(len(d["estimates"]) == 130 for d in obj["designs"])
            assert json.dumps(obj) == want, workers

    def test_non_finite_start_rejected(self):
        design = ExperimentDesign("i", designs=((100, 0.05),), replications=100)
        for x0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="x0 must be finite"):
                run_mc(design, x0=x0)

    def test_zero_scale_truth_every_gamma_at_box_edge(self):
        # a zero true scale keeps every path constant at x0: each replication
        # is degenerate in stage one, exactly as estimate_staged flags it
        truth = TrueModel(rate=0.5, level=0.0, sigma=0.0)
        design = ExperimentDesign("i", designs=((200, 0.05),), replications=100, seed=3)
        d = run_mc(design, true_model=truth).per_design[0]
        est = estimate_staged(SamplePath(h=0.05, values=np.zeros(201)), benchmark_model())
        assert est.stage1_degenerate and est.stage1_boundary
        assert d.n_failed == 0
        assert d.boundary_count == design.replications
        assert np.all(d.estimates[:, 1] == benchmark_model().gamma_box[0])
        assert np.all(d.estimates == [est.alpha_hat, est.gamma_hat])

    def test_seed_changes_results(self, summary_small):
        design = ExperimentDesign("i", designs=((250, 0.04), (1000, 0.02)), replications=120, seed=8)
        other = run_mc(design)
        assert not np.array_equal(other.per_design[0].estimates, summary_small.per_design[0].estimates)

    def test_estimates_in_plausible_range(self, summary_small):
        for d in summary_small.per_design:
            assert 0.2 < d.mean_alpha < 0.7
            assert 1.2 < d.mean_gamma < 1.6
            assert d.sd_alpha > 0 and d.sd_gamma > 0

    def test_scaled_covariance_symmetric(self, summary_small):
        for d in summary_small.per_design:
            cov = d.cov_scaled
            assert np.allclose(cov, cov.T)
            assert cov[0, 0] > 0 and cov[1, 1] > 0

    def test_rate_property(self, summary_small):
        # sqrt(T)-scaled alpha spread should be comparable across designs
        d0, d1 = summary_small.per_design
        r = (d0.sd_alpha * math.sqrt(d0.T)) / (d1.sd_alpha * math.sqrt(d1.T))
        assert 0.5 < r < 2.0

    def test_tails_non_increasing_in_r(self, summary_small):
        for d in summary_small.per_design:
            fr = [d.tail_fractions[r] for r in (1.0, 2.0, 4.0, 8.0)]
            assert all(a >= b for a, b in zip(fr, fr[1:]))

    def test_tails_non_increasing_in_n_within_noise(self, summary_small):
        # consistency in n, up to two binomial standard errors per side
        d0, d1 = summary_small.per_design
        m = summary_small.replications
        for r in (1.0, 2.0):
            f0, f1 = d0.tail_fractions[r], d1.tail_fractions[r]
            se = math.sqrt(f0 * (1 - f0) / m) + math.sqrt(f1 * (1 - f1) / m)
            assert f1 <= f0 + 2.0 * se

    def test_all_paths_diverging_raises(self):
        design = ExperimentDesign("i", designs=((50, 8.0),), replications=100, seed=1)
        with pytest.raises(ExperimentError, match="replications failed"):
            run_mc(design)

    def test_unidentified_alpha_refused_before_drawing(self, monkeypatch):
        # a zero-sigma truth is a point mass at the basis's root, so
        # pseudo_true has no alpha* to centre the summary on
        def refuse(*args, **kwargs):
            raise AssertionError("paths were drawn before theta* was checked")

        monkeypatch.setattr(experiment, "_euler_panel", refuse)
        design = ExperimentDesign("i", designs=((250, 0.04),), replications=120, seed=7)
        with pytest.raises(ValueError, match="not identified"):
            run_mc(design, ModelSpec(MeanRevertLinear(m=0.0), ConstantScale()), TrueModel(0.5, 0.0, 0.0))

    @pytest.mark.parametrize("model,truth", [
        (ModelSpec(MeanRevertLinear(m=0.0), ConstantScale()), None),
        (None, TrueModel(rate=1.0, level=0.3, sigma=0.8)),
    ], ids=["model", "truth"])
    def test_default_theta_star_is_the_pseudo_true_value(self, model, truth):
        # the summary is centred on the pseudo-true value of the model and
        # truth it is given, not on the benchmark's
        design = ExperimentDesign("diffusion", designs=((2000, 0.01),), replications=100, seed=1)
        s = run_mc(design, model=model, true_model=truth)
        want = pseudo_true(model or benchmark_model(), truth or true_ou(), noise_case("diffusion"))
        assert s.theta_star == want != optimal_values("diffusion")
        d = s.per_design[0]
        again = summarize_replications(d.n, d.h, d.estimates, want)
        assert again.cov_scaled.tobytes() == d.cov_scaled.tobytes()
        assert again.tail_fractions == d.tail_fractions

    def test_summary_roundtrips_to_json(self, summary_small):
        obj = summary_small.to_obj()
        text = json.dumps(obj)
        assert json.loads(text) == obj


class TestSummarizeReplications:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        est = np.column_stack([0.35 + 0.1 * rng.standard_normal(500),
                               1.41 + 0.2 * rng.standard_normal(500)])
        d = summarize_replications(1000, 0.05, est, (1.0 / 3.0, math.sqrt(2.0)))
        assert d.mean_alpha == pytest.approx(est[:, 0].mean())
        assert d.sd_alpha == pytest.approx(est[:, 0].std(ddof=1))
        assert d.mean_gamma == pytest.approx(est[:, 1].mean())
        assert d.sd_gamma == pytest.approx(est[:, 1].std(ddof=1))
        dev = math.sqrt(50.0) * np.column_stack([est[:, 1] - math.sqrt(2.0), est[:, 0] - 1.0 / 3.0])
        assert np.allclose(d.cov_scaled, np.cov(dev, rowvar=False, ddof=1))

    def test_tail_fraction_values(self):
        est = np.array([[1.0 / 3.0, math.sqrt(2.0)]] * 4 + [[10.0, math.sqrt(2.0)]])
        d = summarize_replications(100, 0.1, est, (1.0 / 3.0, math.sqrt(2.0)))
        # one replication deviates by sqrt(10)*9.67 > 8; the rest by 0
        assert d.tail_fractions[8.0] == pytest.approx(0.2)
        assert d.tail_fractions[1.0] == pytest.approx(0.2)

    def test_failure_metadata_passthrough(self):
        est = np.array([[0.3, 1.4], [0.4, 1.5]])
        d = summarize_replications(100, 0.1, est, (1.0 / 3.0, math.sqrt(2.0)),
                                   n_failed=3, failures=("r1: diverged",), boundary_count=2)
        assert d.n_failed == 3
        assert d.failures == ("r1: diverged",)
        assert d.boundary_count == 2

    def test_too_few_rows(self):
        with pytest.raises(ExperimentError, match="at least 2"):
            summarize_replications(100, 0.1, np.empty((1, 2)), (0.3, 1.4))


def normality_check(summary, v):
    """sqrt(T) (theta_hat - theta*) of the largest design against N(0, V).

    V is 2x2 in the (scale, drift) order, with a positive diagonal.
    Returns the replications used, then, per component in that order, the
    relative error of the empirical variance against V's diagonal, and the
    95% coverage and the median of the component standardized by it.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2, 2):
        raise ValueError(f"V must be 2x2, got shape {v.shape}")
    if v[0, 0] <= 0 or v[1, 1] <= 0:
        raise ValueError("V must have a positive diagonal")
    d = summary.per_design[-1]
    var = np.diag(v)
    z = math.sqrt(d.T) * (d.estimates[:, ::-1] - summary.theta_star[::-1]) / np.sqrt(var)
    coverage = np.mean(np.abs(z) <= ndtri(0.975), axis=0)
    return d.estimates.shape[0], np.abs(np.diag(d.cov_scaled) - var) / var, coverage, np.median(z, axis=0)


class TestNormalityCheck:
    def test_gaussian_synthetic(self):
        # estimates drawn exactly from the limit law: coverage and quantiles
        # should match the normal reference tightly at R=4000
        rng = np.random.default_rng(5)
        v = np.array([[0.5113, 0.2783], [0.2783, 0.6362]])
        t_n = 100.0
        dev = rng.multivariate_normal(np.zeros(2), v, size=4000)
        theta = optimal_values("i")
        est = np.column_stack([theta[0] + dev[:, 1] / math.sqrt(t_n),
                               theta[1] + dev[:, 0] / math.sqrt(t_n)])
        ds = summarize_replications(10000, 0.01, est, theta)
        summary = McSummary(case="i", theta_star=theta, replications=4000, seed=5, per_design=(ds,))
        n_used, diag_rel, coverage, median = normality_check(summary, v)
        assert n_used == 4000
        assert np.all((0.93 < coverage) & (coverage < 0.97))
        assert max(diag_rel) < 0.10
        assert np.all(np.abs(median) < 0.1)

    def test_correctly_specified_brownian(self):
        # classical regime: gamma at rate sqrt(n), alpha at sqrt(T); after
        # sqrt(T) scaling the gamma variance is gamma^2 h / 2
        model = ModelSpec(MeanRevertLinear(m=0.0), ConstantScale())
        design = ExperimentDesign("diffusion", designs=((20000, 0.005),), replications=300, seed=21)
        s = run_mc(design, model=model)
        assert s.theta_star == (0.5, 1.0)
        v = np.array([[0.005 / 2.0, 0.0], [0.0, 1.0]])
        _, diag_rel, coverage, _ = normality_check(s, v)
        assert np.all((0.90 < coverage) & (coverage < 0.99))
        assert max(diag_rel) < 0.35

    def test_rejects_bad_v(self):
        theta = optimal_values("i")
        est = np.array([[0.3, 1.4], [0.4, 1.5], [0.35, 1.45]])
        ds = summarize_replications(100, 0.1, est, theta)
        summary = McSummary(case="i", theta_star=theta, replications=3, seed=0, per_design=(ds,))
        with pytest.raises(ValueError, match="2x2"):
            normality_check(summary, np.eye(3))
        with pytest.raises(ValueError, match="positive diagonal"):
            normality_check(summary, np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestEmitReport:
    def test_files_and_header(self, summary_small, tmp_path):
        paths = emit_report(summary_small, tmp_path)
        names = [pathlib.Path(p).name for p in paths]
        assert names == ["report.csv", "report.json", "report.svg"]
        lines = pathlib.Path(paths[0]).read_text().splitlines()
        assert lines[0] == "Tn,n,h,case,mean_alpha,sd_alpha,mean_gamma,sd_gamma"
        assert lines[1].startswith("10,250,0.04,i,")
        assert len(lines) == 3

    def test_reemission_identical_bytes(self, summary_small, tmp_path):
        first = emit_report(summary_small, tmp_path / "a")
        second = emit_report(summary_small, tmp_path / "b")
        for f1, f2 in zip(first, second):
            assert pathlib.Path(f1).read_bytes() == pathlib.Path(f2).read_bytes()

    def test_json_matches_summary(self, summary_small, tmp_path):
        paths = emit_report(summary_small, tmp_path, formats=("json",))
        obj = json.loads(pathlib.Path(paths[0]).read_text())
        assert obj == summary_small.to_obj()

    def test_svg_box_per_design_and_parameter(self, summary_small, tmp_path):
        paths = emit_report(summary_small, tmp_path, formats=("svg",))
        svg = pathlib.Path(paths[0]).read_text()
        assert svg.count('class="box"') == 4
        for frag in ("box-i-250-alpha", "box-i-1000-alpha", "box-i-250-gamma", "box-i-1000-gamma"):
            assert frag in svg

    def test_creates_nested_out_dir(self, summary_small, tmp_path):
        target = tmp_path / "deep" / "er"
        paths = emit_report(summary_small, target, formats=("csv",))
        assert os.path.dirname(paths[0]) == str(target)

    def test_unknown_format(self, summary_small, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report(summary_small, tmp_path, formats=("png",))
