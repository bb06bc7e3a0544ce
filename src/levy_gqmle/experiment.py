"""Replication study end to end: optimal values, Monte Carlo designs, rate and
normality diagnostics, report emission.

The study fits the benchmark family (drift alpha (1 - x), scale
gamma / sqrt(1 + x^2)) to paths of dX = -X/2 dt + dZ driven by one of four
catalog noises, labeled "i", "ii", "iii" (pure jump) and "diffusion"
(Brownian).  Both fitted coefficients are wrong for every case, so the
estimators converge to the computable pseudo-true values rather than to
generating parameters.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.stats import norm as _norm

from ._util import NumericalError, atomic_write_text, substream
from .coefficients import ConstantScale, LinearDecay, MeanRevertLinear, RationalSqrt
from .gqmle import ModelSpec, _fit_drift, _fit_rows, _fit_scale
from .levy import (
    BilateralGamma,
    Brownian,
    LevyLaw,
    NormalInverseGaussian,
    sample_increments,
    standardization_check,
)
from .sde import TrueModel, _affine_paths

__all__ = [
    "CASES",
    "TAIL_RADII",
    "ExperimentError",
    "ExperimentDesign",
    "DesignSummary",
    "McSummary",
    "NormalityReport",
    "noise_case",
    "benchmark_model",
    "true_ou",
    "optimal_values",
    "optimal_values_numeric",
    "run_mc",
    "summarize_replications",
    "normality_check",
    "emit_report",
]

CASES = ("i", "ii", "iii", "diffusion")
TAIL_RADII = (1.0, 2.0, 4.0, 8.0)

_TAG_MC = 5501  # replication increment streams hang off (seed, tag, design, k)
# replications per streamed block: a block's increments, paths and fit
# temporaries are the only per-replication arrays alive at a time
_FIT_ROWS = 32


class ExperimentError(NumericalError):
    """Replication study failed (for example, too many failed replications)."""


def _case_key(case: str) -> str:
    key = str(case).strip().lower()
    if key.startswith("(") and key.endswith(")"):
        key = key[1:-1].strip()
    if key not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    return key


def noise_case(case: str) -> LevyLaw:
    """Catalog driving law for a case label ("i", "ii", "iii", "diffusion")."""
    key = _case_key(case)
    if key == "i":
        law = NormalInverseGaussian(10.0, 0.0, 10.0, 0.0)
    elif key == "ii":
        law = BilateralGamma(1.0, math.sqrt(2.0), 1.0, math.sqrt(2.0))
    elif key == "iii":
        law = NormalInverseGaussian(25.0 / 3.0, 20.0 / 3.0, 9.0 / 5.0, -12.0 / 5.0)
    else:
        law = Brownian(1.0)
    standardization_check(law)
    return law


def benchmark_model() -> ModelSpec:
    """Fitted coefficient family used throughout the replication study."""
    return ModelSpec(drift=MeanRevertLinear(m=1.0), scale=RationalSqrt())


def true_ou() -> TrueModel:
    """Generating model dX = -X/2 dt + dZ."""
    return TrueModel(LinearDecay(), 0.5, ConstantScale(), 1.0)


# Exact third and fourth cumulants of the standardized catalog laws; the
# test suite cross-checks these rationals against cumulants().
_CASE_CUMULANTS = {
    "i": (Fraction(0), Fraction(3, 100)),
    "ii": (Fraction(0), Fraction(3)),
    "iii": (Fraction(4, 5), Fraction(89, 75)),
    "diffusion": (Fraction(0), Fraction(0)),
}


def optimal_values(case: str) -> tuple[float, float]:
    """Pseudo-true (alpha*, gamma*) for the benchmark fit, in closed form.

    gamma* = sqrt(1 + m2) and alpha* = (1 - m3 + m4) / (2 (3 - 2 m3 + m4)),
    with m_j the invariant moments obtained from the rescaled driving
    cumulants 2 kappa_j / j and the cumulant-to-moment conversion.  All
    arithmetic is exact until the final float.
    """
    k3, k4 = _CASE_CUMULANTS[_case_key(case)]
    kt2 = Fraction(1)  # 2 kappa_2 / 2, kappa_2 = 1
    m3 = 2 * k3 / 3
    m4 = 2 * k4 / 4 + 3 * kt2 * kt2
    alpha = (1 - m3 + m4) / (2 * (3 - 2 * m3 + m4))
    return float(alpha), math.sqrt(1.0 + float(kt2))


def optimal_values_numeric(
    model: ModelSpec,
    true_model: TrueModel,
    inv,
) -> tuple[float, float]:
    """Empirical-criterion maximizer over an invariant sample.

    The stage criteria under pi_0 are the path criteria with increment
    moments (A, C^2) on a unit step, so the path closed forms give their
    maximizers: gamma^2 = E[C^2 / p^2], then, with that gamma in
    c = gamma p, alpha = E[A b / c^2] / E[b^2 / c^2], each kept inside its
    box.  Agreement with ``optimal_values`` is up to Monte Carlo error in
    the sample.  The driving law enters only through the invariant sample.
    """
    x = np.asarray(inv.states, dtype=float)[None, :]
    gamma = _fit_scale(model, x, true_model.C(x) ** 2, 1.0)[0]
    alpha = _fit_drift(model, x, true_model.A(x), 1.0, gamma)[0]
    return float(alpha[0]), float(gamma[0])


@dataclass(frozen=True)
class ExperimentDesign:
    """One driving case, several (n, h) sampling grids, R seeded replications.

    The default designs are the benchmark grids (1000, 0.05), (5000, 0.02),
    (10000, 0.01); the step roughly follows h = 5 n^(-2/3).
    """

    case: str
    designs: tuple[tuple[int, float], ...] = ((1000, 0.05), (5000, 0.02), (10000, 0.01))
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "case", _case_key(self.case))
        ds = tuple((int(n), float(h)) for n, h in self.designs)
        if not ds:
            raise ValueError("need at least one (n, h) design")
        for n, h in ds:
            if n < 2:
                raise ValueError(f"n must be >= 2, got {n}")
            if not (h > 0):
                raise ValueError(f"h must be positive, got {h}")
        object.__setattr__(self, "designs", ds)
        if self.replications < 100:
            raise ValueError(f"replications must be >= 100, got {self.replications}")

    def to_obj(self) -> dict:
        return {
            "case": self.case,
            "designs": [[n, h] for n, h in self.designs],
            "replications": self.replications,
            "seed": self.seed,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ExperimentDesign":
        kwargs = {"case": obj["case"]}
        if "designs" in obj:
            kwargs["designs"] = tuple((int(n), float(h)) for n, h in obj["designs"])
        if "replications" in obj:
            kwargs["replications"] = int(obj["replications"])
        if "seed" in obj:
            kwargs["seed"] = int(obj["seed"])
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class DesignSummary:
    """Replication statistics for one (n, h) grid.

    ``cov_scaled`` is the sample covariance of sqrt(T) (theta_hat - theta*)
    with rows/columns ordered (scale, drift) to match the limit matrices;
    ``tail_fractions`` maps r to the fraction of replications with Euclidean
    norm of that vector above r.  ``estimates`` keeps the per-replication
    (alpha_hat, gamma_hat) rows for later diagnostics.
    """

    n: int
    h: float
    mean_alpha: float
    sd_alpha: float
    mean_gamma: float
    sd_gamma: float
    tail_fractions: dict[float, float]
    cov_scaled: np.ndarray = field(repr=False)
    estimates: np.ndarray = field(repr=False)
    n_failed: int = 0
    failures: tuple[str, ...] = ()
    boundary_count: int = 0

    def __post_init__(self):
        if self.sd_alpha < 0 or self.sd_gamma < 0:
            raise ValueError("standard deviations must be nonnegative")
        fracs = [self.tail_fractions[r] for r in sorted(self.tail_fractions)]
        if any(b > a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("tail fractions must be non-increasing in r")

    @property
    def T(self) -> float:
        return self.n * self.h

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "h": self.h,
            "Tn": self.T,
            "mean_alpha": self.mean_alpha,
            "sd_alpha": self.sd_alpha,
            "mean_gamma": self.mean_gamma,
            "sd_gamma": self.sd_gamma,
            "tail_fractions": {f"{r:g}": v for r, v in sorted(self.tail_fractions.items())},
            "cov_scaled": self.cov_scaled.tolist(),
            "estimates": self.estimates.tolist(),
            "n_failed": self.n_failed,
            "failures": list(self.failures),
            "boundary_count": self.boundary_count,
        }


@dataclass(frozen=True, eq=False)
class McSummary:
    """Replication study output: one DesignSummary per (n, h) grid."""

    case: str
    theta_star: tuple[float, float]
    replications: int
    seed: int
    per_design: tuple[DesignSummary, ...]

    def to_obj(self) -> dict:
        return {
            "case": self.case,
            "theta_star": list(self.theta_star),
            "replications": self.replications,
            "seed": self.seed,
            "designs": [d.to_obj() for d in self.per_design],
        }


def summarize_replications(
    n: int,
    h: float,
    estimates: np.ndarray,
    theta_star: tuple[float, float],
    n_failed: int = 0,
    failures: tuple[str, ...] = (),
    boundary_count: int = 0,
) -> DesignSummary:
    """Deterministic ordered reduction of (alpha_hat, gamma_hat) rows."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if est.shape[0] < 2:
        raise ExperimentError(f"need at least 2 successful replications, got {est.shape[0]}")
    T = n * h
    a, g = est[:, 0], est[:, 1]
    dev = math.sqrt(T) * np.column_stack([g - theta_star[1], a - theta_star[0]])
    norm = np.hypot(dev[:, 0], dev[:, 1])
    return DesignSummary(
        n=int(n),
        h=float(h),
        mean_alpha=float(a.mean()),
        sd_alpha=float(a.std(ddof=1)),
        mean_gamma=float(g.mean()),
        sd_gamma=float(g.std(ddof=1)),
        tail_fractions={float(r): float(np.mean(norm > r)) for r in TAIL_RADII},
        cov_scaled=np.cov(dev, rowvar=False, ddof=1),
        estimates=est,
        n_failed=int(n_failed),
        failures=tuple(failures),
        boundary_count=int(boundary_count),
    )


def run_mc(
    design: ExperimentDesign,
    model: ModelSpec | None = None,
    true_model: TrueModel | None = None,
    theta_star: tuple[float, float] | None = None,
    x0: float = 0.0,
    max_failure_fraction: float = 0.01,
) -> McSummary:
    """Simulate-and-fit replication study over the design grids.

    Replication k of design d draws increments from the substream
    (seed, tag, d, k), so its result depends only on that address.  The
    replications are streamed in blocks of 32 through one (32, n+1)
    buffer whose column 0 holds x0: a block's increments are drawn into
    columns 1..n, filtered there into paths in place by ``_affine_paths``,
    and its surviving rows are fitted in the closed form before the next
    block is drawn.  Each row reduces along time exactly as a lone path
    does, so every estimate is bitwise equal to ``estimate_staged`` on that
    replication's path.
    Failed replications (divergent paths) are excluded and counted; once a
    design is done, more than ``max_failure_fraction`` of them raises
    ExperimentError.  Defaults reproduce the benchmark study from x0 = 0.
    """
    model = model or benchmark_model()
    true_model = true_model or true_ou()
    law = noise_case(design.case)
    if theta_star is None:
        theta_star = optimal_values(design.case)
    R = design.replications
    per = []
    for d_index, (n, h) in enumerate(design.designs):
        values = np.empty((_FIT_ROWS, n + 1))
        values[:, 0] = x0
        estimates = np.empty((R, 2))
        failures = []
        fitted = boundary = 0
        for k0 in range(0, R, _FIT_ROWS):
            ks = range(k0, min(R, k0 + _FIT_ROWS))
            for j, k in enumerate(ks):
                values[j, 1:] = sample_increments(law, h, n, substream(design.seed, _TAG_MC, d_index, k))
            first_bad = _affine_paths(true_model, h, float(x0), values[: len(ks), 1:])
            failures += [f"replication {k}: path diverged at step {b}" for k, b in zip(ks, first_bad) if b >= 0]
            good = first_bad < 0
            if not good.any():
                continue
            paths = values[: len(ks)]
            alpha, gamma, clamped = _fit_rows(model, paths if good.all() else paths[good], h)
            estimates[fitted : fitted + alpha.size] = np.column_stack([alpha, gamma])
            fitted += alpha.size
            boundary += int(np.count_nonzero(clamped))
        if len(failures) > max_failure_fraction * R:
            raise ExperimentError(
                f"{len(failures)} of {R} replications failed at design (n={n}, h={h}); "
                f"first: {failures[0]}"
            )
        per.append(
            summarize_replications(
                n,
                h,
                estimates[:fitted],
                theta_star,
                n_failed=len(failures),
                failures=tuple(failures[:20]),
                boundary_count=boundary,
            )
        )
    return McSummary(
        case=design.case,
        theta_star=(float(theta_star[0]), float(theta_star[1])),
        replications=R,
        seed=design.seed,
        per_design=tuple(per),
    )


_QUANTILE_LEVELS = (0.01, 0.025, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.975, 0.99)


@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Scaled-estimator spread against a limit covariance V.

    ``rel_diff`` holds entrywise (empirical - V) / |V| in the (scale, drift)
    ordering; ``diag_rel`` its absolute diagonal.  Quantiles are of the
    per-component statistics standardized by the matching diagonal of V.
    """

    n: int
    h: float
    n_used: int
    rel_diff: np.ndarray = field(repr=False)
    diag_rel: tuple[float, float] = (0.0, 0.0)
    levels: tuple[float, ...] = _QUANTILE_LEVELS
    normal_quantiles: tuple[float, ...] = ()
    quantiles_gamma: tuple[float, ...] = ()
    quantiles_alpha: tuple[float, ...] = ()
    coverage_gamma: float = 0.0
    coverage_alpha: float = 0.0

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "h": self.h,
            "n_used": self.n_used,
            "rel_diff": self.rel_diff.tolist(),
            "diag_rel": list(self.diag_rel),
            "levels": list(self.levels),
            "normal_quantiles": list(self.normal_quantiles),
            "quantiles_gamma": list(self.quantiles_gamma),
            "quantiles_alpha": list(self.quantiles_alpha),
            "coverage_gamma": self.coverage_gamma,
            "coverage_alpha": self.coverage_alpha,
        }


def normality_check(summary: McSummary, v: np.ndarray, design_index: int = -1) -> NormalityReport:
    """Compare sqrt(T) (theta_hat - theta*) replications against N(0, V).

    Uses the design at ``design_index`` (largest grid by default).  V must be
    2x2 in the (scale, drift) ordering with positive diagonal.
    """
    d = summary.per_design[design_index]
    v = np.asarray(v, dtype=float)
    if v.shape != (2, 2):
        raise ValueError(f"V must be 2x2, got shape {v.shape}")
    if v[0, 0] <= 0 or v[1, 1] <= 0:
        raise ValueError("V must have a positive diagonal")
    rel = (d.cov_scaled - v) / np.maximum(np.abs(v), 1e-12)
    T = d.T
    zg = math.sqrt(T) * (d.estimates[:, 1] - summary.theta_star[1]) / math.sqrt(v[0, 0])
    za = math.sqrt(T) * (d.estimates[:, 0] - summary.theta_star[0]) / math.sqrt(v[1, 1])
    zc = float(_norm.ppf(0.975))
    return NormalityReport(
        n=d.n,
        h=d.h,
        n_used=d.estimates.shape[0],
        rel_diff=rel,
        diag_rel=(float(abs(rel[0, 0])), float(abs(rel[1, 1]))),
        levels=_QUANTILE_LEVELS,
        normal_quantiles=tuple(float(q) for q in _norm.ppf(_QUANTILE_LEVELS)),
        quantiles_gamma=tuple(float(q) for q in np.quantile(zg, _QUANTILE_LEVELS)),
        quantiles_alpha=tuple(float(q) for q in np.quantile(za, _QUANTILE_LEVELS)),
        coverage_gamma=float(np.mean(np.abs(zg) <= zc)),
        coverage_alpha=float(np.mean(np.abs(za) <= zc)),
    )


def _csv_report(summary: McSummary) -> str:
    rows = ["Tn,n,h,case,mean_alpha,sd_alpha,mean_gamma,sd_gamma"]
    for d in summary.per_design:
        rows.append(
            f"{d.T:g},{d.n},{d.h:g},{summary.case},"
            f"{d.mean_alpha:.6f},{d.sd_alpha:.6f},{d.mean_gamma:.6f},{d.sd_gamma:.6f}"
        )
    return "\n".join(rows) + "\n"


def _panel(summary: McSummary, col: int, label: str, star: float, top: float, height: float) -> list[str]:
    """One boxplot panel (rows of the SVG): a box per design for one parameter."""
    left, slot, width = 90.0, 110.0, 56.0
    designs = summary.per_design
    stats = [np.quantile(d.estimates[:, col], (0.05, 0.25, 0.50, 0.75, 0.95)) for d in designs]
    lo = min(min(s[0] for s in stats), star)
    hi = max(max(s[4] for s in stats), star)
    pad = 0.08 * (hi - lo) if hi > lo else 0.5
    lo, hi = lo - pad, hi + pad

    def y(v: float) -> float:
        return top + height - (v - lo) / (hi - lo) * height

    out = [
        f'<text class="axis-label" x="12" y="{top + height / 2:.2f}" '
        f'transform="rotate(-90 12 {top + height / 2:.2f})" text-anchor="middle">{label}</text>',
        f'<line class="axis" x1="{left - 14:.2f}" y1="{top:.2f}" x2="{left - 14:.2f}" y2="{top + height:.2f}" stroke="black"/>',
        f'<text class="tick" x="{left - 18:.2f}" y="{y(lo) + 4:.2f}" text-anchor="end">{lo:.3g}</text>',
        f'<text class="tick" x="{left - 18:.2f}" y="{y(hi) + 4:.2f}" text-anchor="end">{hi:.3g}</text>',
        f'<line class="star" x1="{left - 14:.2f}" y1="{y(star):.2f}" '
        f'x2="{left + slot * len(designs):.2f}" y2="{y(star):.2f}" stroke="gray" stroke-dasharray="4 3"/>',
    ]
    for i, (d, s) in enumerate(zip(designs, stats)):
        cx = left + slot * i + slot / 2
        q05, q25, q50, q75, q95 = (y(v) for v in s)
        half = width / 2
        out.append(f'<g class="boxgroup" id="box-{summary.case}-{d.n}-{label}">')
        out.append(f'<line class="whisker" x1="{cx:.2f}" y1="{q95:.2f}" x2="{cx:.2f}" y2="{q75:.2f}" stroke="black"/>')
        out.append(f'<line class="whisker" x1="{cx:.2f}" y1="{q25:.2f}" x2="{cx:.2f}" y2="{q05:.2f}" stroke="black"/>')
        out.append(
            f'<rect class="box" x="{cx - half:.2f}" y="{q75:.2f}" width="{width:.2f}" '
            f'height="{q25 - q75:.2f}" fill="none" stroke="black"/>'
        )
        out.append(f'<line class="median" x1="{cx - half:.2f}" y1="{q50:.2f}" x2="{cx + half:.2f}" y2="{q50:.2f}" stroke="black"/>')
        out.append("</g>")
    return out


def _svg_report(summary: McSummary) -> str:
    designs = summary.per_design
    left, slot = 90.0, 110.0
    width = left + slot * len(designs) + 30.0
    panel_h, gap, top0 = 160.0, 55.0, 40.0
    height = top0 + 2 * panel_h + gap + 50.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'font-family="sans-serif" font-size="12">',
        f'<title>replication estimates, case {summary.case}</title>',
        f'<text x="{left - 14:.2f}" y="22" font-size="14">case {summary.case}: '
        f"{summary.replications} replications per design</text>",
    ]
    parts += _panel(summary, 0, "alpha", summary.theta_star[0], top0, panel_h)
    parts += _panel(summary, 1, "gamma", summary.theta_star[1], top0 + panel_h + gap, panel_h)
    y_lab = top0 + 2 * panel_h + gap + 30.0
    for i, d in enumerate(designs):
        cx = left + slot * i + slot / 2
        parts.append(f'<text class="design-label" x="{cx:.2f}" y="{y_lab:.2f}" text-anchor="middle">n={d.n}, h={d.h:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(summary: McSummary, out_dir: str | os.PathLike, formats=("csv", "json", "svg")) -> list[str]:
    """Write the summary as report.{csv,json,svg} under out_dir, atomically.

    The CSV mirrors the benchmark table layout (one row per design); the
    JSON is a full dump including per-replication estimates; the SVG is a
    boxplot per (case, design) and parameter.  Emitting the same summary
    twice produces byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            text = _csv_report(summary)
        elif fmt == "json":
            text = json.dumps(summary.to_obj(), indent=2, sort_keys=True) + "\n"
        elif fmt == "svg":
            text = _svg_report(summary)
        else:
            raise ValueError(f"unknown format {fmt!r}; expected csv, json, or svg")
        target = os.path.join(out_dir, f"report.{fmt}")
        atomic_write_text(target, text)
        written.append(target)
    return written
