"""Replication study end to end: optimal values, Monte Carlo designs, report
emission.

The study fits the benchmark family (drift alpha (1 - x), scale
gamma / sqrt(1 + x^2)) to paths of dX = -X/2 dt + dZ driven by one of four
catalog noises, labeled "i", "ii", "iii" (pure jump) and "diffusion"
(Brownian).  Both fitted coefficients are wrong for every case, so the
estimators converge to the pseudo-true values of ``asymptotics.pseudo_true``
rather than to generating parameters.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from ._util import NumericalError, _integer, atomic_write_text, core_map, substream
from .asymptotics import pseudo_true
from .coefficients import MeanRevertLinear, RationalSqrt
from .gqmle import ModelSpec, _fit_rows
from .levy import (
    BilateralGamma,
    Brownian,
    LevyLaw,
    NormalInverseGaussian,
    standardization_check,
)
from .sde import TrueModel, _euler_panel

__all__ = [
    "CASES",
    "TAIL_RADII",
    "ExperimentError",
    "ExperimentDesign",
    "DesignSummary",
    "McSummary",
    "noise_case",
    "benchmark_model",
    "true_ou",
    "optimal_values",
    "run_mc",
    "summarize_replications",
    "emit_report",
]

CASES = ("i", "ii", "iii", "diffusion")
TAIL_RADII = (1.0, 2.0, 4.0, 8.0)

_TAG_MC = 5501  # replication increment streams hang off (seed, tag, design, k)
# replications per block: the (16, n+1) panels of the blocks in flight on the
# core pool are the only per-replication arrays alive, one per worker, and
# the only arrays of a block's size: the scan forms no copy of a panel, and
# the fit's temporaries span one tile of gqmle._FIT_TILE steps
_FIT_ROWS = 16
# a design with more failed (divergent) replications than this raises
_MAX_FAILURE_FRACTION = 0.01


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
    return TrueModel(rate=0.5, level=0.0, sigma=1.0)


def optimal_values(case: str) -> tuple[float, float]:
    """Pseudo-true (alpha*, gamma*) of the benchmark fit to ``true_ou`` under
    a case's noise: ``asymptotics.pseudo_true``, exact up to rounding."""
    return pseudo_true(benchmark_model(), true_ou(), noise_case(case))


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
        ds = tuple((_integer(n, "n"), float(h)) for n, h in self.designs)
        if not ds:
            raise ValueError("need at least one (n, h) design")
        for n, h in ds:
            if n < 2:
                raise ValueError(f"n must be >= 2, got {n}")
            if not (0 < h < math.inf):
                raise ValueError(f"h must be positive and finite, got {h}")
        object.__setattr__(self, "designs", ds)
        for name in ("replications", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replications < 100:
            raise ValueError(f"replications must be >= 100, got {self.replications}")


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


def _mc_block(
    law: LevyLaw,
    model: ModelSpec,
    true_model: TrueModel,
    n: int,
    h: float,
    x0: float,
    address: tuple[int, int],
    ks: range,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Draw, filter and fit replications ``ks`` in their own (len(ks), n+1) buffer.

    Replication k draws from the substream (*address, k), with ``address``
    = (seed, tag, design).  Returns the failure messages of divergent
    paths, then alpha, gamma and the clamped mask of the surviving rows.
    """
    values, first_bad = _euler_panel(true_model, law, h, n, x0, [substream(*address, k) for k in ks])
    failures = [f"replication {k}: path diverged at step {b}" for k, b in zip(ks, first_bad) if b >= 0]
    good = first_bad < 0
    if not good.any():
        return failures, np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    alpha, gamma, (clamped1, _), (clamped2, _) = _fit_rows(model, values if good.all() else values[good], h)
    return failures, alpha, gamma, clamped1 | clamped2


def run_mc(
    design: ExperimentDesign,
    model: ModelSpec | None = None,
    true_model: TrueModel | None = None,
    x0: float = 0.0,
) -> McSummary:
    """Simulate-and-fit replication study over the design grids.

    Replication k of design d draws increments from the substream
    (seed, tag, d, k), so its result depends only on that address.  The
    replications run in blocks of 16 on ``_util.core_map``, one worker
    per usable core up to 4.  Each block draws its own (16, n+1) panel of
    paths from x0 with ``sde._euler_panel``, which also scans it for
    divergence, and its surviving rows are fitted in the closed form, one
    time tile at a time, so the fit's temporaries do not grow with n.
    Each row reduces along time exactly as a lone path does, so every
    estimate is bitwise equal to ``estimate_staged`` on that replication's
    path, and the blocks' results are joined in replication order, so
    nothing depends on the number of workers.
    Failed replications (divergent paths) are excluded and counted; once a
    design is done, more than ``_MAX_FAILURE_FRACTION`` (1%) of them raises
    ExperimentError.  Defaults reproduce the benchmark study from x0 = 0,
    which must be finite.  The summary is centred on ``pseudo_true``'s
    theta* for the model and truth, computed before anything is drawn.
    """
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    model = model or benchmark_model()
    true_model = true_model or true_ou()
    law = noise_case(design.case)
    theta_star = pseudo_true(model, true_model, law)
    R = design.replications
    per = []
    blocks = [range(k0, min(R, k0 + _FIT_ROWS)) for k0 in range(0, R, _FIT_ROWS)]
    for d_index, (n, h) in enumerate(design.designs):
        fit_block = partial(_mc_block, law, model, true_model, n, h, x0, (design.seed, _TAG_MC, d_index))
        failures, alphas, gammas = [], [], []
        boundary = 0
        for fails, alpha, gamma, clamped in core_map(fit_block, blocks):
            failures += fails
            alphas.append(alpha)
            gammas.append(gamma)
            boundary += int(np.count_nonzero(clamped))
        if len(failures) > _MAX_FAILURE_FRACTION * R:
            raise ExperimentError(
                f"{len(failures)} of {R} replications failed at design (n={n}, h={h}); "
                f"first: {failures[0]}"
            )
        per.append(
            summarize_replications(
                n,
                h,
                np.column_stack([np.concatenate(alphas), np.concatenate(gammas)]),
                theta_star,
                n_failed=len(failures),
                failures=tuple(failures[:20]),
                boundary_count=boundary,
            )
        )
    return McSummary(
        case=design.case,
        theta_star=theta_star,
        replications=R,
        seed=design.seed,
        per_design=tuple(per),
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
    JSON is a full dump including per-replication estimates, streamed to
    the file chunk by chunk from the encoder: the bytes of
    ``json.dumps(summary.to_obj(), indent=2, sort_keys=True)`` and a
    newline, never joined into one string; the SVG is a boxplot per
    (case, design) and parameter.  Emitting the same summary twice
    produces byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            text = _csv_report(summary)
        elif fmt == "json":
            encoder = json.JSONEncoder(indent=2, sort_keys=True)
            text = chain(encoder.iterencode(summary.to_obj()), ("\n",))
        elif fmt == "svg":
            text = _svg_report(summary)
        else:
            raise ValueError(f"unknown format {fmt!r}; expected csv, json, or svg")
        target = os.path.join(out_dir, f"report.{fmt}")
        atomic_write_text(target, text)
        written.append(target)
    return written
