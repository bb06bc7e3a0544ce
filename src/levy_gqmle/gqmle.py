"""Two-stage Gaussian quasi-likelihood estimation.

This is the stepwise Gaussian QMLE of Uchida & Yoshida (2012, SPA 122) and
Masuda (2013, Ann. Statist. 41(3)).  Stage one estimates the scale
parameter gamma from a drift-free Gaussian quasi-likelihood of the squared
increments; stage two estimates the drift parameter alpha by weighted
least squares with the stage-one gamma plugged into the weights.

Every catalog drift is a = alpha b(x) and every catalog scale is
c = gamma p(x), so each stage is a weighted least-squares problem with a
closed form and no optimizer is needed.  Both read the scale through
c^2 = gamma^2 / q, q = 1/p^2 a polynomial like b, and take no square root
but gamma's.  Both criteria are written once, in ``_criterion_terms``, as
functions of a path's states and increment moments; pi_0's integrands are
the polynomials of ``asymptotics._integrands``.  The closed forms fit a
block of rows at a time, shape (R, n+1) with time contiguous; a single
path is a one-row block, and each row reduces exactly as a lone path would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import DriftFamily, ScaleFamily, _horner
from .sde import SamplePath

__all__ = [
    "ModelSpec",
    "EstimateResult",
    "estimate_staged",
]


@dataclass(frozen=True)
class ModelSpec:
    """Fitted parametric model: drift and scale families plus parameter boxes.

    The boxes are open intervals; the gamma box is bounded away from 0 so
    the fitted scale stays invertible.
    """

    drift: DriftFamily
    scale: ScaleFamily
    alpha_box: tuple[float, float] = (0.0, 10.0)
    gamma_box: tuple[float, float] = (0.05, 20.0)

    def __post_init__(self):
        if not (self.alpha_box[0] < self.alpha_box[1]):
            raise ValueError(f"alpha_box must be an interval, got {self.alpha_box}")
        if not (0.0 < self.gamma_box[0] < self.gamma_box[1]):
            raise ValueError(f"gamma_box must be an interval bounded away from 0, got {self.gamma_box}")


@dataclass(frozen=True)
class EstimateResult:
    """Both stage estimates, the criteria at them, and each stage's flags.

    A stage is ``boundary`` when its estimate was clamped to the box and
    ``degenerate`` when the path carries no information for it; a
    degenerate stage is also a boundary one.
    """

    gamma_hat: float
    alpha_hat: float
    g1_value: float
    g2_value: float
    stage1_boundary: bool
    stage1_degenerate: bool
    stage2_boundary: bool
    stage2_degenerate: bool

    def to_obj(self) -> dict:
        return asdict(self)


def _check_scale(gamma, q: np.ndarray) -> None:
    """Refuse a scale whose variance c^2 = gamma^2 / q is not positive and
    finite on the path: gamma <= 0, or q outside (0, inf)."""
    if not (np.all(gamma > 0) and np.all((q > 0) & (q < np.inf))):
        raise ValueError("scale coefficient evaluated non-positive on the path")


def _criterion_terms(
    model: ModelSpec, x: np.ndarray, m1: np.ndarray, m2: np.ndarray, h: float, gamma: float, alpha: float
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-state terms of both stage criteria and their parameter derivatives.

    With c^2 = gamma^2 / q(x) and a = alpha b(x), a state x whose next
    increment has moments (m1, m2) over a step h contributes

        stage one  l1 = -(h log c^2 + m2 / c^2),
        stage two  l2 = -(m1 - h a)^2 / (h c^2).

    Returns (l1, dl1/dgamma, d2l1/dgamma2) and
    (l2, dl2/dalpha, d2l2/dalpha2, d2l2/dalpha dgamma).  A criterion is the
    sum of its terms over N states divided by N h.  Zeroing the summed
    first derivatives gives the closed forms of :func:`_fit_scale` and
    :func:`_fit_drift`.
    """
    q = _horner(model.scale.q_coef, x)
    _check_scale(gamma, q)
    c2 = gamma**2 / q
    b = _horner(model.drift.basis_coef, x)
    u = m2 / c2
    r = m1 - h * (alpha * b)
    rb = r * b / c2
    stage1 = (-(h * np.log(c2) + u), -2.0 / gamma * (h - u), 2.0 / gamma**2 * (h - 3.0 * u))
    stage2 = (-(r * r) / (h * c2), 2.0 * rb, -2.0 * h * (b * b) / c2, -4.0 / gamma * rb)
    return stage1, stage2


def _path_criteria(path: SamplePath, model: ModelSpec, gamma: float, alpha: float):
    """(stage one, stage two) criteria on a path, each as (value, gradient, Hessian)."""
    dx = path.increments()
    stage1, stage2 = _criterion_terms(model, path.values[:-1], dx, dx * dx, path.h, gamma, alpha)
    return [tuple(float(np.sum(t)) / path.T for t in terms[:3]) for terms in (stage1, stage2)]


def _fit_scale(model: ModelSpec, q: np.ndarray, m2: np.ndarray, h: float):
    """Closed-form stage one for each row: gamma^2 = sum(m2 q) / (N h).

    ``q`` and ``m2`` have shape (R, N).  Returns (gamma, boundary,
    degenerate), each of shape (R,); gamma is clamped to the box, and a row
    with zero quadratic variation is degenerate and sits at the lower edge.
    A row whose sum(m2 q) is not finite (an increment that overflows when
    squared) is refused with ``_check_scale``'s ``ValueError``, not clamped.
    """
    lo, hi = model.gamma_box
    total = np.sum(m2 * q, axis=1)
    if not np.all(total < np.inf):
        raise ValueError("scale coefficient evaluated non-positive on the path")
    raw = np.sqrt(total / (q.shape[1] * h))
    return np.clip(raw, lo, hi), (raw < lo) | (raw > hi), raw == 0.0


def _fit_drift(model: ModelSpec, x: np.ndarray, q: np.ndarray, m1: np.ndarray, h: float, gamma: np.ndarray):
    """Closed-form stage two for each row, with that row's gamma in the
    weights w = b q / gamma^2 = b / c^2: alpha = sum(m1 w) / (h sum(b w)).

    Returns (alpha, boundary, degenerate) like :func:`_fit_scale`; a row
    whose denominator vanishes is degenerate and sits at the lower edge.
    """
    lo, hi = model.alpha_box
    _check_scale(gamma, q)
    b = _horner(model.drift.basis_coef, x)
    w = b * q
    w /= gamma[:, None] ** 2
    denom = np.sum(b * w, axis=1) * h
    degenerate = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.sum(m1 * w, axis=1) / denom
    return np.where(degenerate, lo, np.clip(raw, lo, hi)), degenerate | (raw < lo) | (raw > hi), degenerate


def _fit_rows(model: ModelSpec, values: np.ndarray, h: float):
    """Both stages for every row of a (R, n+1) block of paths on step h.

    Returns alpha and gamma of shape (R,), then stage one's and stage two's
    (boundary, degenerate) masks, each of shape (R,).
    """
    x = values[:, :-1]
    dx = np.diff(values, axis=1)
    q = _horner(model.scale.q_coef, x)
    gamma, *stage1 = _fit_scale(model, q, dx**2, h)
    alpha, *stage2 = _fit_drift(model, x, q, dx, h, gamma)
    return alpha, gamma, stage1, stage2


def estimate_staged(path: SamplePath, model: ModelSpec) -> EstimateResult:
    """Both stages on one path: :func:`_fit_rows` on a one-row block, with
    both criteria evaluated at the estimates.

    Stage one clamps gamma to its box, and a path with zero quadratic
    variation is degenerate at the lower edge; stage two clamps alpha, and
    a vanishing weighted-LS denominator is degenerate at the lower edge.
    """
    alpha, gamma, (b1, d1), (b2, d2) = _fit_rows(model, path.values[None], path.h)
    gamma_hat, alpha_hat = float(gamma[0]), float(alpha[0])
    stage1, stage2 = _path_criteria(path, model, gamma_hat, alpha_hat)
    return EstimateResult(
        gamma_hat, alpha_hat, stage1[0], stage2[0], bool(b1[0]), bool(d1[0]), bool(b2[0]), bool(d2[0])
    )
