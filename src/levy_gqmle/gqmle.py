"""Two-stage Gaussian quasi-likelihood estimation.

This is the stepwise Gaussian QMLE of Uchida & Yoshida (2012, SPA 122) and
Masuda (2013, Ann. Statist. 41(3)).  Stage one estimates the scale
parameter gamma from a drift-free Gaussian quasi-likelihood of the squared
increments; stage two estimates the drift parameter alpha by weighted
least squares with the stage-one gamma plugged into the weights.

Every catalog drift is a = alpha b(x) and every catalog scale is
c = gamma p(x), so each stage is a weighted least-squares problem with a
closed form and no optimizer is needed.  Both criteria are written once,
in ``_criterion_terms``, as functions of the state and of the increment
moments (m1, m2): a path enters with (D_j X, (D_j X)^2), the invariant law
pi_0 with (h A(x), h C(x)^2).  The closed forms fit a block of rows at a
time, shape (R, n+1) with time contiguous; a single path is a one-row
block, and each row reduces exactly as a lone path would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .coefficients import DriftFamily, ScaleFamily, family_from_obj, family_to_obj
from .sde import SamplePath

__all__ = [
    "ModelSpec",
    "StageResult",
    "EstimateResult",
    "g1_eval",
    "g2_eval",
    "estimate_scale",
    "estimate_drift",
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

    def to_obj(self) -> dict:
        return {
            "drift": family_to_obj(self.drift),
            "scale": family_to_obj(self.scale),
            "alpha_box": list(self.alpha_box),
            "gamma_box": list(self.gamma_box),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ModelSpec":
        return cls(
            drift=family_from_obj(obj["drift"]),
            scale=family_from_obj(obj["scale"]),
            alpha_box=tuple(obj.get("alpha_box", (0.0, 10.0))),
            gamma_box=tuple(obj.get("gamma_box", (0.05, 20.0))),
        )


@dataclass(frozen=True)
class StageResult:
    estimate: float
    objective: float
    gradient: float
    method: str  # "closed-form", the only method; kept in the estimate JSON
    iterations: int = 0
    converged: bool = True
    boundary: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class EstimateResult:
    gamma_hat: float
    alpha_hat: float
    g1_value: float
    g2_value: float
    stage1: StageResult = field(repr=False)
    stage2: StageResult = field(repr=False)

    def to_obj(self) -> dict:
        obj = {
            "gamma_hat": self.gamma_hat,
            "alpha_hat": self.alpha_hat,
            "g1_value": self.g1_value,
            "g2_value": self.g2_value,
        }
        for tag, st in (("stage1", self.stage1), ("stage2", self.stage2)):
            obj[f"{tag}_method"] = st.method
            obj[f"{tag}_iterations"] = st.iterations
            obj[f"{tag}_converged"] = st.converged
            obj[f"{tag}_boundary"] = st.boundary
            obj[f"{tag}_degenerate"] = st.degenerate
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


def _check_scale(c: np.ndarray) -> None:
    if not np.all(c > 0):
        raise ValueError("scale coefficient evaluated non-positive on the path")


def _criterion_terms(
    model: ModelSpec, x: np.ndarray, m1: np.ndarray, m2: np.ndarray, h: float, gamma: float, alpha: float
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-state terms of both stage criteria and their parameter derivatives.

    With c = gamma p(x) and a = alpha b(x), a state x whose next increment
    has moments (m1, m2) over a step h contributes

        stage one  l1 = -(h log c^2 + m2 / c^2),
        stage two  l2 = -(m1 - h a)^2 / (h c^2).

    Returns (l1, dl1/dgamma, d2l1/dgamma2) and
    (l2, dl2/dalpha, d2l2/dalpha2, d2l2/dalpha dgamma).  A criterion is the
    sum of its terms over N states divided by N h.  Zeroing the summed
    first derivatives gives the closed forms of :func:`_fit_scale` and
    :func:`_fit_drift`.
    """
    c = gamma * model.scale.profile(x)
    _check_scale(c)
    c2 = c * c
    b = model.drift.basis(x)
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


def g1_eval(path: SamplePath, model: ModelSpec, gamma: float) -> tuple[float, float, float]:
    """Stage-one objective and its first two gamma-derivatives.

    value = -(1/T) sum_j { h log c_{j-1}^2 + (D_j X)^2 / c_{j-1}^2 }.
    """
    return _path_criteria(path, model, gamma, 0.0)[0]


def g2_eval(
    path: SamplePath, model: ModelSpec, gamma_hat: float, alpha: float
) -> tuple[float, float, float]:
    """Stage-two objective and its first two alpha-derivatives.

    value = -(1/T) sum_j (D_j X - h a_{j-1})^2 / (h c_{j-1}^2(gamma_hat)).
    """
    return _path_criteria(path, model, gamma_hat, alpha)[1]


def _fit_scale(model: ModelSpec, x: np.ndarray, m2: np.ndarray, h: float):
    """Closed-form stage one for each row: gamma^2 = sum(m2 / p^2) / (N h).

    ``x`` and ``m2`` have shape (R, N).  Returns (gamma, boundary,
    degenerate), each of shape (R,); gamma is clamped to the box, and a row
    with zero quadratic variation is degenerate and sits at the lower edge.
    """
    lo, hi = model.gamma_box
    raw = np.sqrt(np.sum(m2 / model.scale.profile(x) ** 2, axis=1) / (x.shape[1] * h))
    return np.clip(raw, lo, hi), (raw < lo) | (raw > hi), raw == 0.0


def _fit_drift(model: ModelSpec, x: np.ndarray, m1: np.ndarray, h: float, gamma: np.ndarray):
    """Closed-form stage two for each row, with that row's gamma in the weights:
    alpha = sum(m1 b / c^2) / (h sum(b^2 / c^2)).

    Returns (alpha, boundary, degenerate) like :func:`_fit_scale`; a row
    whose denominator vanishes is degenerate and sits at the lower edge.
    """
    lo, hi = model.alpha_box
    c = gamma[:, None] * model.scale.profile(x)
    _check_scale(c)
    b = model.drift.basis(x)
    w = b / (c * c)
    denom = np.sum(b * w, axis=1) * h
    degenerate = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.sum(m1 * w, axis=1) / denom
    return np.where(degenerate, lo, np.clip(raw, lo, hi)), degenerate | (raw < lo) | (raw > hi), degenerate


def _fit_rows(model: ModelSpec, values: np.ndarray, h: float):
    """Both stages for every row of a (R, n+1) block of paths on step h.

    Returns (alpha, gamma, boundary) of shape (R,); ``boundary`` marks a
    row where either stage was clamped to its box or degenerate.
    """
    x = values[:, :-1]
    dx = np.diff(values, axis=1)
    gamma, clamped1, _ = _fit_scale(model, x, dx**2, h)
    alpha, clamped2, _ = _fit_drift(model, x, dx, h, gamma)
    return alpha, gamma, clamped1 | clamped2


def estimate_scale(path: SamplePath, model: ModelSpec) -> StageResult:
    """Stage one: the closed-form maximizer of the drift-free quasi-likelihood,
    gamma^2 = (1/(n h)) sum (D_j X)^2 / profile_{j-1}^2, clamped to the gamma
    box.  A degenerate path (zero quadratic variation) returns the lower box
    edge, flagged.
    """
    dx = path.increments()[None]
    gamma, boundary, degenerate = _fit_scale(model, path.values[None, :-1], dx**2, path.h)
    est = float(gamma[0])
    v, g, _ = g1_eval(path, model, est)
    return StageResult(est, v, g, "closed-form", 0, True, bool(boundary[0]), bool(degenerate[0]))


def estimate_drift(path: SamplePath, model: ModelSpec, gamma_hat: float) -> StageResult:
    """Stage two: weighted least squares for alpha with gamma_hat in the weights.

    alpha = sum(D_j X b_{j-1}/c_{j-1}^2) / (h sum b_{j-1}^2/c_{j-1}^2),
    clamped to the alpha box, where b is the drift basis; a vanishing
    denominator returns the lower box edge, flagged degenerate.
    """
    alpha, boundary, degenerate = _fit_drift(
        model, path.values[None, :-1], path.increments()[None], path.h, np.array([float(gamma_hat)])
    )
    est, boundary, degenerate = float(alpha[0]), bool(boundary[0]), bool(degenerate[0])
    v, g, _ = g2_eval(path, model, gamma_hat, est)
    return StageResult(est, v, g, "closed-form", 0, not degenerate, boundary, degenerate)


def estimate_staged(path: SamplePath, model: ModelSpec) -> EstimateResult:
    """Run both stages and aggregate diagnostics."""
    s1 = estimate_scale(path, model)
    s2 = estimate_drift(path, model, s1.estimate)
    return EstimateResult(
        gamma_hat=s1.estimate,
        alpha_hat=s2.estimate,
        g1_value=s1.objective,
        g2_value=s2.objective,
        stage1=s1,
        stage2=s2,
    )
