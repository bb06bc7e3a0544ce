"""Residual-based moment estimates for the driving noise.

After a two-stage fit, the rescaled increments

    (D_j X - h a_{j-1}(alpha_hat)) / c_{j-1}(gamma_hat)

behave like increments of the driving process, so their r-th power summed
with a 1/T_n normalization estimates the integral of z^r against the jump
measure.  The scheme only needs the scale to be well specified; the drift
may be wrong.
"""

from __future__ import annotations

import numpy as np

from ._util import _integer
from .coefficients import _horner
from .gqmle import EstimateResult, ModelSpec, _check_scale
from .sde import SamplePath

__all__ = ["residual_moment"]


def residual_moment(path: SamplePath, est: EstimateResult, model: ModelSpec, r: int) -> float:
    """r-th residual moment, (1/T) sum_j ((D_j X - h a_{j-1}) / c_{j-1})^r.

    Estimates int z^r nu0(dz) for r >= 2; the lower moments are absorbed by
    the drift and the scaling rather than the jump measure.
    """
    r = _integer(r, "r")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if not (np.isfinite(est.alpha_hat) and np.isfinite(est.gamma_hat)):
        raise ValueError("estimates must be finite")
    x = path.values[:-1]
    q = _horner(model.scale.q_coef, x)
    _check_scale(est.gamma_hat, q)
    a = est.alpha_hat * _horner(model.drift.basis_coef, x)
    c = est.gamma_hat * (1.0 / np.sqrt(q))
    z = (path.increments() - path.h * a) / c
    return float(np.sum(z**r)) / path.T
