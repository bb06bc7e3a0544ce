"""Driving-noise laws: parameters, exact increment samplers, cumulants,
jump densities and jump-measure integrals.

Three families are supported.  ``NormalInverseGaussian`` and
``BilateralGamma`` are pure-jump laws; ``Brownian`` is the continuous
reference case used to benchmark the estimators when the noise model is
Gaussian.  All laws used to drive the ergodic models are expected to be
standardized, ``E[Z_1] = 0`` and ``Var[Z_1] = 1``; ``standardization_check``
enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _BLOCK_CELLS, NumericalError

# draws per scratch block of sample_increments
_DRAW_BLOCK = 1 << 13

__all__ = [
    "NormalInverseGaussian",
    "BilateralGamma",
    "Brownian",
    "LevyLaw",
    "cumulants",
    "standardization_check",
    "sample_increments",
    "levy_density",
    "QuadratureError",
]


class QuadratureError(NumericalError):
    """Jump-measure quadrature failed to converge."""


@dataclass(frozen=True)
class NormalInverseGaussian:
    """NIG law with shape ``alpha``, asymmetry ``beta``, scale ``delta``, location ``mu``.

    Requires ``0 <= |beta| < alpha`` and ``delta > 0``.  Blumenthal-Getoor
    index 1.
    """

    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (abs(self.beta) < self.alpha):
            raise ValueError(f"need |beta| < alpha, got beta={self.beta}, alpha={self.alpha}")

    @property
    def _gbar(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)


@dataclass(frozen=True)
class BilateralGamma:
    """Difference of two independent gamma subordinators.

    ``shape_pos, rate_pos`` control positive jumps, ``shape_neg, rate_neg``
    negative ones.  Blumenthal-Getoor index 0.
    """

    shape_pos: float
    rate_pos: float
    shape_neg: float
    rate_neg: float

    def __post_init__(self):
        for name in ("shape_pos", "rate_pos", "shape_neg", "rate_neg"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class Brownian:
    """Centered Brownian motion with standard deviation ``sigma`` per unit time.

    No jump part: jump-measure operations on this law raise ``ValueError``.
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


LevyLaw = NormalInverseGaussian | BilateralGamma | Brownian


def cumulants(law: LevyLaw, order: int = 4) -> tuple[float, ...]:
    """First ``order`` cumulants of ``Z_1`` (``order <= 4``)."""
    if not 1 <= order <= 4:
        raise ValueError(f"order must be in 1..4, got {order}")
    if isinstance(law, NormalInverseGaussian):
        a, b, d = law.alpha, law.beta, law.delta
        g = law._gbar
        full = (
            law.mu + d * b / g,
            d * a**2 / g**3,
            3 * d * b * a**2 / g**5,
            3 * d * a**2 * (a**2 + 4 * b**2) / g**7,
        )
    elif isinstance(law, BilateralGamma):
        full = tuple(
            math.factorial(j - 1)
            * (law.shape_pos / law.rate_pos**j + (-1) ** j * law.shape_neg / law.rate_neg**j)
            for j in range(1, 5)
        )
    elif isinstance(law, Brownian):
        full = (0.0, law.sigma**2, 0.0, 0.0)
    else:
        raise TypeError(f"unknown law {law!r}")
    return full[:order]


def standardization_check(law: LevyLaw) -> None:
    """Raise ``ValueError`` unless ``E[Z_1] = 0`` and ``Var[Z_1] = 1`` within 1e-12."""
    k1, k2 = cumulants(law, 2)
    if abs(k1) > 1e-12 or abs(k2 - 1.0) > 1e-12:
        raise ValueError(f"law is not standardized: mean={k1!r}, variance={k2!r}")


def sample_increments(
    law: LevyLaw, h: float, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Exact draws of ``Z_{t+h} - Z_t``, shape ``size``.

    Reproducible given the generator state; ``h = 0`` yields exact zeros.
    The arithmetic runs in place, in the order of the textbook expressions,
    so the result is bitwise equal to them on the same generator.  NIG's
    normals and the bilateral gamma's negative jumps are drawn after the
    first full-size draw in blocks of ``_DRAW_BLOCK`` (8,192) draws, so a
    call holds its output and at most two such blocks (128 KB) besides.
    A step at which the draws lose the law to rounding (NIG's (delta h)^2
    overflows, or a bilateral gamma's shape h exceeds 2^104) raises
    :class:`NumericalError` before anything is drawn.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    if h == 0:
        return np.zeros(size)
    if isinstance(law, NormalInverseGaussian):
        # subordination: IG mixing variance, then conditional Gaussian
        # mu h + beta y + sqrt(y) z, with the normals drawn block by block
        # after all of y; a normal fill keeps no state between calls
        dh = law.delta * h
        mu_h = law.mu * h
        try:
            lam = dh**2
        except OverflowError:
            raise NumericalError(f"NIG increments overflow at h={h!r}: (delta h)^2 is out of range") from None
        out = rng.wald(dh / law._gbar, lam, size)
        flat = out.reshape(-1)
        z = np.empty(min(flat.size, _DRAW_BLOCK))
        root = np.empty_like(z)
        for b0 in range(0, flat.size, _DRAW_BLOCK):
            y = flat[b0 : b0 + _DRAW_BLOCK]
            zb, rb = z[: y.size], root[: y.size]
            rng.standard_normal(out=zb)
            np.sqrt(y, out=rb)
            rb *= zb
            y *= law.beta
            y += mu_h
            y += rb
        return out
    if isinstance(law, BilateralGamma):
        # a gamma draw's relative spread 1/sqrt(shape h) is below 2^-52 here
        if max(law.shape_pos, law.shape_neg) * h > 2.0**104:
            raise NumericalError(f"bilateral gamma increments degenerate at h={h!r}: shape h exceeds "
                                 "2^104, so each gamma draw rounds to its mean")
        out = rng.gamma(law.shape_pos * h, 1.0 / law.rate_pos, size)
        # consecutive gamma calls continue one stream, so the negative jumps
        # drawn block by block are the values of one full-size call
        flat = out.reshape(-1)
        for b0 in range(0, flat.size, _DRAW_BLOCK):
            y = flat[b0 : b0 + _DRAW_BLOCK]
            y -= rng.gamma(law.shape_neg * h, 1.0 / law.rate_neg, y.size)
        return out
    if isinstance(law, Brownian):
        z = rng.standard_normal(size)
        z *= law.sigma * math.sqrt(h)
        return z
    raise TypeError(f"unknown law {law!r}")


def levy_density(law: LevyLaw, z: float | np.ndarray) -> float | np.ndarray:
    """Jump-measure density ``nu(z)`` at nonzero, finite ``z``.

    Vectorized; rejects ``z = 0`` (the measure has a nonintegrable
    singularity there), a non-finite ``z`` and laws without a jump part,
    each with ``ValueError``.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr == 0.0):
        raise ValueError("levy_density is undefined at z = 0")
    if not np.isfinite(z_arr).all():
        raise ValueError("levy_density needs a finite z")
    if isinstance(law, NormalInverseGaussian):
        az = law.alpha * np.abs(z_arr)
        # the scaled e^x K_1(x) keeps the product finite for large |z| and beta != 0
        out = (law.delta * law.alpha / math.pi) * np.exp(law.beta * z_arr - az) * _k1e(az) / np.abs(z_arr)
    elif isinstance(law, BilateralGamma):
        out = np.where(
            z_arr > 0,
            law.shape_pos * np.exp(-law.rate_pos * z_arr),
            law.shape_neg * np.exp(law.rate_neg * z_arr),
        ) / np.abs(z_arr)
    elif isinstance(law, Brownian):
        raise ValueError("Brownian law has no jump part")
    else:
        raise TypeError(f"unknown law {law!r}")
    return out if out.ndim else float(out)


# trapezoid nodes of _k1e's integral, and the x below which its series is used
_K1E_NODES = 160
_K1E_SERIES_BELOW = 1e-10


def _k1e(x: np.ndarray) -> np.ndarray:
    """``e^x K_1(x)`` for ``x > 0``, elementwise, within 2e-15 relative.

    DLMF 10.32.9 gives ``K_1(x) = int_0^inf e^{-x cosh t} cosh t dt``, and
    ``cosh t - 1 = 2 sinh^2(t/2)``, so ``e^x K_1(x) = int_0^inf
    e^{-2x sinh^2(t/2)} cosh t dt``, with no cancellation at small t.  The
    integrand is even, entire and falls doubly exponentially, so the
    trapezoid rule ``h (1/2 + sum_{k>=1} f(kh))`` errs like ``e^{-pi^2/h}``
    (Trefethen and Weideman 2014).  It stops after ``_K1E_NODES`` steps at
    ``t_max = 2 asinh(sqrt(372.5/x))``, where the exponent reaches 745 and
    underflows.  The step grows like ``log(1/x)``, so below ``x = 1e-10``
    the series ``1/x + 1 + O(x log x)`` (DLMF 10.31.1), exact there to
    rounding, is used.  Blocks of about ``_BLOCK_CELLS`` cells sum each x
    over its own row of nodes, so no split changes a bit.
    """
    flat = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty(flat.size)
    k = np.arange(1, _K1E_NODES + 1)
    rows = max(1, _BLOCK_CELLS // _K1E_NODES)
    for b0 in range(0, flat.size, rows):
        xb = np.maximum(flat[b0 : b0 + rows, None], _K1E_SERIES_BELOW)
        step = 2.0 * np.arcsinh(np.sqrt(372.5 / xb)) / _K1E_NODES
        t = step * k
        f = np.exp(-2.0 * xb * np.sinh(0.5 * t) ** 2) * np.cosh(t)
        out[b0 : b0 + rows] = step[:, 0] * (0.5 + f.sum(axis=1))
    small = flat < _K1E_SERIES_BELOW
    out[small] = 1.0 / flat[small] + 1.0
    return out.reshape(np.shape(x))


def _tail_rates(law: LevyLaw) -> tuple[float, float]:
    """Exponential decay rates of ``nu`` on the negative / positive side."""
    if isinstance(law, NormalInverseGaussian):
        return law.alpha + law.beta, law.alpha - law.beta
    if isinstance(law, BilateralGamma):
        return law.rate_neg, law.rate_pos
    raise ValueError("law has no jump part")


_U_LO = -30.0  # log |z| cutoff near the origin; controlled by the BG index < 2
_NODES_REL_TOL = 1e-9


def _nodes_at(law: LevyLaw, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes/weights in u = log|z| for both half-lines.

    Integrates ``F`` against ``nu`` as ``sum(F(z) * w)``; tail cutoffs come
    from the exponential decay rate of the jump density on each side.
    """
    rate_neg, rate_pos = _tail_rates(law)
    zs, ws = [], []
    for sign, rate in ((-1.0, rate_neg), (1.0, rate_pos)):
        # z^4 e^{-rate z} is below 1e-18 of its peak for z >= 60/rate + 40
        u_hi = math.log(60.0 / rate + 40.0)
        n = int(math.ceil((u_hi - _U_LO) / step)) + 1
        u = _U_LO + step * np.arange(n)
        z = sign * np.exp(u)
        w = np.full(n, step)
        w[0] = w[-1] = step / 2
        # du-measure: nu(z) |dz/du| = nu(z) |z|
        zs.append(z)
        ws.append(w * levy_density(law, z) * np.abs(z))
    return np.concatenate(zs), np.concatenate(ws)


def _converged_nodes(law: LevyLaw) -> tuple[np.ndarray, np.ndarray, float]:
    """Node/weight grid at a step validated on polynomial probes up to z^4,
    whose values agree with the previous step's to ``_NODES_REL_TOL``.

    Returns ``(z, w, step)``; callers doing many integrals against the same
    law reuse the grid and confirm convergence with one half-step check on
    their own integrand.
    """
    step = 0.5
    probes = [lambda z: z**2, lambda z: z**4]
    prev = None
    for _ in range(12):
        z, w = _nodes_at(law, step)
        vals = np.array([np.dot(p(z), w) for p in probes])
        if prev is not None and np.all(np.abs(vals - prev) <= _NODES_REL_TOL * np.maximum(np.abs(vals), 1.0)):
            return z, w, step
        prev = vals
        step /= 2
    raise QuadratureError("probe moments did not converge on the jump grid")
