"""Independent oracles for expected values asserted in the test suite.

Everything here reaches its numbers by a different route than the library:
cumulants via high-precision Taylor expansion of closed-form cumulant
generating functions, stationary-law moments via the cumulant scaling of the
linear-drift invariant law, Poisson-equation solutions via a triangular
polynomial solve against the generator, and score covariances via exact
polynomial algebra in (x, z).  Only the benchmark model (drift -x/2, unit
scale, fitted drift alpha(1-x), fitted scale gamma/sqrt(1+x^2)) is covered,
except for pseudo-true values, which take raw moments for any catalog pair.
Paths are checked against the Euler recursion stepped one time step at a
time in Python, and fits against the benchmark closed forms written out
and against every catalog pair's closed forms summed over whole paths.
The characteristic exponent is the mpmath CGF on the imaginary axis, the
stage criteria are read off the package's one criterion algebra, and
Poisson-equation solutions are checked by their martingale increments.
The limit covariance's per-state jump integrals are summed node by node,
with the Poisson-equation solutions interpolated by ``np.interp``, and pi_0
averages are taken from the integrands' values on all states at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npp
from scipy.signal import convolve2d

from levy_gqmle._util import batch_means_se, substream
from levy_gqmle.coefficients import ConstantDrift, ConstantScale, LinearDecay, MeanRevertLinear, RationalSqrt
from levy_gqmle.gqmle import ModelSpec, _path_criteria
from levy_gqmle.levy import BilateralGamma, Brownian, LevyLaw, NormalInverseGaussian, sample_increments
from levy_gqmle.sde import DIVERGENCE_BOUND, SamplePath, TrueModel, _first_bad, _scan, _step_map

DRIFT_RATE = 0.5  # benchmark true drift is -x/2

# the catalog's textbook forms, written out apart from the families'
# coefficients: the basis b(x) of each drift family, the profile p(x) of
# each scale family
FAMILY_FORMS = {
    MeanRevertLinear: lambda family, x: family.m - x,
    ConstantDrift: lambda family, x: np.ones_like(x),
    LinearDecay: lambda family, x: -x,
    RationalSqrt: lambda family, x: 1.0 / np.sqrt(1.0 + x**2),
    ConstantScale: lambda family, x: np.ones_like(x),
}


def family_form(family, x) -> np.ndarray:
    """A catalog family's textbook function at x: b for a drift, p for a scale."""
    return FAMILY_FORMS[type(family)](family, np.asarray(x, dtype=float))


def chunk_draws(noise: LevyLaw, step: float, steps: int, cols: int, seed: int, tag: int, chunk: int = 500) -> np.ndarray:
    """(steps, cols) increments drawn chunk by chunk, serially: chunk c
    holds ``chunk`` steps (the last one short) from the substream
    (seed, tag, c), the layout of ``sde._chunked_paths``."""
    return np.concatenate([
        sample_increments(noise, step, (min(chunk, steps - c0), cols), substream(seed, tag, c0 // chunk))
        for c0 in range(0, steps, chunk)
    ])


def _euler_columns(
    model: TrueModel, dt: float, x0: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the Euler recursion on pre-drawn increments, vectorized over columns.

    ``z`` has shape (steps, R); starts ``x0`` shape (R,).  Returns values of
    shape (steps+1, R) and ``first_bad`` of shape (R,): the first step index
    at which a column diverged, or -1.  Diverged columns are frozen at 0
    internally and nan-filled from the bad step onward.
    """
    steps, R = z.shape
    values = np.empty((steps + 1, R))
    x = np.array(x0, dtype=float, copy=True)
    values[0] = x
    first_bad = np.full(R, -1, dtype=int)
    for j in range(steps):
        x = x + (model.level - model.rate * x) * dt + model.sigma * z[j]
        bad = ~np.isfinite(x) | (np.abs(x) > DIVERGENCE_BOUND)
        if bad.any():
            newly = bad & (first_bad < 0)
            first_bad[newly] = j + 1
            x[bad] = 0.0
        values[j + 1] = x
    for col in np.nonzero(first_bad >= 0)[0]:
        values[first_bad[col] :, col] = np.nan
    return values, first_bad


def benchmark_closed_form(path: SamplePath) -> tuple[float, float]:
    """Unclamped (alpha_hat, gamma_hat) for drift alpha(1-x), scale gamma/sqrt(1+x^2).

    gamma_hat = sqrt((1/(n h)) sum (D_j X)^2 (X_{j-1}^2 + 1)) and
    alpha_hat = sum D_j X (1-X_{j-1})(1+X_{j-1}^2) / (h sum (X_{j-1}-1)^2 (1+X_{j-1}^2)),
    spelled out directly rather than through the fitted families.
    """
    x_prev = path.values[:-1]
    dx = path.increments()
    w = 1.0 + x_prev**2
    gamma_hat = math.sqrt(float(np.sum(dx**2 * w)) / (path.n * path.h))
    alpha_hat = float(np.sum(dx * (1.0 - x_prev) * w)) / (path.h * float(np.sum((x_prev - 1.0) ** 2 * w)))
    return alpha_hat, gamma_hat


def fit_rows_untiled(model: ModelSpec, values: np.ndarray, h: float):
    """Both closed-form stages for every row of a (R, n+1) block, as
    ``gqmle._fit_rows`` returns them, each sum taken over a whole row at
    once, from the catalog's textbook b and p, with the stage-one gamma in
    stage two's weights w = b / c^2 = b / (gamma p)^2.
    """
    x, dx = values[:, :-1], np.diff(values, axis=1)
    b, p2 = family_form(model.drift, x), family_form(model.scale, x) ** 2
    (g_lo, g_hi), (a_lo, a_hi) = model.gamma_box, model.alpha_box
    raw_gamma = np.sqrt(np.sum(dx**2 / p2, axis=1) / (dx.shape[1] * h))
    gamma = np.clip(raw_gamma, g_lo, g_hi)
    w = b / (gamma[:, None] ** 2 * p2)
    denom = h * np.sum(b * w, axis=1)
    degenerate = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw_alpha = np.sum(dx * w, axis=1) / denom
    alpha = np.where(degenerate, a_lo, np.clip(raw_alpha, a_lo, a_hi))
    stage1 = ((raw_gamma < g_lo) | (raw_gamma > g_hi), raw_gamma == 0.0)
    stage2 = (degenerate | (raw_alpha < a_lo) | (raw_alpha > a_hi), degenerate)
    return alpha, gamma, stage1, stage2


def _cgf(law: LevyLaw):
    """K(u) = log E[exp(u Z_1)] in mpmath, at the working precision; a complex u
    takes the principal branches, which hold on the whole imaginary axis."""
    if isinstance(law, NormalInverseGaussian):
        a, b, d, u0 = map(mp.mpf, (law.alpha, law.beta, law.delta, law.mu))
        gbar = mp.sqrt(a**2 - b**2)
        return lambda u: u0 * u + d * (gbar - mp.sqrt(a**2 - (b + u) ** 2))
    if isinstance(law, BilateralGamma):
        sp_, rp, sm, rm = map(mp.mpf, (law.shape_pos, law.rate_pos, law.shape_neg, law.rate_neg))
        return lambda u: sp_ * mp.log(rp / (rp - u)) + sm * mp.log(rm / (rm + u))
    if isinstance(law, Brownian):
        s = mp.mpf(law.sigma)
        return lambda u: s**2 * u**2 / 2
    raise TypeError(law)


def cgf_cumulants(law: LevyLaw, order: int = 8) -> list[float]:
    """kappa_0..kappa_order of Z_1, from mpmath Taylor coefficients of the CGF."""
    with mp.workdps(60):
        coef = mp.taylor(_cgf(law), 0, order)
        return [float(mp.factorial(j) * coef[j]) for j in range(order + 1)]


def char_exponent(law: LevyLaw, u: float) -> complex:
    """Characteristic exponent psi(u) = log E[exp(i u Z_1)] = K(i u)."""
    return complex(_cgf(law)(1j * u))


def g1_eval(path: SamplePath, model: ModelSpec, gamma: float) -> tuple[float, float, float]:
    """Stage-one criterion on ``path`` and its first two gamma-derivatives."""
    return _path_criteria(path, model, gamma, 0.0)[0]


def g2_eval(path: SamplePath, model: ModelSpec, gamma: float, alpha: float) -> tuple[float, float, float]:
    """Stage-two criterion on ``path`` at ``gamma`` and its first two alpha-derivatives."""
    return _path_criteria(path, model, gamma, alpha)[1]


def _piecewise(f, q):
    """An ``EPEApprox``'s value at q, read off its linear pieces."""
    intercepts, slopes, j = f._segments(q)
    return intercepts[j] + slopes[j] * q


def martingale_check(f, g, model: TrueModel, noise: LevyLaw, reps: int, seed: int) -> np.ndarray:
    """|mean| / se of M_s - M_0 for M_t = f(X_t) + int_0^t g(X_u) du, shape (3, 3),
    for an ``EPEApprox`` f.

    Rows are the starts -1.5, 0, 1.5 and columns the lags of 50, 100 and
    200 Euler steps of 0.01.  The increments come from the substreams
    (seed, 7301, chunk) of :func:`chunk_draws`; the time
    integral is the trapezoid rule on the simulation grid, as in
    ``epe_solve``.  A zero mean with a zero standard error scores 0.
    """
    step, lags = 0.01, (50, 100, 200)
    z = chunk_draws(noise, step, lags[-1], reps, seed, 7301).T
    panel = np.empty((3, len(lags)))
    for i, x0 in enumerate((-1.5, 0.0, 1.5)):
        values = np.empty((reps, lags[-1] + 1))
        values[:, 0], values[:, 1:] = x0, z
        _scan(*_step_map(model, step), x0, values[:, 1:])
        assert (_first_bad(values[:, 1:], x0) < 0).all()
        gx = np.asarray(g(values), dtype=float)
        f0 = float(_piecewise(f, np.float64(x0)))
        for j, k in enumerate(lags):
            d = _piecewise(f, values[:, k]) + step * (gx[:, : k + 1].sum(axis=1) - 0.5 * (gx[:, 0] + gx[:, k])) - f0
            mean, se = float(np.mean(d)), batch_means_se(d)
            panel[i, j] = abs(mean) / se if se > 0 else (0.0 if mean == 0.0 else math.inf)
    return panel


def pi0_stats_per_state(rows, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, batch-means errors) of each row of a ``_PolyRHS`` over pi_0
    states, from its values on all states at once: ``np.mean`` and
    ``batch_means_se`` of ``rows(states)``."""
    values = rows(states)
    return np.array([np.mean(v) for v in values]), np.array([batch_means_se(v) for v in values])


def invariant_cumulants(
    kappas: list[float], drift_rate: float = DRIFT_RATE, sigma: float = 1.0, level: float = 0.0
) -> list[float]:
    """Cumulants 0..K of the stationary law of dX = (level - drift_rate*X) dt + sigma dZ."""
    return [0.0, (level + sigma * kappas[1]) / drift_rate] + [
        sigma**j * kappas[j] / (j * drift_rate) for j in range(2, len(kappas))
    ]


def cumulants_to_moments(cums: list[float]) -> list[float]:
    """Raw moments m_0..m_K from cumulants via the standard recursion."""
    K = len(cums) - 1
    m = [1.0] + [0.0] * K
    for k in range(1, K + 1):
        m[k] = sum(math.comb(k - 1, j - 1) * cums[j] * m[k - j] for j in range(1, k + 1))
    return m


def pseudo_true_oracle(model: ModelSpec, true_model: TrueModel, law: LevyLaw) -> tuple[float, float]:
    """(alpha*, gamma*) = (E[A b q] / E[b^2 q], sqrt(E[C^2 q])), each clipped
    to its box, with q = 1/p^2, from pi_0's raw moments E[x^j].

    The families are read through ``FAMILY_FORMS`` and the true model
    through its fields: the three integrands, each of degree <= 4 in x, are
    interpolated at five integer points, and the moments come from
    ``cgf_cumulants``.
    """
    x = np.arange(-2.0, 3.0)
    rate, level, sigma = true_model.rate, true_model.level, true_model.sigma
    b, q, big_a = family_form(model.drift, x), 1.0 / family_form(model.scale, x) ** 2, level - rate * x
    num, den, q = (npp.polyfit(x, y, 4) for y in (big_a * b * q, b * b * q, q))
    m = cumulants_to_moments(invariant_cumulants(cgf_cumulants(law, 4), rate, sigma, level))
    alpha = npp.polyval(1.0, num * m) / npp.polyval(1.0, den * m)
    gamma = math.sqrt(sigma**2 * npp.polyval(1.0, q * m))
    return float(np.clip(alpha, *model.alpha_box)), float(np.clip(gamma, *model.gamma_box))


def ou_poly_epe(
    g_coeffs, kappas: list[float], moments: list[float], drift_rate: float = DRIFT_RATE
) -> np.ndarray:
    """Polynomial solution of the extended-generator equation A f = -g.

    The generator of dX = -drift_rate*X dt + dZ maps x^k to
    -drift_rate*k*x^k + sum_{j=2..k} C(k,j) kappa_j x^{k-j}, so the
    coefficients solve triangularly from the top degree down.  The constant
    term is fixed to the pi0-centered choice, which matches the
    time-integral representation f(x) = int_0^inf E^x[g(X_t)] dt.
    """
    g = list(g_coeffs)
    K = len(g) - 1
    b = [0.0] * (K + 1)
    for k in range(K, 0, -1):
        s = g[k] + sum(math.comb(k + j, j) * kappas[j] * b[k + j] for j in range(2, K - k + 1))
        b[k] = s / (drift_rate * k)
    resid = g[0] + sum(kappas[j] * b[j] for j in range(2, K + 1))
    if abs(resid) > 1e-10 * max(1.0, abs(g[0])):
        raise ValueError(f"g is not centered under pi0 (degree-0 residual {resid})")
    b[0] = -sum(b[k] * moments[k] for k in range(1, K + 1))
    return np.array(b)


def shift_poly(b) -> np.ndarray:
    """2-D coefficient array of f(x+z) for 1-D coefficients f = sum b_k x^k."""
    K = len(b) - 1
    P = np.zeros((K + 1, K + 1))
    for k in range(K + 1):
        for l in range(k + 1):
            P[k - l, l] += b[k] * math.comb(k, l)
    return P


def poly_xz_expectation(R: np.ndarray, moments: list[float], kappas: list[float]) -> float:
    """E[sum R[a,b] x^a z^b] under pi0(dx) nu0(dz); requires no z^0/z^1 mass."""
    if not np.allclose(R[:, :2], 0.0, atol=1e-12):
        raise ValueError("integrand has z^0 or z^1 terms; nu0-integral undefined")
    total = 0.0
    for a in range(R.shape[0]):
        for bb in range(2, R.shape[1]):
            if R[a, bb] != 0.0:
                total += R[a, bb] * moments[a] * kappas[bb]
    return total


@dataclass
class BenchmarkOracle:
    """Exact limit quantities for one noise law driving the benchmark model."""

    law: LevyLaw
    kappas: list[float]
    inv_moments: list[float]
    alpha_star: float
    gamma_star: float
    gamma_gamma: float
    gamma_alpha: float
    g1_coeffs: np.ndarray = field(repr=False)
    g2_coeffs: np.ndarray = field(repr=False)
    f1_coeffs: np.ndarray = field(repr=False)
    f2_coeffs: np.ndarray = field(repr=False)
    sigma: np.ndarray | None = field(default=None, repr=False)
    avar: np.ndarray | None = field(default=None, repr=False)


def benchmark_oracle(law: LevyLaw) -> BenchmarkOracle:
    """Build all exact limits for the benchmark model driven by ``law``."""
    kap = cgf_cumulants(law, order=8)
    m = cumulants_to_moments(invariant_cumulants(kap))
    m2, m3, m4 = m[2], m[3], m[4]
    gamma_star = math.sqrt(1.0 + m2)
    # Gamma_alpha = 2 E[(1-x)^2 (1+x^2)] / gamma*^2; equals 3 - 2 m3 + m4 when m2 = 1
    gamma_alpha = 2.0 * (1.0 + 2.0 * m2 - 2.0 * m3 + m4) / gamma_star**2
    # first-order condition of the drift limit criterion; reduces to the
    # familiar (1 - m3 + m4) / (2 (3 - 2 m3 + m4)) when m2 = 1
    alpha_star = (m2 + m4 - m3) / (2.0 * (1.0 + 2.0 * m2 - 2.0 * m3 + m4))
    gamma_gamma = -4.0 / gamma_star**2

    g3 = gamma_star**3
    g1 = np.array([(gamma_star**2 - 1.0) / g3, 0.0, -1.0 / g3])
    # (1-x) * (-x/2 - alpha*(1-x)) * (1+x^2) / gamma^2
    g2 = npp.polymul(
        npp.polymul([1.0, -1.0], [-alpha_star, alpha_star - 0.5]), [1.0, 0.0, 1.0]
    ) / gamma_star**2

    f1 = ou_poly_epe(g1, kap, m)
    f2 = ou_poly_epe(g2, kap, m)

    sigma = avar = None
    if not isinstance(law, Brownian):
        # v_gamma = (dc/c^3) z^2 + f1(x+z) - f1(x); v_alpha = (da/c^2) z + f2(x+z) - f2(x)
        w = np.array([1.0, 0.0, 1.0]) / g3
        vg = shift_poly(f1)
        vg[:, 0] -= f1
        vg[: len(w), 2] += w
        u = npp.polymul([1.0, -1.0], [1.0, 0.0, 1.0]) / gamma_star**2
        va = shift_poly(f2)
        if va.shape[0] < len(u):
            pad = np.zeros((len(u), len(u)))
            pad[: va.shape[0], : va.shape[1]] = va
            va = pad
        va[:, 0] -= np.pad(f2, (0, va.shape[0] - len(f2)))
        va[: len(u), 1] += u
        s_g = 4.0 * poly_xz_expectation(convolve2d(vg, vg), m, kap)
        s_a = 4.0 * poly_xz_expectation(convolve2d(va, va), m, kap)
        s_ag = -4.0 * poly_xz_expectation(convolve2d(vg, va), m, kap)
        sigma = np.array([[s_g, s_ag], [s_ag, s_a]])
        gam = np.array([[gamma_gamma, 0.0], [0.0, gamma_alpha]])
        gi = np.linalg.inv(gam)
        avar = gi @ sigma @ gi.T

    return BenchmarkOracle(
        law=law,
        kappas=kap,
        inv_moments=m,
        alpha_star=alpha_star,
        gamma_star=gamma_star,
        gamma_gamma=gamma_gamma,
        gamma_alpha=gamma_alpha,
        g1_coeffs=g1,
        g2_coeffs=np.asarray(g2),
        f1_coeffs=f1,
        f2_coeffs=f2,
        sigma=sigma,
        avar=avar,
    )


def _interp_extended(f, q: np.ndarray) -> np.ndarray:
    """An ``EPEApprox``'s piecewise-linear function at q: ``np.interp`` on
    its grid, extended beyond it with the two outermost slopes."""
    out = np.interp(q, f.x, f.f)
    lo_slope = (f.f[1] - f.f[0]) / (f.x[1] - f.x[0])
    hi_slope = (f.f[-1] - f.f[-2]) / (f.x[-1] - f.x[-2])
    out = np.where(q < f.x[0], f.f[0] + lo_slope * (q - f.x[0]), out)
    return np.where(q > f.x[-1], f.f[-1] + hi_slope * (q - f.x[-1]), out)


def sigma_terms_by_node(
    model: ModelSpec, true_model: TrueModel, theta_star, states, f1, f2, nodes, weights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state (S_gamma, S_alpha, S_cross) summed over every (state, node)
    cell: v1 = w_g z^2 + f1(x + C z) - f1(x), v2 = w_a z + f2(x + C z) - f2(x),
    and each state's weighted node sum is one ``einsum`` row reduction."""
    alpha_s, gamma_s = theta_star
    x, z = states[:, None], nodes[None, :]
    p = family_form(model.scale, x)
    c, big_c = gamma_s * p, true_model.sigma
    w_g = p * big_c**2 / c**3
    w_a = family_form(model.drift, x) * big_c / c**2
    xz = x + big_c * z
    v1 = w_g * z**2 + _interp_extended(f1, xz) - _interp_extended(f1, x)
    v2 = w_a * z + _interp_extended(f2, xz) - _interp_extended(f2, x)
    return tuple(np.einsum("ij,ij,j->i", a, b, weights) for a, b in ((v1, v1), (v2, v2), (v1, v2)))
