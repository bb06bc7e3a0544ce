"""Invariant sampling, Poisson-equation solutions, and the limit matrices.

The staged estimator is asymptotically normal with covariance
V = Gamma^{-1} Sigma Gamma^{-T}.  Gamma collects curvature of the limiting
criteria at the optimal parameter; Sigma is the jump-driven variance of the
scores and involves the solutions f_1, f_2 of extended Poisson equations.
None of this is closed-form for a general model, so each piece is realized
numerically: the invariant law pi_0 by one long thinned path, f_1/f_2 by
Monte Carlo time integrals of the conditional expectation, the jump measure
nu_0 by deterministic quadrature.

Everything here assumes the ergodic catalog: linear mean-reverting true
drift with constant true scale.  That keeps the mixing rate explicit, which
the tail bounds and the thinning defaults rely on.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ._util import NumericalError, batch_means_se, substream
from .gqmle import ModelSpec, _criterion_terms
from .levy import (
    Brownian,
    LevyLaw,
    QuadratureError,
    _converged_nodes,
    _nodes_at,
    _tail_rates,
    char_exponent,
    cumulants,
    sample_increments,
)
from .sde import _BLOCK_CELLS, DIVERGENCE_BOUND, DivergenceError, TrueModel, _affine_form, _affine_paths, _step_map

__all__ = [
    "AsymptoticsResult",
    "CovarianceError",
    "EPEApprox",
    "InvariantSample",
    "MartingaleReport",
    "MixingError",
    "NotCenteredError",
    "SingularGammaError",
    "avar",
    "epe_solve",
    "gamma_matrix",
    "invariant_char",
    "martingale_check",
    "run_asymptotics",
    "sample_invariant",
]

_COND_LIMIT = 1e12
# substream tags so the invariant path, the EPE paths, and the martingale
# paths never share draws even under one seed
_TAG_INVARIANT = 3101
_TAG_EPE = 7001
_TAG_MARTINGALE = 7301
_CHUNK_STEPS = 500
# steps per invariant-path chunk, and the most worker threads drawing chunks
_INVARIANT_CHUNK = 2_000_000
_MAX_WORKERS = 4
# Sigma averages over at most this many pi_0 states, thinned evenly, taken
# this many at a time through jump-quadrature nodes of this relative tolerance
_SIGMA_STATES = 4000
_SIGMA_CHUNK = 500
_SIGMA_REL_TOL = 1e-9


class MixingError(NumericalError):
    """Invariant sample failed the variance sanity gate."""


class NotCenteredError(NumericalError):
    """EPE right-hand side is not centered under pi_0."""


class SingularGammaError(NumericalError):
    """Gamma is numerically singular."""


class CovarianceError(NumericalError):
    """Sigma or V fails the positive-semidefiniteness tolerance."""


def _linear_ou_form(model: TrueModel) -> tuple[float, float, float]:
    """(rate, stationary mean, scale) of an ergodic affine model."""
    rate, level, sigma = _affine_form(model)
    if not rate > 0.0:
        raise ValueError(f"need a linear mean-reverting true drift: rate must be positive, got {rate}")
    return rate, level / rate, sigma


@dataclass(frozen=True)
class InvariantSample:
    """States approximately distributed as pi_0, with sampling provenance."""

    states: np.ndarray
    burn_in: float
    spacing: float
    seed: int
    step: float

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 1 or states.size < 1000:
            raise ValueError("invariant sample needs at least 1000 states")
        if not np.isfinite(states).all():
            raise ValueError("invariant sample contains non-finite states")
        object.__setattr__(self, "states", states)


def _pool_size(tasks: int) -> int:
    """Worker threads for ``tasks`` invariant chunks: the usable cores, at most 4.

    Each worker holds about 16 MB of live arrays.  Platforms without CPU
    affinity (macOS, Windows) count every core.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(tasks, _MAX_WORKERS, cores))


def sample_invariant(
    model: TrueModel,
    noise: LevyLaw,
    budget: int = 20000,
    seed: int = 0,
    spacing: float = 1.0,
    burn_in: float = 50.0,
    step: float = 0.01,
) -> InvariantSample:
    """Draw ``budget`` states from one long thinned Euler path.

    The path starts at the stationary mean, discards ``burn_in`` time units,
    then keeps one state every ``spacing`` time units.  The Euler step is
    the AR(1) of ``sde._step_map``, X_{k+1} = rho X_k + u_k, which is affine
    in its start: k steps from x reach Y_k + rho^k x, with Y the path from 0.
    So the path is cut into chunks of ``_INVARIANT_CHUNK`` steps, each drawn
    from its own substream (seed, 3101, chunk) and filtered from zero in
    place by ``sde._affine_paths`` on a small thread pool, one worker per
    core up to 4.  A worker returns only the chunk's kept states and its
    last state; the chunks are then composed in order through the affine
    start map.  The result does not depend on the number of workers.  It
    equals one filter pass over the whole path up to rounding (about 1e-14
    relative): the two sum the same terms in a different order.

    The sample variance must land within 10% of kappa_2 scale^2 / (2 rate);
    a larger mismatch means the chain did not mix at this step size and
    raises :class:`MixingError`.
    """
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000, got {budget}")
    if spacing < 1.0:
        raise ValueError(f"thinning spacing must be >= 1 time unit, got {spacing}")
    if burn_in < 0.0 or step <= 0.0:
        raise ValueError("burn_in must be >= 0 and step > 0")
    rate, mean, sigma = _linear_ou_form(model)
    if rate * step >= 1.0:
        raise ValueError("step too coarse: rate*step must be < 1")

    keep = max(1, int(round(spacing / step)))
    burn_steps = int(round(burn_in / step))
    total = burn_steps + budget * keep
    rho = _step_map(model, step)[0]
    # global index of the first kept state; the last one is total - 1
    first = burn_steps + keep - 1
    # (substream index, steps, chunk-local index of the first kept state)
    plans = [
        (start // _INVARIANT_CHUNK, min(_INVARIANT_CHUNK, total - start),
         first - start if start <= first else (first - start) % keep)
        for start in range(0, total, _INVARIANT_CHUNK)
    ]

    def from_zero(plan: tuple[int, int, int]) -> tuple[np.ndarray, float]:
        """Kept states and last state of one chunk, filtered from a zero start."""
        index, size, local = plan
        path = sample_increments(noise, step, size, substream(seed, _TAG_INVARIANT, index))
        _affine_paths(model, step, 0.0, path[None])
        # a copy, so the chunk is freed while its result waits in the pool
        return path[local::keep].copy(), float(path[-1])

    states = np.empty(budget)
    got = 0
    x = mean
    with ThreadPoolExecutor(_pool_size(len(plans))) as pool:
        for (_, size, local), (picked, last) in zip(plans, pool.map(from_zero, plans)):
            lag = local + 1.0 + keep * np.arange(picked.size)
            states[got : got + picked.size] = picked + rho**lag * x
            got += picked.size
            x = last + rho**size * x

    var = float(np.var(states))
    theory = sigma**2 * cumulants(noise, 2)[1] / (2.0 * rate)
    if abs(var / theory - 1.0) > 0.10:
        raise MixingError(
            f"invariant sample variance {var:.4g} vs theory {theory:.4g}: mixing suspect"
        )
    return InvariantSample(states, burn_in, spacing, seed, step)


def invariant_char(
    noise: LevyLaw,
    u: float | np.ndarray,
    rate: float = 0.5,
    sigma: float = 1.0,
    mean: float = 0.0,
    t_max: float = 80.0,
    step: float = 0.01,
) -> np.ndarray:
    """Characteristic function of pi_0 for the linear catalog model.

    p_hat(u) = exp(i u mean) * exp( int_0^inf psi(sigma e^{-rate s} u) ds ),
    truncated at ``t_max`` where the damped argument is negligible.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    s = np.arange(0.0, t_max + step, step)
    damp = sigma * np.exp(-rate * s)
    vals = char_exponent(noise, np.outer(damp, u_arr))
    integral = np.trapezoid(vals, dx=step, axis=0)
    out = np.exp(1j * u_arr * mean + integral)
    return out if np.ndim(u) else complex(out[0])


def _epe_rhs(
    model: ModelSpec, true_model: TrueModel, theta_star: tuple[float, float]
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Both score integrands (g_1, g_2) at the optimal parameter, in one pass.

    Scale families are multiplicative, c = gamma p(x) with dc/dgamma = p(x),
    and drifts are linear, a = alpha b(x) with da/dalpha = b(x), so
    g_1 = c'(c^2 - C^2)/c^3 = (c^2 - C^2)/(gamma c^2) and
    g_2 = b(A - a)/c^2 share one evaluation of the fitted scale.
    """
    alpha_s, gamma_s = theta_star
    drift, scale = model.drift, model.scale

    def g(x):
        x = np.asarray(x, dtype=float)
        c2 = (gamma_s * scale.profile(x)) ** 2
        g1 = (c2 - true_model.C(x) ** 2) / (gamma_s * c2)
        g2 = drift.basis(x) * (true_model.A(x) - drift.value(x, alpha_s)) / c2
        return g1, g2

    return g


@dataclass(frozen=True)
class EPEApprox:
    """Grid approximation of a Poisson-equation solution.

    Calling the object interpolates linearly on the grid and extrapolates
    linearly beyond it using the outermost grid slopes.  ``g_mean`` and
    ``g_se`` are the pi_0 mean of the right-hand side and its batch-means
    standard error, as gated by :func:`epe_solve`.
    """

    x: np.ndarray
    f: np.ndarray
    se: np.ndarray
    t_max: float
    m: int
    tail_bound: np.ndarray
    g_mean: float = math.nan
    g_se: float = math.nan

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        f = np.asarray(self.f, dtype=float)
        se = np.asarray(self.se, dtype=float)
        tb = np.asarray(self.tail_bound, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("grid needs at least two points")
        if not (np.diff(x) > 0).all():
            raise ValueError("grid must be strictly increasing")
        if x.shape != f.shape or x.shape != se.shape or x.shape != tb.shape:
            raise ValueError("grid, values, and errors must have equal shapes")
        if not (np.isfinite(f).all() and np.isfinite(se).all()):
            raise ValueError("f and se must be finite")
        for name, arr in (("x", x), ("f", f), ("se", se), ("tail_bound", tb)):
            object.__setattr__(self, name, arr)

    def __call__(self, xq) -> np.ndarray | float:
        q = np.asarray(xq, dtype=float)
        out = np.interp(q, self.x, self.f)
        lo = q < self.x[0]
        hi = q > self.x[-1]
        if lo.any():
            slope = (self.f[1] - self.f[0]) / (self.x[1] - self.x[0])
            out = np.where(lo, self.f[0] + slope * (q - self.x[0]), out)
        if hi.any():
            slope = (self.f[-1] - self.f[-2]) / (self.x[-1] - self.x[-2])
            out = np.where(hi, self.f[-1] + slope * (q - self.x[-1]), out)
        return float(out) if q.ndim == 0 else out


def _chunked_increments(
    noise: LevyLaw, step: float, steps: int, cols: int, seed: int, tag: int
) -> np.ndarray:
    """(steps, cols) increments generated in fixed 500-step substream chunks.

    Chunking makes the first ``k`` chunks identical whenever the horizon is
    extended, so runs at T and 2T share their common time range draw for
    draw and tail-bound comparisons see only the added stretch.
    """
    out = np.empty((steps, cols))
    for ci in range(0, steps, _CHUNK_STEPS):
        k = min(_CHUNK_STEPS, steps - ci)
        rng = substream(seed, tag, ci // _CHUNK_STEPS)
        out[ci : ci + k] = sample_increments(noise, step, (k, cols), rng)
    return out


def _as_tuple(values) -> tuple:
    return values if isinstance(values, tuple) else (values,)


def epe_solve(
    g: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    model: TrueModel,
    noise: LevyLaw,
    grid: np.ndarray | None = None,
    t_max: float = 40.0,
    m: int = 2000,
    seed: int = 0,
    inv: InvariantSample | None = None,
    step: float = 0.01,
) -> EPEApprox | tuple[EPEApprox, ...]:
    """Monte Carlo solution f(x) = int_0^t_max E^x[g(X_t)] dt on a grid.

    This is the Poisson-equation representation of Glynn & Meyn (1996,
    Ann. Probab.).  ``g`` maps states to values; a ``g`` that returns a
    tuple of arrays is solved for every right-hand side on the same paths
    and gets a tuple of :class:`EPEApprox` back, in the same order.

    Every right-hand side must average to zero under pi_0; the centering is
    gated at three batch-means standard errors against ``inv`` (sampled
    internally when not supplied), before any path is drawn, because a
    non-centered g makes the time integral diverge linearly.

    All grid points share one panel of ``m`` Euler paths (common random
    numbers).  The Euler recursion is the AR(1) of ``sde._step_map``,
    which is affine in its start: X^x_k = rho^k x + Y_k, where Y is the
    path started at zero.  ``sde._affine_paths`` filters the increment
    panel into Y in place, once for every grid point.  Each grid point's
    states are then formed and evaluated in time blocks of
    max(1, 2^16 // m) steps, keeping only the
    running time sum and the first and last rows of g, so no temporary
    larger than a block is built.  The time integral is the trapezoid rule
    on the simulation grid.  A state that is non-finite or beyond
    ``DIVERGENCE_BOUND`` raises :class:`DivergenceError`.

    The reported tail bound combines the conditional-mean remainder at
    ``t_max``, discounted at the known mixing rate, with a 3-sigma allowance
    for the Monte Carlo fluctuation of everything beyond the horizon.
    """
    if t_max <= 0 or m < 30 or step <= 0:
        raise ValueError("need t_max > 0, m >= 30, step > 0")
    rate = _linear_ou_form(model)[0]
    if inv is None:
        inv = sample_invariant(model, noise, seed=seed)
    raw = g(inv.states)
    centering = []
    for i, gvals in enumerate(_as_tuple(raw)):
        gvals = np.asarray(gvals, dtype=float)
        gbar = float(np.mean(gvals))
        gse = batch_means_se(gvals)
        if abs(gbar) > 3.0 * gse:
            name = "g" if not isinstance(raw, tuple) else f"g[{i}]"
            raise NotCenteredError(
                f"mean of {name} under pi_0 is {gbar:.4g} ({gse:.4g} se): not centered"
            )
        centering.append((gbar, gse))
    if grid is None:
        grid = np.quantile(inv.states, np.linspace(0.01, 0.99, 25))
    grid = np.unique(np.asarray(grid, dtype=float))
    if grid.size < 2:
        raise ValueError("grid collapsed to fewer than two points")

    steps = int(round(t_max / step))
    y = _chunked_increments(noise, step, steps, m, seed, _TAG_EPE)
    _affine_paths(model, step, 0.0, y.T)  # now y[k - 1] = Y_k
    decay = _step_map(model, step)[0] ** np.arange(1, steps + 1)
    # fl(a + y) is monotone in y, so each row's extreme states are the
    # shifted extremes of y: the divergence gate costs O(steps) per start
    y_lo, y_hi = y.min(axis=1), y.max(axis=1)
    block = max(1, _BLOCK_CELLS // m)

    stats = np.empty((len(centering), 3, grid.size))  # (f, se, tail bound) per g
    for i, x0 in enumerate(grid):
        shift = decay * x0
        if not abs(x0) <= DIVERGENCE_BOUND:
            raise DivergenceError(0)
        bad = ~((shift + y_hi <= DIVERGENCE_BOUND) & (shift + y_lo >= -DIVERGENCE_BOUND))
        if bad.any():
            raise DivergenceError(int(np.argmax(bad)) + 1)
        first = [np.asarray(v, dtype=float) for v in _as_tuple(g(np.full(m, x0)))]
        sums = [v.copy() for v in first]
        last = first
        for k0 in range(0, steps, block):
            gx = _as_tuple(g(shift[k0 : k0 + block, None] + y[k0 : k0 + block]))
            last = []
            for acc, v in zip(sums, gx):
                v = np.asarray(v, dtype=float)
                acc += v.sum(axis=0)
                last.append(v[-1])
        for j, (acc, g_start, g_end) in enumerate(zip(sums, first, last)):
            total = step * (acc - 0.5 * (g_start + g_end))
            m_end = float(np.mean(g_end))
            se_end = batch_means_se(g_end)
            fluct = 3.0 * math.sqrt(2.0 * t_max * float(np.var(g_end)) / (rate * m))
            bound = (abs(m_end) + 3.0 * se_end) / rate + fluct
            stats[j, :, i] = float(np.mean(total)), batch_means_se(total), bound

    out = tuple(
        EPEApprox(grid, f, se, t_max, m, tail, gbar, gse)
        for (f, se, tail), (gbar, gse) in zip(stats, centering)
    )
    return out if isinstance(raw, tuple) else out[0]


@dataclass(frozen=True)
class MartingaleReport:
    """E[M_{s} - M_0] panel for M_t = f(X_t) + int_0^t g(X_u) du."""

    starts: np.ndarray
    lags: np.ndarray
    means: np.ndarray
    ses: np.ndarray

    @property
    def zscores(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(self.means) / self.ses
        return np.where(self.ses > 0, z, np.where(self.means == 0.0, 0.0, np.inf))

    @property
    def max_abs_z(self) -> float:
        return float(np.max(self.zscores))

    def to_obj(self) -> dict:
        return {
            "starts": self.starts.tolist(),
            "lags": self.lags.tolist(),
            "means": self.means.tolist(),
            "ses": self.ses.tolist(),
            "max_abs_z": self.max_abs_z,
        }


def martingale_check(
    f: EPEApprox | Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    model: TrueModel,
    noise: LevyLaw,
    horizon: float = 2.0,
    reps: int = 4000,
    seed: int = 0,
    starts: tuple[float, ...] = (-1.5, 0.0, 1.5),
    step: float = 0.01,
) -> MartingaleReport:
    """Estimate the martingale-increment means over a (start, lag) panel."""
    if horizon <= 0 or reps < 30:
        raise ValueError("need horizon > 0 and reps >= 30")
    steps = int(round(horizon / step))
    lag_idx = sorted({max(1, steps // 4), max(1, steps // 2), steps})
    z = _chunked_increments(noise, step, steps, reps, seed, _TAG_MARTINGALE).T
    values = np.empty((reps, steps + 1))
    means = np.empty((len(starts), len(lag_idx)))
    ses = np.empty_like(means)
    for i, x0 in enumerate(starts):
        values[:, 0] = x0
        values[:, 1:] = z
        first_bad = _affine_paths(model, step, x0, values[:, 1:])
        if (first_bad >= 0).any():
            raise DivergenceError(int(first_bad[first_bad >= 0][0]))
        gx = np.asarray(g(values), dtype=float)
        cum = cumulative_trapezoid(gx, dx=step, axis=1, initial=0.0)
        f0 = float(np.asarray(f(np.float64(x0))))
        for j, k in enumerate(lag_idx):
            d = np.asarray(f(values[:, k]), dtype=float) + cum[:, k] - f0
            means[i, j] = float(np.mean(d))
            ses[i, j] = batch_means_se(d)
    return MartingaleReport(
        np.asarray(starts, dtype=float),
        step * np.asarray(lag_idx, dtype=float),
        means,
        ses,
    )


def _gamma_terms(
    model: ModelSpec,
    true_model: TrueModel,
    theta_star: tuple[float, float],
    states: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state integrands of (Gamma_gamma, Gamma_alpha, Gamma_alphagamma).

    These are the stage-criterion curvatures under pi_0, whose states enter
    with increment moments (A, C^2) on a unit step: Gamma_gamma is the
    stage-one curvature, Gamma_alpha and Gamma_alphagamma are the negated
    stage-two ones.  They are evaluated on blocks of ``_BLOCK_CELLS`` states,
    elementwise and so bitwise equal to one call on all states, and returned
    as the rows of one (3, n) array.
    """
    alpha_s, gamma_s = theta_star
    out = np.empty((3, states.size))
    for b0 in range(0, states.size, _BLOCK_CELLS):
        x = states[b0 : b0 + _BLOCK_CELLS]
        (_, _, gg), (_, _, ga, gag) = _criterion_terms(
            model, x, true_model.A(x), true_model.C(x) ** 2, 1.0, gamma_s, alpha_s
        )
        block = out[:, b0 : b0 + x.size]
        block[0], block[1], block[2] = gg, -ga, -gag
    return out[0], out[1], out[2]


def _check_invertible(g: np.ndarray) -> None:
    if not np.isfinite(g).all() or np.linalg.cond(g) > _COND_LIMIT:
        raise SingularGammaError(f"Gamma is numerically singular: {g.tolist()}")


def _assemble_gamma(terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    gg, ga, gag = terms
    g = np.array([[float(np.mean(gg)), 0.0], [float(np.mean(gag)), float(np.mean(ga))]])
    _check_invertible(g)
    return g


def gamma_matrix(
    model: ModelSpec,
    true_model: TrueModel,
    theta_star: tuple[float, float],
    inv: InvariantSample,
) -> np.ndarray:
    """Empirical pi_0-average of the curvature integrands, (gamma, alpha) order.

    ``theta_star`` is (alpha, gamma).  The matrix is lower triangular: the
    scale stage does not involve alpha, so the upper-right entry is zero.
    """
    return _assemble_gamma(_gamma_terms(model, true_model, theta_star, inv.states))


def _sigma_terms(
    model: ModelSpec,
    true_model: TrueModel,
    theta_star: tuple[float, float],
    states: np.ndarray,
    f1: Callable,
    f2: Callable,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state inner jump integrals (S_gamma, S_alpha, S_cross)."""
    alpha_s, gamma_s = theta_star
    n = states.size
    s_g = np.empty(n)
    s_a = np.empty(n)
    s_x = np.empty(n)
    z = nodes[None, :]
    for i in range(0, n, _SIGMA_CHUNK):
        x = states[i : i + _SIGMA_CHUNK, None]
        c = model.scale.value(x, gamma_s)
        big_c = true_model.C(x)
        w_g = model.scale.profile(x) * big_c**2 / c**3
        w_a = model.drift.basis(x) * big_c / c**2
        xz = x + big_c * z
        v1 = w_g * z**2 + f1(xz) - f1(x)
        v2 = w_a * z + f2(xz) - f2(x)
        s_g[i : i + _SIGMA_CHUNK] = (v1 * v1) @ weights
        s_a[i : i + _SIGMA_CHUNK] = (v2 * v2) @ weights
        s_x[i : i + _SIGMA_CHUNK] = (v1 * v2) @ weights
    return s_g, s_a, s_x


def _assemble_sigma(terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    s_g, s_a, s_x = terms
    off = -4.0 * float(np.mean(s_x))
    return np.array([[4.0 * float(np.mean(s_g)), off], [off, 4.0 * float(np.mean(s_a))]])


def _sigma_full(
    model: ModelSpec,
    true_model: TrueModel,
    theta_star: tuple[float, float],
    inv: InvariantSample,
    f1: Callable,
    f2: Callable,
    noise: LevyLaw,
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, entrywise standard errors) with a half-step quadrature gate."""
    states = inv.states
    if states.size > _SIGMA_STATES:
        stride = states.size // _SIGMA_STATES
        states = states[::stride][:_SIGMA_STATES]
    z, w, qstep = _converged_nodes(noise, _SIGMA_REL_TOL)
    coarse = _assemble_sigma(_sigma_terms(model, true_model, theta_star, states, f1, f2, z, w))
    z2, w2 = _nodes_at(noise, qstep / 2.0)
    fine_terms = _sigma_terms(model, true_model, theta_star, states, f1, f2, z2, w2)
    sigma = _assemble_sigma(fine_terms)
    drift_err = float(np.max(np.abs(sigma - coarse)))
    if drift_err > 1e-3 * max(1.0, float(np.max(np.abs(sigma)))):
        raise QuadratureError(f"jump quadrature unstable for Sigma: delta {drift_err:.3g}")
    eig = np.linalg.eigvalsh(sigma)
    if eig.min() < -1e-6:
        raise CovarianceError(f"Sigma has negative eigenvalue {eig.min():.3g}")
    se_g, se_a, se_x = (4.0 * batch_means_se(t) for t in fine_terms)
    ses = np.array([[se_g, se_x], [se_x, se_a]])
    return sigma, ses


def avar(gamma: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """V = Gamma^{-1} Sigma Gamma^{-T}, symmetrized and PSD-gated."""
    g = np.asarray(gamma, dtype=float)
    s = np.asarray(sigma, dtype=float)
    _check_invertible(g)
    gi = np.linalg.inv(g)
    v = gi @ s @ gi.T
    v = 0.5 * (v + v.T)
    eig = np.linalg.eigvalsh(v)
    if eig.min() < -1e-10:
        raise CovarianceError(f"V has negative eigenvalue {eig.min():.3g}")
    return v


@dataclass(frozen=True)
class AsymptoticsResult:
    """Gamma, Sigma, V with diagnostics and the EPE solutions used."""

    gamma: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    gamma_se: np.ndarray
    sigma_se: np.ndarray
    f1: EPEApprox
    f2: EPEApprox
    diagnostics: dict

    def to_obj(self) -> dict:
        return {
            "Gamma": self.gamma.tolist(),
            "Sigma": self.sigma.tolist(),
            "V": self.v.tolist(),
            "diagnostics": self.diagnostics,
        }


def run_asymptotics(
    model: ModelSpec,
    true_model: TrueModel,
    noise: LevyLaw,
    theta_star: tuple[float, float],
    seed: int = 0,
    budget: int = 20000,
    t_max: float = 40.0,
    m: int = 2000,
    grid_points: int = 25,
    step: float = 0.01,
) -> AsymptoticsResult:
    """Full pipeline: pi_0 sample, EPE solves, Gamma, Sigma, V.

    The EPE grid is the pi_0 quantile grid extended sideways by the jump
    reach 8 / (slowest nu_0 tail rate), so that x + C(x) z stays on the grid
    for all jumps the quadrature weights non-negligibly.
    """
    if isinstance(noise, Brownian):
        raise ValueError("asymptotics pipeline needs a pure-jump noise")
    inv = sample_invariant(true_model, noise, budget=budget, seed=seed, step=step)
    base = np.quantile(inv.states, np.linspace(0.01, 0.99, grid_points))
    reach = 8.0 / min(_tail_rates(noise))
    left = np.linspace(base[0] - reach, base[0], 5)[:-1]
    right = np.linspace(base[-1], base[-1] + reach, 5)[1:]
    grid = np.concatenate([left, base, right])

    f1, f2 = epe_solve(
        _epe_rhs(model, true_model, theta_star), true_model, noise, grid, t_max, m, seed, inv, step
    )

    gg, ga, gag = terms = _gamma_terms(model, true_model, theta_star, inv.states)
    gamma = _assemble_gamma(terms)
    gamma_se = np.array(
        [[batch_means_se(gg), 0.0], [batch_means_se(gag), batch_means_se(ga)]]
    )
    sigma, sigma_se = _sigma_full(model, true_model, theta_star, inv, f1, f2, noise)
    v = avar(gamma, sigma)

    diagnostics = {
        "seed": seed,
        "invariant": {
            "size": int(inv.states.size),
            "mean": float(np.mean(inv.states)),
            "var": float(np.var(inv.states)),
            "burn_in": inv.burn_in,
            "spacing": inv.spacing,
            "step": inv.step,
        },
        "centering": {
            "g1_mean": f1.g_mean,
            "g1_se": f1.g_se,
            "g2_mean": f2.g_mean,
            "g2_se": f2.g_se,
        },
        "epe": {
            "t_max": t_max,
            "m": m,
            "grid_points": int(grid.size),
            "max_tail_bound_f1": float(np.max(f1.tail_bound)),
            "max_tail_bound_f2": float(np.max(f2.tail_bound)),
            "max_se_f1": float(np.max(f1.se)),
            "max_se_f2": float(np.max(f2.se)),
        },
        "gamma_condition": float(np.linalg.cond(gamma)),
        "gamma_se": gamma_se.tolist(),
        "sigma_se": sigma_se.tolist(),
    }
    return AsymptoticsResult(gamma, sigma, v, gamma_se, sigma_se, f1, f2, diagnostics)
