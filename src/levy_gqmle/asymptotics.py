"""Invariant sampling, pseudo-true values, Poisson solutions, limit matrices.

The staged estimator is asymptotically normal with covariance
V = Gamma^{-1} Sigma Gamma^{-T}.  Gamma collects curvature of the limiting
criteria at the optimal parameter; Sigma is the jump-driven variance of the
scores and involves the solutions f_1, f_2 of extended Poisson equations.
The optimal parameter is exact (``pseudo_true``); the rest is realized
numerically: the invariant law pi_0 by one long thinned path, f_1/f_2 by
Monte Carlo time integrals of the conditional expectation, the jump measure
nu_0 by deterministic quadrature.

Everything here assumes an ergodic true model, the Levy OU of
``sde.TrueModel`` with rate > 0.  That keeps the mixing rate explicit,
which the tail bounds and the thinning defaults rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _BLOCK_CELLS, NumericalError, _batch_layout, _integer, batch_means_se
from .coefficients import _horner
from .gqmle import ModelSpec
from .levy import (
    Brownian,
    LevyLaw,
    QuadratureError,
    _converged_nodes,
    _nodes_at,
    _tail_rates,
    cumulants,
)
from .sde import (
    DIVERGENCE_BOUND,
    DivergenceError,
    TrueModel,
    _chunked_paths,
    _step_map,
)

__all__ = [
    "AsymptoticsResult",
    "CovarianceError",
    "EPEApprox",
    "InvariantSample",
    "MixingError",
    "NotCenteredError",
    "SingularGammaError",
    "avar",
    "epe_solve",
    "gamma_matrix",
    "pseudo_true",
    "run_asymptotics",
    "sample_invariant",
]

_COND_LIMIT = 1e12
# substream tags so the invariant path and the EPE paths never share draws
# even under one seed
_TAG_INVARIANT = 3101
_TAG_EPE = 7001
_CHUNK_STEPS = 500
# steps per invariant-path chunk
_INVARIANT_CHUNK = 2_000_000
# time units the invariant path discards, then between kept states
_BURN_IN = 50.0
_SPACING = 1.0
# pi_0 quantiles of the EPE grid: epe_solve's default grid, and
# run_asymptotics' before its sideways extension.  The grid only says where
# f is reported: one pass over the paths serves every point
_GRID_POINTS = 25
# Sigma averages over at most this many pi_0 states.  Of n > 4000 it takes
# states[::n // 4000][:4000], not an even thinning of all n: at n = 6000 the
# first 4000 states in a row, at n = 10000 every second of the first 8000
_SIGMA_STATES = 4000


class MixingError(NumericalError):
    """Invariant sample failed the variance sanity gate."""


class NotCenteredError(NumericalError):
    """EPE right-hand side is not centered under pi_0."""


class SingularGammaError(NumericalError):
    """Gamma is numerically singular."""


class CovarianceError(NumericalError):
    """Sigma or V fails the positive-semidefiniteness tolerance."""


def _linear_ou_form(model: TrueModel) -> tuple[float, float, float]:
    """(rate, stationary mean, sigma) of an ergodic true model."""
    if not model.rate > 0.0:
        raise ValueError(f"need a linear mean-reverting true drift: rate must be positive, got {model.rate}")
    return model.rate, model.level / model.rate, model.sigma


def _invariant_cumulants(true_model: TrueModel, noise: LevyLaw) -> tuple[float, float, float, float]:
    """pi_0's first four cumulants: the mean + sigma kappa_1 / rate, then
    sigma^j kappa_j / (j rate) for j = 2, 3, 4 (Barndorff-Nielsen & Shephard
    2001, JRSS B 63(2)), with kappa_j those of the driving law.  Cumulants
    that overflow are refused with :class:`NumericalError`."""
    rate, mean, sigma = _linear_ou_form(true_model)
    k = cumulants(noise, 4)
    try:
        kappa = (mean + sigma * k[0] / rate, *(sigma**j * k[j - 1] / (j * rate) for j in (2, 3, 4)))
    except OverflowError:
        kappa = (math.inf,)
    if not all(map(math.isfinite, kappa)):
        raise NumericalError(f"pi_0's cumulants overflow at sigma={sigma!r}, rate={rate!r}, mean={mean!r}")
    return kappa


@dataclass(frozen=True)
class InvariantSample:
    """States approximately distributed as pi_0, with sampling provenance."""

    states: np.ndarray
    seed: int
    step: float

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 1 or states.size < 1000:
            raise ValueError("invariant sample needs at least 1000 states")
        if not np.isfinite(states).all():
            raise ValueError("invariant sample contains non-finite states")
        object.__setattr__(self, "states", states)


def sample_invariant(
    model: TrueModel,
    noise: LevyLaw,
    budget: int = 20000,
    seed: int = 0,
    step: float = 0.01,
) -> InvariantSample:
    """Draw ``budget`` states from one long thinned Euler path.

    The path starts at the stationary mean and keeps one state every
    ``_SPACING`` (1) time unit, rounded to ``keep`` whole steps; the first
    ``_BURN_IN`` / ``_SPACING`` (50) kept states are discarded as burn-in.
    ``sde._chunked_paths`` draws it in chunks of ``_INVARIANT_CHUNK`` // keep
    spacings (``_INVARIANT_CHUNK`` steps whenever keep divides it) from the
    substreams (seed, 3101, chunk), a worker holding about 16 MB of live
    arrays, and its kept states fill one preallocated array.  The result
    does not depend on the number of workers.

    pi_0's variance (``_invariant_cumulants``) must be positive, which a
    zero or underflowing sigma is not (``ValueError`` before anything is
    drawn).  The sample variance must land within 10% of it; a larger
    mismatch means the chain did not mix at this step size and raises
    :class:`MixingError`.  That variance is ``_pi0_var``'s, np.var's up to
    rounding with no temporary the size of the states, and the one
    ``run_asymptotics`` reports.  ``budget`` must be integral; a float such
    as 2000.0 runs as its integer.
    """
    budget = _integer(budget, "budget")
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000, got {budget}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    rate, mean, sigma = _linear_ou_form(model)
    if rate * step >= 1.0:
        raise ValueError("step too coarse: rate*step must be < 1")
    theory = _invariant_cumulants(model, noise)[1]
    if not theory > 0.0:
        raise ValueError(f"sigma must give pi_0 a positive variance; got sigma={sigma}, variance {theory}")

    keep = max(1, int(round(_SPACING / step)))
    burn = int(round(_BURN_IN / _SPACING))
    states = np.empty(burn + budget)
    got = 0
    for block in _chunked_paths(model, noise, step, burn + budget, 1, mean, max(1, _INVARIANT_CHUNK // keep), seed,
                                _TAG_INVARIANT, keep):
        states[got : got + block.shape[0]] = block[:, 0]
        got += block.shape[0]
    states = states[burn:]

    var = _pi0_var(states)
    if abs(var / theory - 1.0) > 0.10:
        raise MixingError(
            f"invariant sample variance {var:.4g} vs theory {theory:.4g}: mixing suspect"
        )
    return InvariantSample(states, seed, step)


def _poly_form(model: ModelSpec) -> tuple[float, np.ndarray, np.ndarray]:
    """(x_c, b, q): the drift basis b and q = 1/p(x)^2, with p the scale
    profile, as coefficients in powers of t = x - x_c, constant first.

    This is the one place here that reads the fitted families, from their
    ``basis_coef`` (degree <= 1) and ``q_coef``.  x_c is the
    basis's root (0 if it has none), so b(x_c) = 0 is b's constant term.
    Both are re-expanded about x_c by the binomial theorem.
    """
    b, q = getattr(model.drift, "basis_coef", ()), getattr(model.scale, "q_coef", ())
    if not 1 <= len(b) <= 2:
        raise ValueError(f"need a catalog drift family, got {model.drift!r}")
    if not q:
        raise ValueError(f"need a catalog scale family, got {model.scale!r}")
    center = -b[0] / b[1] if len(b) == 2 and b[1] != 0.0 else 0.0
    shifted = ([sum(math.comb(k, i) * c[k] * center ** (k - i) for k in range(i, len(c))) for i in range(len(c))]
               for c in (b, q))
    return center, *map(np.array, shifted)


def pseudo_true(model: ModelSpec, true_model: TrueModel, noise: LevyLaw) -> tuple[float, float]:
    """The optimal values (alpha*, gamma*) that maximize the limit stage
    criteria, exactly for every catalog pair, each clipped to its box.

    Under pi_0 the criteria take increment moments (level - rate x, sigma^2)
    on a unit step, so gamma*^2 = sigma^2 E[q] and
    alpha* = E[(level - rate X) b q] / E[b^2 q]: polynomials in t = X - x_c
    (``_poly_form``) whose means need the moments E[t^j], j <= 4, of
    ``_invariant_cumulants``.  A true drift that does not revert (rate <= 0)
    is refused with ``ValueError``, and so is an alpha* that pi_0 does not
    identify, E[b^2 q] = 0 (a zero-sigma truth at b's root).
    """
    kappa = _invariant_cumulants(true_model, noise)
    rate, level, sigma = true_model.rate, true_model.level, true_model.sigma
    center, b, q = _poly_form(model)
    kappa = (kappa[0] - center, *kappa[1:])
    moments = [1.0]
    for n in range(1, 5):
        moments.append(sum(math.comb(n - 1, j - 1) * kappa[j - 1] * moments[n - j] for j in range(1, n + 1)))
    poly = np.polynomial.polynomial
    bq = poly.polymul(b, q)
    num, den, mean_q = (
        sum(c * moments[i] for i, c in enumerate(coef))
        for coef in (poly.polymul([level - rate * center, -rate], bq), poly.polymul(b, bq), q)
    )
    if not den > 0.0:
        raise ValueError(f"alpha* is not identified: E[b^2 q] = {den} under pi_0 for {model!r} and {true_model!r}")
    gamma = math.sqrt(sigma**2 * mean_q)
    return float(np.clip(num / den, *model.alpha_box)), float(np.clip(gamma, *model.gamma_box))


@dataclass(frozen=True, eq=False)
class _PolyRHS:
    """Integrands that are polynomials in the state: row i of ``coef``
    holds one integrand's coefficients in powers of t = x - ``center``,
    constant first, zero-padded to one common degree d = coef.shape[1] - 1.

    This is the one input type of ``epe_solve``, which sums it along each
    path from the path's mixed power sums, and of ``_pi0_stats``, which
    averages it over pi_0.  Calling it evaluates each row by
    ``coefficients._horner`` and returns the rows' values as a tuple.
    """

    coef: np.ndarray
    center: float

    def __call__(self, x) -> tuple[np.ndarray, ...]:
        t = np.asarray(x, dtype=float) - self.center
        return tuple(_horner(row, t) for row in self.coef)


def _integrands(model: ModelSpec, true_model: TrueModel, theta_star: tuple[float, float]) -> tuple[_PolyRHS, ...]:
    """Every pi_0 integrand at the optimal parameter, as polynomials.

    Under pi_0 a state x enters the criteria with increment moments
    (A, C^2) = (level - rate x, sigma^2) on a unit step.  With a = alpha b
    and c^2 = gamma^2 / q (``_poly_form``), each integrand is a polynomial,
    and each group below is one ``_PolyRHS`` about b's root x_c:
    - the scores, ``epe_solve``'s right-hand sides: g_1 = (c^2 - C^2) /
      (gamma c^2) = (gamma^2 - sigma^2 q) / gamma^3 and g_2 = b (A - a) / c^2;
    - the curvatures Gamma_gamma = 2 / gamma^2 - 6 sigma^2 q / gamma^4 of
      stage one, and the negated stage-two Gamma_alpha = 2 b^2 q / gamma^2
      and Gamma_alphagamma = 4 g_2 / gamma;
    - Sigma's jump weights w_g = p C^2 / c^3 = sigma^2 q / gamma^3 and
      w_a = b C / c^2 = sigma b q / gamma^2.
    g_2 has no constant term, so it keeps b's relative accuracy next to
    x_c, and a correct constant scale (q = 1, gamma = sigma) gives g_1 = 0
    exactly.
    """
    alpha_s, gamma_s = theta_star
    rate, level, sigma = true_model.rate, true_model.level, true_model.sigma
    center, b, q = _poly_form(model)
    poly = np.polynomial.polynomial
    g1 = -(sigma**2) * q / gamma_s**3
    g1[0] = (gamma_s**2 - sigma**2 * q[0]) / gamma_s**3
    residual = poly.polysub([level - rate * center, -rate], alpha_s * b)
    g2 = poly.polymul(poly.polymul(b, residual), q) / gamma_s**2
    curv = -6.0 * sigma**2 * q / gamma_s**4
    curv[0] += 2.0 / gamma_s**2
    bq = poly.polymul(b, q)
    groups = (
        (g1, g2),
        (curv, 2.0 * poly.polymul(b, bq) / gamma_s**2, 4.0 * g2 / gamma_s),
        (sigma**2 * q / gamma_s**3, sigma * bq / gamma_s**2),
    )
    return tuple(
        _PolyRHS(np.array([np.pad(p, (0, max(map(len, polys)) - len(p))) for p in polys]), center) for polys in groups
    )


@dataclass(frozen=True)
class EPEApprox:
    """Grid approximation of a Poisson-equation solution.

    ``_segments`` gives its linear pieces: linear interpolation on the grid,
    extended beyond it with the outermost grid slopes.  ``g_mean`` and
    ``g_se`` are the pi_0 mean of the right-hand side and its batch-means
    standard error, as gated by :func:`epe_solve`.
    """

    x: np.ndarray
    f: np.ndarray
    se: np.ndarray
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

    def _segments(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(intercepts, slopes, index) of the grid.size - 1 linear pieces:
        piece j is intercepts[j] + slopes[j] y on [x[j], x[j + 1]), the two
        outer pieces extended to -inf and +inf, and q[i] lies on piece
        index[i]."""
        slopes = np.diff(self.f) / np.diff(self.x)
        index = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, self.x.size - 2)
        return self.f[:-1] - slopes * self.x[:-1], slopes, index


def _weighted_sum(weights: np.ndarray, arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_j weights[j] arrays[j], elementwise in j order: no BLAS, so the
    bits do not depend on threads or array sizes."""
    acc = weights[0] * arrays[0]
    for w, a in zip(weights[1:], arrays[1:]):
        acc += w * a
    return acc


def _check_epe_args(t_max: float, step: float, m: int) -> int:
    """Refuse an EPE horizon, step or path count before anything is sampled;
    return the path count as an ``int`` (2000.0 runs as 2000)."""
    m = _integer(m, "m")
    if not (0 < t_max < math.inf and 0 < step < math.inf) or round(t_max / step) < 1 or m < 30:
        raise ValueError(
            f"need finite t_max of at least one finite step > 0 and m >= 30; got {t_max}, {step}, {m}"
        )
    return m


def epe_solve(
    g: _PolyRHS,
    model: TrueModel,
    noise: LevyLaw,
    inv: InvariantSample,
    grid: np.ndarray | None = None,
    t_max: float = 40.0,
    m: int = 2000,
    seed: int = 0,
) -> tuple[EPEApprox, ...]:
    """Monte Carlo solution f(x) = int_0^t_max E^x[g(X_t)] dt on a grid.

    This is the Poisson-equation representation of Glynn & Meyn (1996,
    Ann. Probab.).  ``g`` is a ``_PolyRHS`` of degree d, as the first group
    of ``_integrands``; any other ``g`` is refused with ``TypeError`` before
    anything is drawn.  Every row of ``g.coef`` is solved on the same paths
    and gets its own :class:`EPEApprox`, returned as a tuple in row order.

    Every row must average to zero under pi_0; the centering is gated at
    three batch-means standard errors against the pi_0 sample ``inv``,
    before any path is drawn, because a non-centered g makes the time
    integral diverge linearly.  ``_pi0_stats`` takes each row's mean and
    error one batch of states at a time, so g is never held on all
    states.  The paths take ``inv.step``, the step of the chain ``inv``
    came from.  ``t_max`` and that step must be finite, ``t_max`` must
    round to at least one step, and ``m`` must be an integer of at least
    30 (``_check_epe_args``, which ``run_asymptotics`` also calls before
    it samples pi_0), and every grid point must be finite; each is refused
    with ``ValueError`` before any path is drawn.

    All starts share one panel of ``m`` Euler paths (common random
    numbers).  The Euler recursion is the AR(1) of ``sde._step_map``, which
    is affine in its start: X^x_k = rho^k x + Y_k, where Y is the path
    started at zero.  ``sde._chunked_paths`` yields Y in chunks of
    ``_CHUNK_STEPS`` (500) steps from the substreams (seed, 7001, chunk),
    so runs at t_max and 2 t_max share their common time range draw for
    draw.  Each chunk is consumed as it arrives: its per-step extremes, its
    power sums (below) and, from the last, the paths' end states.  The core
    pool draws at most one chunk per worker ahead of the one being summed,
    so the chunks alive at once do not grow with ``t_max``.  A state
    that is non-finite or beyond ``DIVERGENCE_BOUND`` raises
    :class:`DivergenceError`; after the last chunk every grid point is
    gated, in grid order, before any is solved.

    Since g is a polynomial of degree <= d, so is each path's sum
    sum_k g(X^x_k) in the start x (polynomial-preserving generators;
    Cuchiero, Keller-Ressel & Teichmann 2012, Finance Stoch.).  With
    t = X - center, s = x - center and u_k = Y_k + center (rho^k - 1), so
    that t_k = rho^k s + u_k and u_0 = 0, the binomial theorem gives
    sum_{k=0..N} t_k^p = sum_i C(p, i) s^i S[i, p - i] with the per-path
    mixed sums S[i, j] = sum_k rho^{ik} u_k^j; S[i, 0] = 1 + sum_{k>=1}
    rho^{ik} is a scalar, the 1 counting X_0.  The calling thread adds
    each chunk's partial S[i, j], j >= 1 and i + j <= d, in chunk order
    while the workers draw later chunks; u is formed in time blocks of
    max(1, 2^16 // m) steps, so no temporary outgrows a block, and each sum
    is taken elementwise with no BLAS.  A grid point's row sums are the
    S[i, j] weighted by coef[i + j] C(i + j, i) s^i, added in a fixed order
    with no BLAS; g is evaluated once at the point itself, the paths'
    common start, and at each path's end state.  The time integral is the
    trapezoid rule on the simulation grid, and the sums match an Euler run
    from each grid point up to rounding (about 1e-15 relative).  The
    result does not depend on the number of workers.

    The reported tail bound combines the conditional-mean remainder at
    ``t_max``, discounted at the known mixing rate, with a 3-sigma allowance
    for the Monte Carlo fluctuation of everything beyond the horizon.
    """
    if not isinstance(g, _PolyRHS):
        raise TypeError(f"g must be a _PolyRHS, as built by _integrands; got {type(g).__name__}")
    step = inv.step
    m = _check_epe_args(t_max, step, m)
    rate = _linear_ou_form(model)[0]
    means, ses = _pi0_stats(g, inv.states)
    centering = list(zip(means.tolist(), ses.tolist()))
    for i, (gbar, gse) in enumerate(centering):
        if abs(gbar) > 3.0 * gse:
            raise NotCenteredError(f"mean of g[{i}] under pi_0 is {gbar:.4g} ({gse:.4g} se): not centered")
    if grid is None:
        grid = np.quantile(inv.states, np.linspace(0.01, 0.99, _GRID_POINTS))
    grid = np.unique(np.asarray(grid, dtype=float))
    if not np.isfinite(grid).all():
        raise ValueError(f"grid points must be finite; got {grid.tolist()}")
    if grid.size < 2:
        raise ValueError("grid collapsed to fewer than two points")

    steps = int(round(t_max / step))
    decay = _step_map(model, step)[0] ** np.arange(1, steps + 1)
    k = g.coef.shape[1]
    # row i holds rho^{ik}, k = 1..steps
    powers = decay ** np.arange(k)[:, None]
    block = max(1, _BLOCK_CELLS // m)
    y_lo, y_hi = np.empty(steps), np.empty(steps)
    sums = np.zeros((k, k, m))
    end = 0
    # y[k - c0 - 1] = Y_k, the paths from zero, for the chunk's steps k
    for y in _chunked_paths(model, noise, step, steps, m, 0.0, _CHUNK_STEPS, seed, _TAG_EPE):
        c0, end = end, end + y.shape[0]
        y_lo[c0:end], y_hi[c0:end] = y.min(axis=1), y.max(axis=1)
        # this chunk's S[i, j] = sum_k rho^{ik} u_k^j, j >= 1, per path
        part = np.zeros((k, k, m))
        for k0 in range(c0, end, block):
            k1 = min(k0 + block, end)
            u = y[k0 - c0 : k1 - c0] + g.center * (decay[k0:k1, None] - 1.0)
            uj = np.ones_like(u)
            for j in range(1, k):
                uj *= u
                part[0, j] += uj.sum(axis=0)
                for i in range(1, k - j):
                    part[i, j] += (powers[i, k0:k1, None] * uj).sum(axis=0)
        sums += part

    # fl(a + y) is monotone in y, so each row's extreme states are the
    # shifted extremes of y: the divergence gate costs O(steps) per start
    for x0 in grid:
        if not abs(x0) <= DIVERGENCE_BOUND:
            raise DivergenceError(0)
        shift = decay * x0
        bad = ~((shift + y_hi <= DIVERGENCE_BOUND) & (shift + y_lo >= -DIVERGENCE_BOUND))
        if bad.any():
            raise DivergenceError(int(np.argmax(bad)) + 1)

    def column(acc: np.ndarray, g_start: float, g_end: np.ndarray) -> tuple[float, float, float]:
        """(f, se, tail bound) at one start from a path sum and g at the path's ends."""
        total = step * (acc - 0.5 * (g_start + g_end))
        m_end = float(np.mean(g_end))
        se_end = batch_means_se(g_end)
        fluct = 3.0 * math.sqrt(2.0 * t_max * float(np.var(g_end)) / (rate * m))
        bound = (abs(m_end) + 3.0 * se_end) / rate + fluct
        return float(np.mean(total)), batch_means_se(total), bound

    # S[i, 0] = 1 + sum_k rho^{ik}: the 1 counts X_0, where u_0 = 0
    sums[:, 0] = 1.0 + powers.sum(axis=1)[:, None]
    pairs = [(i, j) for i in range(k) for j in range(k - i)]
    terms = tuple(sums[i, j] for i, j in pairs)
    columns = []
    for x0 in grid:
        s = x0 - g.center
        scale = np.array([math.comb(i + j, i) * s**i for i, j in pairs])
        weights = g.coef[:, [i + j for i, j in pairs]] * scale
        rows = [_weighted_sum(w, terms) for w in weights]
        columns.append([column(*ends) for ends in zip(rows, g(x0), g(decay[-1] * x0 + y[-1]))])
    # (f, se, tail bound) per g, each of shape (grid.size,)
    stats = np.moveaxis(np.array(columns), 0, -1)
    return tuple(
        EPEApprox(grid, f, se, tail, gbar, gse)
        for (f, se, tail), (gbar, gse) in zip(stats, centering)
    )


def _pi0_stats(rows: _PolyRHS, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, ses) of each row of ``rows`` over the pi_0 ``states``.

    The rows are evaluated on one batch of ``_batch_layout`` at a time (30
    batches of n // 30 states, then the tail), and only each batch's sum
    per row is kept, so no array outgrows a batch.  The ses are the batch
    means' spread exactly as ``batch_means_se`` takes it, and so bitwise
    its value on the per-state values; the means are the batch sums and
    the tail's, added exactly by ``math.fsum``, over n: np.mean up to
    rounding.
    """
    n = states.size
    b, m = _batch_layout(n)
    # column i holds batch i's sum per row, the last column the tail's
    sums = np.array([[v.sum() for v in rows(states[i * m : (i + 1) * m])] for i in range(b)]
                    + [[v.sum() for v in rows(states[b * m :])]]).T
    ses = [np.std(row[:b] / m, ddof=1) / np.sqrt(b) for row in sums]
    return np.array([math.fsum(row) for row in sums]) / n, np.array(ses)


def _pi0_var(states: np.ndarray) -> float:
    """The variance of the pi_0 ``states``: the ``_pi0_stats`` mean of
    (x - mean)^2 about their mean, np.var's up to rounding with no
    temporary the size of the states."""
    return float(_pi0_stats(_PolyRHS(np.array([[0.0, 0.0, 1.0]]), float(np.mean(states))), states)[0][0])


def _check_invertible(g: np.ndarray) -> None:
    if not np.isfinite(g).all() or np.linalg.cond(g) > _COND_LIMIT:
        raise SingularGammaError(f"Gamma is numerically singular: {g.tolist()}")


def _gamma_stats(curvatures: _PolyRHS, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, entrywise standard errors) from ``_pi0_stats`` of the
    curvature group of ``_integrands``; a singular Gamma is refused."""
    (gg, ga, gag), (se_g, se_a, se_ag) = _pi0_stats(curvatures, states)
    gamma = np.array([[gg, 0.0], [gag, ga]])
    _check_invertible(gamma)
    return gamma, np.array([[se_g, 0.0], [se_ag, se_a]])


def gamma_matrix(
    model: ModelSpec,
    true_model: TrueModel,
    theta_star: tuple[float, float],
    inv: InvariantSample,
) -> np.ndarray:
    """Empirical pi_0-average of the curvature integrands, (gamma, alpha) order.

    ``theta_star`` is (alpha, gamma).  The matrix is lower triangular: the
    scale stage does not involve alpha, so the upper-right entry is zero.
    The integrands are averaged by ``_pi0_stats``, one batch of states at
    a time, so the memory is one batch's arrays whatever the states.
    """
    return _gamma_stats(_integrands(model, true_model, theta_star)[1], inv.states)[0]


def _sigma_terms(
    jumps: _PolyRHS,
    sigma: float,
    states: np.ndarray,
    f1: EPEApprox,
    f2: EPEApprox,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state inner jump integrals (S_gamma, S_alpha, S_cross): the
    weighted sums over the nodes z of v1^2, v2^2 and v1 v2, where
    v1 = w_g z^2 + f1(x + sigma z) - f1(x) and
    v2 = w_a z + f2(x + sigma z) - f2(x), with the jump weights w_g and
    w_a the rows of ``jumps``, the last group of ``_integrands``, and sigma
    the true model's.

    f1 and f2 must be :class:`EPEApprox` on one grid (``TypeError`` or
    ``ValueError`` otherwise, before any work).  Both are linear on each
    grid piece j, so there v1 = a1 + b1 z + w_g z^2 and v2 = a2 + b2 z, and
    each sum is exact in the moments M_p = sum w z^p, p <= 3, of the nodes
    that x + sigma z puts on the piece, plus w_g^2 M_4 over all nodes.  The
    piece that holds x itself gets a1 = a2 = 0 exactly.  The moments are
    prefix sums taken on each side of z = 0 from its far end inwards, and a
    piece's moment is its negative-side difference plus its positive-side
    difference, so the large weights next to z = 0 never enter a
    difference that cancels.  Each state costs one ``searchsorted`` of the
    grid's cut points into the sorted nodes and a few operations per piece.

    The node-side data (the sort, the prefix sums, sum w z^4) is built
    once; the states then run in blocks of max(1, _BLOCK_CELLS //
    (8 grid.size)) into one (3, n) array, so the temporaries, led by the
    (block, pieces, 2, 4) gather of moments, span one block whatever the
    number of states.  Each state's terms are sums over its own row of
    pieces, so they are bitwise the same for any split of the states.
    """
    if not (isinstance(f1, EPEApprox) and isinstance(f2, EPEApprox)):
        raise TypeError(f"f1 and f2 must be EPEApprox; got {type(f1).__name__}, {type(f2).__name__}")
    if not np.array_equal(f1.x, f2.x):
        raise ValueError("f1 and f2 must share one grid")
    order = np.argsort(nodes)
    z, w = nodes[order], weights[order]
    neg = int(np.searchsorted(z, 0.0))
    zw = w[:, None] * z[:, None] ** np.arange(5)
    # sums[e]: the moments p < 4 of the nodes below zero among z[:e], and of
    # those above zero among z[e:], each side summed from its far end inwards
    sums = np.zeros((z.size + 1, 2, 4))
    sums[1 : neg + 1, 0] = np.cumsum(zw[:neg, :4], axis=0)
    sums[neg + 1 :, 0] = sums[neg, 0]
    sums[neg:-1, 1] = np.cumsum(zw[neg:, :4][::-1], axis=0)[::-1]
    sums[:neg, 1] = sums[neg, 1]
    m4 = zw[:, 4].sum()
    cuts = np.concatenate([[-np.inf], f1.x[1:-1], [np.inf]])
    sign = np.sign(sigma)
    out = np.empty((3, states.size))
    block = max(1, _BLOCK_CELLS // (8 * f1.x.size))
    for b0 in range(0, states.size, block):
        xs = states[b0 : b0 + block]
        x = xs[:, None]
        w_g, w_a = (row[:, None] for row in jumps(xs))
        (i1, s1, j0), (i2, s2, _) = f1._segments(xs), f2._segments(xs)
        # a = f(x + sigma z) - f(x) at z = 0 on each piece, zero on x's own piece
        a1 = (i1 - i1[j0, None]) + (s1 - s1[j0, None]) * x
        a2 = (i2 - i2[j0, None]) + (s2 - s2[j0, None]) * x
        b1, b2 = s1 * sigma, s2 * sigma + w_a
        # piece j holds the nodes between (x_j - x) / sigma and
        # (x_{j+1} - x) / sigma, which run backwards if sigma < 0
        d = np.diff(sums[np.searchsorted(z, (cuts - x) / sigma)], axis=1)
        m0, m1, m2, m3 = np.moveaxis(d[..., 0, :] - d[..., 1, :], -1, 0)

        u0, u1, u2 = a2 * m0 + b2 * m1, a2 * m1 + b2 * m2, a2 * m2 + b2 * m3
        s_g = a1 * (a1 * m0 + 2.0 * (b1 * m1 + w_g * m2)) + b1 * (b1 * m2 + 2.0 * w_g * m3)
        s_a = a2 * u0 + b2 * u1
        s_x = a1 * u0 + b1 * u1 + w_g * u2
        g_row, a_row, x_row = out[:, b0 : b0 + block]
        g_row[:] = sign * s_g.sum(axis=1) + w_g[:, 0] ** 2 * m4
        a_row[:] = sign * s_a.sum(axis=1)
        x_row[:] = sign * s_x.sum(axis=1)
    return out[0], out[1], out[2]


def _assemble_sigma(terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    s_g, s_a, s_x = terms
    off = -4.0 * float(np.mean(s_x))
    return np.array([[4.0 * float(np.mean(s_g)), off], [off, 4.0 * float(np.mean(s_a))]])


def _sigma_full(
    jumps: _PolyRHS, sigma: float, inv: InvariantSample, f1: EPEApprox, f2: EPEApprox, noise: LevyLaw
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, entrywise standard errors) with a half-step quadrature gate.

    Both quadratures, at the converged node step and at half of it, run
    ``_sigma_terms`` on the same pi_0 states, in the calling thread.  Of
    n > ``_SIGMA_STATES`` (4000) states they are
    ``states[::n // 4000][:4000]``, not an even thinning of all n: at
    n = 6000 the first 4000 states in a row, at n = 10000 every second of
    the first 8000.  ``_sigma_terms``' time grows with the states and the
    grid pieces, not the nodes; its memory grows with one block of states,
    not with the states.
    """
    states = inv.states
    if states.size > _SIGMA_STATES:
        stride = states.size // _SIGMA_STATES
        states = states[::stride][:_SIGMA_STATES]
    z, w, qstep = _converged_nodes(noise)
    coarse = _assemble_sigma(_sigma_terms(jumps, sigma, states, f1, f2, z, w))
    z2, w2 = _nodes_at(noise, qstep / 2.0)
    fine_terms = _sigma_terms(jumps, sigma, states, f1, f2, z2, w2)
    fine = _assemble_sigma(fine_terms)
    drift_err = float(np.max(np.abs(fine - coarse)))
    if drift_err > 1e-3 * max(1.0, float(np.max(np.abs(fine)))):
        raise QuadratureError(f"jump quadrature unstable for Sigma: delta {drift_err:.3g}")
    eig = np.linalg.eigvalsh(fine)
    if eig.min() < -1e-6:
        raise CovarianceError(f"Sigma has negative eigenvalue {eig.min():.3g}")
    se_g, se_a, se_x = (4.0 * batch_means_se(t) for t in fine_terms)
    ses = np.array([[se_g, se_x], [se_x, se_a]])
    return fine, ses


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
    seed: int = 0,
    budget: int = 20000,
    t_max: float = 40.0,
    m: int = 2000,
    step: float = 0.01,
) -> AsymptoticsResult:
    """Full pipeline: pi_0 sample, EPE solves, Gamma, Sigma, V.

    All of it is at theta* = ``pseudo_true(model, true_model, noise)``,
    whose ``_integrands`` are built once.  A theta* clipped to a box edge is
    no critical point, so its EPE right-hand sides are not centered: it is
    refused with ``ValueError`` before anything is drawn, as are a Brownian
    noise and bad EPE arguments (``_check_epe_args``).

    The EPE grid is the pi_0 quantile grid of ``_GRID_POINTS`` (25) points,
    extended sideways by four points on each side up to the jump reach
    8 / (slowest nu_0 tail rate), so that x + sigma z stays on the grid for
    all jumps the quadrature weights non-negligibly.
    """
    if isinstance(noise, Brownian):
        raise ValueError("asymptotics pipeline needs a pure-jump noise")
    m = _check_epe_args(t_max, step, m)
    theta = pseudo_true(model, true_model, noise)
    for name, value, (lo, hi) in zip(("alpha*", "gamma*"), theta, (model.alpha_box, model.gamma_box)):
        if not lo < value < hi:
            raise ValueError(f"{name} = {value} is on the edge of its box ({lo}, {hi}): not a critical point")
    scores, curvatures, jumps = _integrands(model, true_model, theta)
    inv = sample_invariant(true_model, noise, budget=budget, seed=seed, step=step)
    base = np.quantile(inv.states, np.linspace(0.01, 0.99, _GRID_POINTS))
    reach = 8.0 / min(_tail_rates(noise))
    left = np.linspace(base[0] - reach, base[0], 5)[:-1]
    right = np.linspace(base[-1], base[-1] + reach, 5)[1:]
    grid = np.concatenate([left, base, right])

    f1, f2 = epe_solve(scores, true_model, noise, inv, grid, t_max, m, seed)

    gamma, gamma_se = _gamma_stats(curvatures, inv.states)
    sigma, sigma_se = _sigma_full(jumps, true_model.sigma, inv, f1, f2, noise)
    v = avar(gamma, sigma)

    diagnostics = {
        "seed": seed,
        "invariant": {
            "size": int(inv.states.size),
            "mean": float(np.mean(inv.states)),
            "var": _pi0_var(inv.states),
            "burn_in": _BURN_IN,
            "spacing": _SPACING,
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
