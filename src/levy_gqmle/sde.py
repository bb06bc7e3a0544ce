"""Simulation of dX = A(X)dt + C(X-)dZ on a time grid, and path I/O.

The generating coefficients come from the same parametric catalog as the
fitted families, but with fixed numeric parameters; misspecification means
the fitted family differs from the generating one.  Every catalog drift is
linear in the state, and the true scale must be constant, so the Euler
scheme X_{k+1} = X_k + A(X_k) dt + C dZ_k is the AR(1) recursion
X_{k+1} = rho X_k + scale dZ_k + shift, with coefficients from
:func:`_step_map` alone.  Every path of the package, here, in ``run_mc`` and
in ``asymptotics``, is filtered in place by :func:`_affine_paths`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from ._util import NumericalError, atomic_write_text, substream
from .coefficients import (
    ConstantDrift,
    ConstantScale,
    DriftFamily,
    LinearDecay,
    MeanRevertLinear,
    ScaleFamily,
    family_from_obj,
    family_to_obj,
)
from .levy import LevyLaw, sample_increments

__all__ = [
    "TrueModel",
    "PathConfig",
    "SamplePath",
    "DivergenceError",
    "simulate_euler",
    "write_path",
    "load_path",
    "small_time_moment_check",
    "SmallTimeReport",
]

DIVERGENCE_BOUND = 1e12
# cells per block of the filter here and of asymptotics' EPE and Gamma
# evaluations: a block of temporaries stays in cache
_BLOCK_CELLS = 1 << 16


class DivergenceError(NumericalError):
    """State left the admissible region during simulation."""

    def __init__(self, step: int):
        super().__init__(f"simulation diverged at step {step} (|X| > {DIVERGENCE_BOUND:g} or non-finite)")
        self.step = step


@dataclass(frozen=True)
class TrueModel:
    """Data-generating coefficients A(x), C(x): catalog families at fixed parameters."""

    drift_family: DriftFamily
    drift_param: float
    scale_family: ScaleFamily
    scale_param: float

    def A(self, x):
        return self.drift_family.value(x, self.drift_param)

    def C(self, x):
        return self.scale_family.value(x, self.scale_param)

    def to_obj(self) -> dict:
        return {
            "drift": family_to_obj(self.drift_family),
            "drift_param": self.drift_param,
            "scale": family_to_obj(self.scale_family),
            "scale_param": self.scale_param,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TrueModel":
        return cls(
            drift_family=family_from_obj(obj["drift"]),
            drift_param=float(obj["drift_param"]),
            scale_family=family_from_obj(obj["scale"]),
            scale_param=float(obj["scale_param"]),
        )


@dataclass(frozen=True)
class PathConfig:
    """Simulation design: n observation steps of size h from x0, seeded.

    ``refine`` simulates on the grid h/refine and subsamples, for
    discretization-bias studies; the observation grid is unchanged.
    """

    n: int
    h: float
    x0: float = 0.0
    seed: int = 0
    refine: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (self.h > 0):
            raise ValueError(f"h must be positive, got {self.h}")
        if self.refine < 1:
            raise ValueError(f"refine must be >= 1, got {self.refine}")

    @property
    def T(self) -> float:
        return self.n * self.h

    def to_obj(self) -> dict:
        return {"n": self.n, "h": self.h, "x0": self.x0, "seed": self.seed, "refine": self.refine}

    @classmethod
    def from_obj(cls, obj: dict) -> "PathConfig":
        return cls(
            n=int(obj["n"]),
            h=float(obj["h"]),
            x0=float(obj.get("x0", 0.0)),
            seed=int(obj.get("seed", 0)),
            refine=int(obj.get("refine", 1)),
        )


@dataclass(frozen=True)
class SamplePath:
    """Observations X_0..X_n on an equispaced grid of step h."""

    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not (self.h > 0):
            raise ValueError(f"h must be positive, got {self.h}")
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("values must be a 1-D array of length >= 2")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must all be finite")

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def T(self) -> float:
        return self.n * self.h

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _affine_form(model: TrueModel) -> tuple[float, float, float]:
    """(rate, level, sigma) with A(x) = level - rate x and C = sigma.

    This is the one place that reads the affine form off the catalog.
    """
    if not isinstance(model.scale_family, ConstantScale):
        raise ValueError("need a constant true scale for an affine (AR(1)) path")
    fam, p = model.drift_family, model.drift_param
    if isinstance(fam, LinearDecay):
        rate, level = p, 0.0
    elif isinstance(fam, MeanRevertLinear):
        rate, level = p, p * fam.m
    elif isinstance(fam, ConstantDrift):
        rate, level = 0.0, p
    else:
        raise ValueError(f"need a catalog drift family, got {fam!r}")
    return rate, level, model.scale_param


def _step_map(model: TrueModel, dt: float) -> tuple[float, float, float]:
    """(rho, scale, shift) of the Euler step X_{k+1} = rho X_k + scale dZ_k + shift."""
    rate, level, sigma = _affine_form(model)
    return 1.0 - rate * dt, sigma, level * dt


def _affine_paths(model: TrueModel, dt: float, x0: float | np.ndarray, z: np.ndarray) -> np.ndarray:
    """Overwrite increments ``z`` with Euler states X_1..X_steps, one path per row.

    ``z`` has shape (R, steps) and any strides (a time-major panel passes
    ``panel.T``, one path ``path[None]``); ``x0`` is a scalar or shape (R,).
    ``lfilter`` runs along time in blocks of about ``_BLOCK_CELLS`` cells
    with its state carried, so a row comes out bitwise as from one call
    over that row alone.  Returns ``first_bad`` of shape (R,): the index of
    a row's first state (x0 has index 0) that is non-finite or beyond
    ``DIVERGENCE_BOUND``, or -1; later states are left as the recursion
    makes them.
    """
    rho, scale, shift = _step_map(model, dt)
    rows, steps = z.shape
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (rows,))
    zi = (rho * x0)[:, None]
    width = max(1, _BLOCK_CELLS // rows)
    for k0 in range(0, steps, width):
        u = z[:, k0 : k0 + width] * scale
        u += shift
        z[:, k0 : k0 + width], zi = lfilter([1.0], [1.0, -rho], u, axis=1, zi=zi)
    # max/min propagate NaN, so a row passes only if every state is finite
    # and inside the bound; only failing rows are searched for the index
    start_ok = np.abs(x0) <= DIVERGENCE_BOUND
    ok = start_ok & (z.max(axis=1) <= DIVERGENCE_BOUND) & (z.min(axis=1) >= -DIVERGENCE_BOUND)
    first_bad = np.full(rows, -1, dtype=int)
    for row in np.flatnonzero(~ok):
        first_bad[row] = 1 + int(np.argmax(~(np.abs(z[row]) <= DIVERGENCE_BOUND))) if start_ok[row] else 0
    return first_bad


def simulate_euler(model: TrueModel, noise: LevyLaw, cfg: PathConfig) -> SamplePath:
    """Simulate one observed path; bitwise deterministic given (seed, refine)."""
    steps = cfg.n * cfg.refine
    dt = cfg.h / cfg.refine
    values = np.empty((1, steps + 1))
    values[0, 0] = cfg.x0
    values[0, 1:] = sample_increments(noise, dt, steps, substream(cfg.seed))
    first_bad = _affine_paths(model, dt, cfg.x0, values[:, 1:])
    if first_bad[0] >= 0:
        raise DivergenceError(int(first_bad[0]))
    return SamplePath(h=cfg.h, values=values[0, :: cfg.refine])


def write_path(path: SamplePath, sink) -> None:
    """Write a path as CSV `t,x` with 17-significant-digit floats.

    ``sink`` is a filesystem path (written atomically) or a text stream.
    """
    rows = ["t,x"]
    for j, x in enumerate(path.values):
        rows.append(f"{j * path.h:.17g},{x:.17g}")
    text = "\n".join(rows) + "\n"
    if isinstance(sink, (str, os.PathLike)):
        atomic_write_text(sink, text)
    else:
        sink.write(text)


def load_path(source) -> SamplePath:
    """Parse a `t,x` CSV; h is inferred and the grid must be equispaced.

    Rejects non-finite time cells and relative jitter in the time grid
    beyond 1e-9.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            return load_path(f)
    header = source.readline().strip()
    if header != "t,x":
        raise ValueError(f"expected header 't,x', got {header!r}")
    t_vals, x_vals = [], []
    for lineno, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ValueError(f"line {lineno}: expected 2 cells, got {len(cells)}")
        try:
            t_vals.append(float(cells[0]))
            x_vals.append(float(cells[1]))
        except ValueError as e:
            raise ValueError(f"line {lineno}: non-numeric cell: {e}") from None
    t = np.asarray(t_vals)
    if t.size < 2:
        raise ValueError("need at least 2 rows")
    if not np.all(np.isfinite(t)):
        raise ValueError("time cells must all be finite")
    dt = np.diff(t)
    h = float(dt[0])
    if h <= 0 or np.any(dt <= 0):
        raise ValueError("time grid must be strictly increasing")
    if np.max(np.abs(dt - h)) > 1e-9 * h:
        raise ValueError("time grid is not equispaced (relative jitter above 1e-9)")
    return SamplePath(h=h, values=np.asarray(x_vals))


@dataclass(frozen=True)
class SmallTimeReport:
    """Ratios E|X_h - x|^p / (h (1 + |x|^K)) over a start grid, at h and h/2."""

    p: float
    K: float
    grid: np.ndarray
    h_values: tuple[float, float]
    ratios: np.ndarray  # shape (2, len(grid))

    @property
    def sup_ratios(self) -> tuple[float, float]:
        return float(np.max(self.ratios[0])), float(np.max(self.ratios[1]))


def small_time_moment_check(
    model: TrueModel,
    noise: LevyLaw,
    cfg: PathConfig,
    p: float,
    reps: int,
    K: float = 2.0,
    grid: np.ndarray | None = None,
) -> SmallTimeReport:
    """Monte Carlo check of the small-time moment bound E^x|X_h - x|^p <~ h (1 + |x|^K).

    Requires p in (max(1, BG-index), 2).  The bound itself carries unknown
    constants; the usable diagnostic is that the ratio stays bounded as h
    is halved.
    """
    if not (1.0 < p < 2.0) or p <= noise.bg_index:
        raise ValueError(f"p must lie in (max(1, BG-index), 2), got p={p}")
    if grid is None:
        grid = np.linspace(-3.0, 3.0, 13)
    grid = np.asarray(grid, dtype=float)
    ratios = np.empty((2, grid.size))
    h_values = (cfg.h, cfg.h / 2.0)
    for i, h in enumerate(h_values):
        dt = h / cfg.refine
        for k, x0 in enumerate(grid):
            rng = substream(cfg.seed, i, k)
            z = sample_increments(noise, dt, (cfg.refine, reps), rng)
            first_bad = _affine_paths(model, dt, x0, z.T)
            if (first_bad >= 0).any():
                raise DivergenceError(int(first_bad[first_bad >= 0][0]))
            moment = float(np.mean(np.abs(z[-1] - x0) ** p))
            ratios[i, k] = moment / (h * (1.0 + abs(x0) ** K))
    return SmallTimeReport(p=p, K=K, grid=grid, h_values=h_values, ratios=ratios)
