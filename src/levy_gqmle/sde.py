"""Simulation of the true model on a time grid, and path I/O.

The true model is the Levy-driven OU dX = (level - rate X) dt + sigma dZ;
misspecification means the fitted catalog family differs from it.  Its
Euler step is the AR(1) recursion X_{k+1} = rho X_k + scale dZ_k + shift,
with coefficients from :func:`_step_map` alone, and :func:`_scan` is
the one kernel that runs it.  Every path of the package is drawn and
scanned here, in one of two ways: :func:`_euler_panel` gives each path
its own substream (``simulate_euler`` and ``run_mc``), and
:func:`_chunked_paths` gives each time chunk of a panel one
(``asymptotics``' pi_0 path and EPE panel); its workers draw the chunks,
and the calling thread scans them in time order.  Callers that act on
divergence check the result with :func:`_first_bad` or the chunks'
extremes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._util import _BLOCK_CELLS, NumericalError, _integer, _real, atomic_write_text, core_map, substream
from .levy import LevyLaw, sample_increments

__all__ = [
    "TrueModel",
    "PathConfig",
    "SamplePath",
    "DivergenceError",
    "simulate_euler",
    "write_path",
    "load_path",
]

DIVERGENCE_BOUND = 1e12
# longest sub-block of the scan: its power tables are built per call
_SUB_BLOCK_MAX = 1 << 16


class DivergenceError(NumericalError):
    """State left the admissible region during simulation."""

    def __init__(self, step: int):
        super().__init__(f"simulation diverged at step {step} (|X| > {DIVERGENCE_BOUND:g} or non-finite)")
        self.step = step


@dataclass(frozen=True)
class TrueModel:
    """Data-generating Levy OU dX = (level - rate X) dt + sigma dZ.

    All three must be finite numbers, stored as floats (``ValueError``
    naming the field otherwise, a boolean or a string included).
    Any sign simulates (rate <= 0 gives a random walk or an explosive
    path); only the invariant-law code needs rate > 0.
    """

    rate: float
    level: float
    sigma: float

    def __post_init__(self):
        for name in ("rate", "level", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class PathConfig:
    """Simulation design: n observation steps of size h from x0, seeded.

    h and x0 must be finite numbers, stored as floats; a boolean or a
    string is refused.  ``refine`` simulates on the grid h/refine
    and subsamples, for discretization-bias studies; the observation grid
    is unchanged.  n, seed and refine must be integral (10.0 runs as 10),
    and seed >= 0; anything else is refused with ``ValueError``.
    """

    n: int
    h: float
    x0: float = 0.0
    seed: int = 0
    refine: int = 1

    def __post_init__(self):
        for name in ("n", "seed", "refine"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("h", "x0"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.h < math.inf):
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if self.refine < 1:
            raise ValueError(f"refine must be >= 1, got {self.refine}")

    @property
    def T(self) -> float:
        return self.n * self.h


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


def _step_map(model: TrueModel, dt: float) -> tuple[float, float, float]:
    """(rho, scale, shift) of the Euler step X_{k+1} = rho X_k + scale dZ_k + shift."""
    return 1.0 - model.rate * dt, model.sigma, model.level * dt


def _scan(rho: float, scale: float, shift: float, x0: float | np.ndarray, z: np.ndarray) -> None:
    """Overwrite ``z`` (R, steps) with X_1..X_steps of X_{k+1} = rho X_k + u_k,
    u_k = scale z_k + shift, from X_0 = ``x0`` (a scalar or shape (R,)).

    Each row's time axis is cut into sub-blocks of ``_sub_block(rho)``
    steps from step 0.  Within a sub-block started at X_s, the states are
    X_{s+j+1} = rho^j C_j with C_j = rho X_s + sum_{i<=j} rho^-i u_{s+i},
    a cumulative sum; rho^(+-j) stays within 2^(+-900), so no term
    overflows while the states stay inside ``DIVERGENCE_BOUND``.  The sum
    runs along time in blocks of about ``_BLOCK_CELLS`` cells, each seeded
    with the running C, so its additions are the same in any blocking:
    a row's bits depend only on its own increments, start, rho and length,
    never on the rows beside it or the array's strides.  A time-major block
    is summed one step at a time across rows, any other along each row.
    Each block turns into its C and then its states in its own memory, so
    no copy of a block is formed: only the power tables rho^(+-j) and the
    rows' running C are held beside ``z``.
    """
    rows, steps = z.shape
    if steps == 0:
        return
    sub = _sub_block(rho)
    # a diverging path may reach inf and nan; _first_bad reports it
    with np.errstate(over="ignore", invalid="ignore"):
        up = rho ** np.arange(min(sub, steps), dtype=float)
        down = 1.0 / up
        carry = rho * np.broadcast_to(np.asarray(x0, dtype=float), (rows,))
        width = max(1, _BLOCK_CELLS // rows)
        k = 0
        while k < steps:
            j = k % sub
            n = min(sub - j, width, steps - k)
            # the block turns into its C in place, then into its states
            block = z[:, k : k + n]
            if scale != 1.0:
                block *= scale
            if shift:
                block += shift
            block *= down[j : j + n]
            block[:, 0] += carry
            # a time-major block is summed one step at a time across rows
            if rows > 1 and block.strides[0] < block.strides[1]:
                for prev, col in zip(block.T, block.T[1:]):
                    np.add(prev, col, out=col)
            else:
                np.cumsum(block, axis=1, out=block)
            last = block[:, -1].copy()  # the running C
            block *= up[j : j + n]
            carry = rho * block[:, -1] if j + n == sub else last
            k += n


def _sub_block(rho: float) -> int:
    """Steps per sub-block of :func:`_scan`: the most with |rho|^(+-j) <= 2^900
    for every j in the block, at most ``_SUB_BLOCK_MAX``; 1 if rho is 0 or not finite."""
    r = abs(rho)
    if r == 0.0 or not math.isfinite(r):
        return 1
    if r == 1.0:
        return _SUB_BLOCK_MAX
    return int(min(_SUB_BLOCK_MAX, 1 + 900 * math.log(2.0) // abs(math.log(r))))


def _first_bad(z: np.ndarray, x0: float | np.ndarray) -> np.ndarray:
    """Each row's first bad state, shape (R,), for paths X_1..X_steps in ``z``.

    A state is bad if it is non-finite or beyond ``DIVERGENCE_BOUND``; the
    start ``x0`` (a scalar or shape (R,)) has index 0.  A row with no bad
    state gets -1.
    """
    rows = z.shape[0]
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (rows,))
    # max/min propagate NaN, so a row passes only if every state is finite
    # and inside the bound; only failing rows are searched for the index
    start_ok = np.abs(x0) <= DIVERGENCE_BOUND
    ok = start_ok & (z.max(axis=1) <= DIVERGENCE_BOUND) & (z.min(axis=1) >= -DIVERGENCE_BOUND)
    first_bad = np.full(rows, -1, dtype=int)
    for row in np.flatnonzero(~ok):
        first_bad[row] = 1 + int(np.argmax(~(np.abs(z[row]) <= DIVERGENCE_BOUND))) if start_ok[row] else 0
    return first_bad


def _euler_panel(
    model: TrueModel, noise: LevyLaw, dt: float, steps: int, x0: float, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """(values, first_bad) of one Euler path X_0..X_steps from x0 per generator.

    ``values`` has shape (len(rngs), steps + 1) and row j holds the path
    driven by ``rngs[j]``'s increments, scanned in place by :func:`_scan`;
    ``first_bad`` is :func:`_first_bad` of it.
    """
    values = np.empty((len(rngs), steps + 1))
    values[:, 0] = x0
    for row, rng in zip(values, rngs):
        row[1:] = sample_increments(noise, dt, steps, rng)
    _scan(*_step_map(model, dt), x0, values[:, 1:])
    return values, _first_bad(values[:, 1:], x0)


def _chunked_paths(
    model: TrueModel, noise: LevyLaw, dt: float, groups: int, cols: int, x0: float, chunk: int, seed: int, tag: int,
    keep: int = 1,
) -> Iterator[np.ndarray]:
    """Euler states X_keep, X_2keep, ..., X_(groups keep) of ``cols`` paths
    from ``x0``, yielded in time order as one (kept, cols) block per chunk
    of ``chunk`` groups of ``keep`` steps (the last one short).

    Chunk c draws its increments from the substream (seed, tag, c), so the
    first chunks are the same whatever ``groups`` is.  A worker of
    ``_util.core_map`` draws each chunk and, when keep > 1, sums each group
    of keep increments z_i to W = sum_i rho^(keep-1-i) z_i (one ``einsum``,
    no BLAS), since X_{t+keep} = rho^keep X_t + scale W + shift sum_i rho^i:
    the skipped states are never formed.  The calling thread scans each
    chunk in place by :func:`_scan`, in time order from the previous
    chunk's last state, so the result does not depend on the number of
    workers, and equals one scan over the whole path up to rounding (about
    1e-14 relative).
    """
    rho, scale, shift = _step_map(model, dt)
    rho = np.float64(rho)  # rho**keep overflows to inf, not OverflowError
    # (substream index, groups)
    plans = [(start // chunk, min(chunk, groups - start)) for start in range(0, groups, chunk)]
    # |rho| > 1 may overflow rho^i to inf; the callers' checks report the path
    with np.errstate(over="ignore", invalid="ignore"):
        weights = rho ** np.arange(keep - 1, -1, -1, dtype=float)
        rho_keep, shift_keep = rho**keep, shift * np.sum(weights)

    def draw(plan: tuple[int, int]) -> np.ndarray:
        """One chunk's increments, or its groups' weighted sums W."""
        index, size = plan
        path = sample_increments(noise, dt, (size * keep, cols), substream(seed, tag, index))
        if keep == 1:
            return path
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("gkc,k->gc", path.reshape(-1, keep, cols), weights)

    x = x0
    for block in core_map(draw, plans):
        _scan(rho_keep, scale, shift_keep, x, block.T)
        x = block[-1].copy()  # a copy: the next start keeps no block alive
        yield block


def simulate_euler(model: TrueModel, noise: LevyLaw, cfg: PathConfig) -> SamplePath:
    """Simulate one observed path; bitwise deterministic given (seed, refine)."""
    dt = cfg.h / cfg.refine
    values, first_bad = _euler_panel(model, noise, dt, cfg.n * cfg.refine, cfg.x0, [substream(cfg.seed)])
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
