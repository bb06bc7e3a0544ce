"""Shared helpers: RNG substreams, the core pool, batch-means errors,
atomic file writes."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

import numpy as np

# the most worker threads of the core pool
_MAX_WORKERS = 4
# contiguous batches of batch_means_se
_N_BATCHES = 30
# cells per block of the package's blocked array passes (the NIG draws, the
# AR(1) scan, the EPE power sums, Gamma's Horner passes): a block stays in cache;
# the fit's tiles are fixed in time steps instead, ``gqmle._FIT_TILE``
_BLOCK_CELLS = 1 << 16


class NumericalError(RuntimeError):
    """Computation failed for numerical reasons (maps to CLI exit code 2)."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, *path) address.

    The same address always yields the same stream, regardless of how many
    other streams were created, so parallel schedules cannot change results.
    A part that is boolean or not integral is refused with ``ValueError``,
    so a seed of 1.5 cannot silently run as seed 1; a negative seed is
    refused by name.
    """
    address = tuple(_integer(p, "substream address part") for p in (seed, *path))
    if address[0] < 0:
        raise ValueError(f"seed must be >= 0, got {address[0]}")
    return np.random.default_rng(np.random.SeedSequence(address))


def _integer(value, name: str = "value") -> int:
    """``value`` as an ``int``: integers and integral floats, numpy's too.

    Anything else, booleans, fractions and strings included, is refused
    with ``ValueError`` naming ``name`` rather than truncated or parsed.
    """
    integral = isinstance(value, (float, np.floating)) and value.is_integer()
    if not (integral or isinstance(value, (int, np.integer))) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _pool_size(tasks: int) -> int:
    """Worker threads for ``tasks`` independent tasks: the usable cores, at most 4.

    Platforms without CPU affinity (macOS, Windows) count every core.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(tasks, _MAX_WORKERS, cores))


def core_map(fn: Callable, items: Iterable) -> Iterator:
    """``fn`` over ``items`` on ``_pool_size(len(items))`` threads, yielded in input order.

    This is the package's one thread pool: the tasks' numpy kernels (the
    draws, ``sde``'s AR(1) scan, the fits) release the GIL while they run,
    so independent tasks share the cores as long as each numpy call covers
    many cells.  All
    tasks are submitted at once, but only as many run, and hold their
    temporaries, as there are workers; callers size tasks with that in mind.
    Results come back in the order of ``items`` whatever order the tasks
    finish in, so an ordered reduction over them does not depend on the
    worker count.  A task must not call ``core_map`` itself, so pools never
    nest.  A generator that yields from it (``sde._chunked_paths``) holds
    the pool open while its consumer works on each result in the calling
    thread; results not yet reached wait in the pool.  A task's exception
    is raised when its result is reached, and tasks not yet started are
    then cancelled.
    """
    items = list(items)
    with ThreadPoolExecutor(_pool_size(len(items))) as pool:
        yield from pool.map(fn, items)


def batch_means_se(samples: np.ndarray) -> float:
    """Standard error of the mean of a (possibly serially correlated) series.

    Splits the series into ``_N_BATCHES`` contiguous batches and uses the
    spread of batch means.  Falls back to fewer batches for short series.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 2:
        return float("inf")
    b = min(_N_BATCHES, n // 2)
    if b < 2:
        return float(np.std(x, ddof=1) / np.sqrt(n))
    m = n // b
    means = x[: b * m].reshape(b, m).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(b))


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
