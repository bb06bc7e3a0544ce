"""Shared helpers: RNG substreams, the core pool, batch-means errors,
atomic file writes."""

from __future__ import annotations

import os
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

# the most worker threads of the core pool
_MAX_WORKERS = 4
# contiguous batches of batch_means_se
_N_BATCHES = 30
# cells per block of the package's blocked array passes (the AR(1) scan, the
# EPE power sums, Sigma's state blocks, _k1e's rows): a block stays in cache;
# the draws' scratch blocks are ``levy._DRAW_BLOCK`` instead, the fit's tiles
# are fixed in time steps, ``gqmle._FIT_TILE``, and the pi_0 averages run in
# the batches of ``_batch_layout``
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


def _real(value, name: str = "value") -> float:
    """``value`` as a ``float``: integers and floats, numpy's too.

    Anything else, booleans and strings included, is refused with
    ``ValueError`` naming ``name`` rather than coerced or parsed.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
    many cells.  Tasks are submitted lazily, in a window of the worker
    count: while the consumer holds result i, tasks up to i + workers have
    been submitted and none beyond.  Asking for the next result submits one
    more before the wait, so a worker that finishes ahead of an earlier
    task is not left idle.  The pool thus holds at most workers + 1 tasks
    and results, however slowly the consumer works on them.
    Results come back in the order of ``items`` whatever order the tasks
    finish in, so an ordered reduction over them does not depend on the
    worker count.  A task must not call ``core_map`` itself, so pools never
    nest.  A generator that yields from it (``sde._chunked_paths``) holds
    the pool open while its consumer works on each result in the calling
    thread.  A task's exception is raised when its result is reached; then,
    or when the generator is closed early, the submitted tasks not yet
    started are cancelled and the running ones finish before it returns.
    """
    items = list(items)
    workers = _pool_size(len(items))
    todo = iter(items)
    with ThreadPoolExecutor(workers) as pool:
        ahead = deque(pool.submit(fn, item) for item in islice(todo, workers + 1))
        try:
            while ahead:
                yield ahead.popleft().result()
                ahead.extend(pool.submit(fn, item) for item in islice(todo, 1))
        finally:
            for future in ahead:
                future.cancel()


def _batch_layout(n: int) -> tuple[int, int]:
    """(b, m): ``batch_means_se``'s split of n >= 2 samples into b
    contiguous batches of m, leaving out the last n - b m.  b is
    ``_N_BATCHES`` (30) or n // 2 if fewer, and a series of two or three
    samples is its own n batches of one."""
    b = min(_N_BATCHES, n // 2) if n >= 4 else n
    return b, n // b


def batch_means_se(samples: np.ndarray) -> float:
    """Standard error of the mean of a (possibly serially correlated) series.

    Splits the series into the contiguous batches of ``_batch_layout`` and
    uses the spread of batch means (Flegal & Jones 2010, Ann. Statist.
    38(2)): np.std(means, ddof=1) / sqrt(b), each batch mean its batch's
    sum over m.  ``asymptotics._pi0_stats`` takes the same steps on each
    batch's sum alone, so it matches this bit for bit.  A series of fewer
    than two samples has an infinite error.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        return float("inf")
    b, m = _batch_layout(x.size)
    means = x[: b * m].reshape(b, m).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(b))


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``path``
    via a temp file + rename in the same directory.

    Chunks are written as they come, so a streamed text is never joined
    whole.  If the chunks raise, the temp file is removed and ``path`` is
    left as it was.
    """
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
