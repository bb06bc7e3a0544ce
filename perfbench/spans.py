"""Span recording around the package's layer entry points, from outside.

The traced run replaces each entry point with a timing wrapper on every
``levy_gqmle`` module attribute that holds it, so callers that look the
function up through their own module globals (``experiment.estimate_staged``,
``asymptotics._euler_columns``, ...) are caught without editing the package.
Spans stay in memory and are reduced to per-layer metrics after the call.

An entry point that no longer exists is reported as not observed instead of
failing the run, so the benchmark survives refactors that rename layers.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store with a parent stack per thread.

    A span opened in a thread that has no open span of its own (a pool
    worker) takes the innermost open span of the recording thread as its
    parent: that is the call which submitted the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int | None:
        """Start a span; None when the innermost open span has the same name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            if parent is not None and self.spans[parent].name == name:
                return None
            self.spans.append(Span(name, time.perf_counter(), parent))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, counts: dict) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = self.spans[index]
        span.end = end
        span.counts = counts


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _euler_cells(args, kwargs, result):
    values, first_bad = result
    return {
        "cells": int((values.shape[0] - 1) * values.shape[1]),
        "diverged": int(np.count_nonzero(np.asarray(first_bad) >= 0)),
    }


def _fit_clamped(args, kwargs, result):
    clamped = any(getattr(getattr(result, s, None), "boundary", False) for s in ("stage1", "stage2"))
    return {"clamped": int(clamped)}


def _states(args, kwargs, result):
    return {"states": int(np.size(result.states))}


def _evals(args, kwargs, result):
    return {"evals": int(np.size(result))}


def _bytes_written(args, kwargs, result):
    return {"bytes": int(sum(os.path.getsize(p) for p in result))}


# (layer, module, attribute, counter).  Two attributes may feed one layer;
# a span nested directly in a span of its own layer is not recorded twice.
ENTRY_POINTS = (
    ("cli.run", "levy_gqmle.cli", "run", None),
    ("experiment.run_mc", "levy_gqmle.experiment", "run_mc", None),
    ("experiment.emit_report", "levy_gqmle.experiment", "emit_report", _bytes_written),
    ("gqmle.fit", "levy_gqmle.gqmle", "estimate_staged", _fit_clamped),
    ("levy.sample_increments", "levy_gqmle.levy", "sample_increments", _draws),
    ("util.substream", "levy_gqmle._util", "substream", None),
    ("sde.euler", "levy_gqmle.sde", "_euler_columns", _euler_cells),
    ("asymptotics.epe_solve", "levy_gqmle.asymptotics", "epe_solve", None),
    ("asymptotics.sample_invariant", "levy_gqmle.asymptotics", "sample_invariant", _states),
    ("asymptotics.sigma", "levy_gqmle.asymptotics", "_sigma_full", None),
    ("asymptotics.gamma", "levy_gqmle.asymptotics", "gamma_matrix", None),
    ("asymptotics.gamma", "levy_gqmle.asymptotics", "_gamma_terms", None),
)

# Factories whose returned closures are the g-evaluations of the EPE solves.
G_FACTORIES = (
    ("asymptotics.epe_g", "levy_gqmle.asymptotics", "epe_rhs_scale"),
    ("asymptotics.epe_g", "levy_gqmle.asymptotics", "epe_rhs_drift"),
)

LAYERS = sorted({e[0] for e in ENTRY_POINTS} | {f[0] for f in G_FACTORIES})


def _timed(recorder: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        if index is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, {"failed": 1})
            raise
        recorder.close(index, counter(args, kwargs, result) if counter else {})
        return result

    return wrapper


def _factory(recorder: Recorder, name: str, make):
    @functools.wraps(make)
    def wrapper(*args, **kwargs):
        return _timed(recorder, name, make(*args, **kwargs), _evals)

    return wrapper


class Tracer:
    """Installs the wrappers for one traced call and restores the originals."""

    def __init__(self):
        self.recorder = Recorder()
        self.not_observed: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        observed = set()
        for layer, mod_name, attr, counter in ENTRY_POINTS:
            if self._patch(mod_name, attr, lambda fn: _timed(self.recorder, layer, fn, counter)):
                observed.add(layer)
        for layer, mod_name, attr in G_FACTORIES:
            if self._patch(mod_name, attr, lambda make: _factory(self.recorder, layer, make)):
                observed.add(layer)
        self.not_observed = set(LAYERS) - observed
        return self

    def _patch(self, mod_name: str, attr: str, make_wrapper) -> bool:
        """Replace ``mod_name.attr`` wherever a package module holds it; False if it is gone."""
        try:
            original = getattr(importlib.import_module(mod_name), attr, None)
        except ImportError:
            return False
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "levy_gqmle" and not name.startswith("levy_gqmle."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, value))
                    setattr(module, key, wrapper)
        return True

    def __exit__(self, *exc) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Reduce one traced call's spans to the per-layer metric values.

    ``busy_s`` sums span durations (pool threads overlap, so it can exceed
    the wall time); ``self_s`` subtracts the union of each span's child
    intervals; ``coverage`` is the union of top-level spans over the wall.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    top = []
    for s in spans:
        if s.parent is None:
            top.append((s.start, s.end))
        else:
            children.setdefault(s.parent, []).append((s.start, s.end))
    agg = {layer: defaultdict(int) for layer in LAYERS}
    for i, s in enumerate(spans):
        a = agg[s.name]
        a["calls"] += 1
        a["busy_s"] += s.end - s.start
        inner = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        a["self_s"] += (s.end - s.start) - _union([iv for iv in inner if iv[1] > iv[0]])
        for key, value in s.counts.items():
            a[key] += value

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    lv, ut, sd, fit = agg["levy.sample_increments"], agg["util.substream"], agg["sde.euler"], agg["gqmle.fit"]
    epe, g, inv = agg["asymptotics.epe_solve"], agg["asymptotics.epe_g"], agg["asymptotics.sample_invariant"]
    return {
        "levy.sample_increments.calls": lv["calls"],
        "levy.sample_increments.draws": lv["draws"],
        "levy.sample_increments.busy_s": lv["busy_s"],
        "levy.sample_increments.ns_per_draw": per(lv["busy_s"], lv["draws"], 1e9),
        "util.substream.calls": ut["calls"],
        "util.substream.busy_s": ut["busy_s"],
        "sde.euler.calls": sd["calls"],
        "sde.euler.cells": sd["cells"],
        "sde.euler.busy_s": sd["busy_s"],
        "sde.euler.ns_per_cell": per(sd["busy_s"], sd["cells"], 1e9),
        "sde.euler.diverged": sd["diverged"],
        "gqmle.fit.calls": fit["calls"],
        "gqmle.fit.failed": fit["failed"],
        "gqmle.fit.clamped": fit["clamped"],
        "gqmle.fit.useful_ratio": per(fit["calls"] - fit["failed"] - fit["clamped"], fit["calls"]),
        "gqmle.fit.busy_s": fit["busy_s"],
        "asymptotics.epe_solve.calls": epe["calls"],
        "asymptotics.epe_solve.busy_s": epe["busy_s"],
        "asymptotics.epe_solve.self_s": epe["self_s"],
        "asymptotics.epe_g.evals": g["evals"],
        "asymptotics.epe_g.busy_s": g["busy_s"],
        "asymptotics.epe_g.ns_per_eval": per(g["busy_s"], g["evals"], 1e9),
        "asymptotics.sample_invariant.states": inv["states"],
        "asymptotics.sample_invariant.busy_s": inv["busy_s"],
        "asymptotics.sample_invariant.self_s": inv["self_s"],
        "asymptotics.sigma.busy_s": agg["asymptotics.sigma"]["busy_s"],
        "asymptotics.gamma.busy_s": agg["asymptotics.gamma"]["busy_s"],
        "experiment.run_mc.self_s": agg["experiment.run_mc"]["self_s"],
        "experiment.emit_report.busy_s": agg["experiment.emit_report"]["busy_s"],
        "experiment.emit_report.bytes": agg["experiment.emit_report"]["bytes"],
        "cli.run.self_s": agg["cli.run"]["self_s"],
        "trace.coverage": per(_union(top), wall_s),
    }


# Metrics that count work; they must repeat exactly between traced calls.
COUNTS = tuple(
    f"{layer}.{count}"
    for layer, names in (
        ("levy.sample_increments", ("calls", "draws")),
        ("util.substream", ("calls",)),
        ("sde.euler", ("calls", "cells", "diverged")),
        ("gqmle.fit", ("calls", "failed", "clamped")),
        ("asymptotics.epe_solve", ("calls",)),
        ("asymptotics.epe_g", ("evals",)),
        ("asymptotics.sample_invariant", ("states",)),
        ("experiment.emit_report", ("bytes",)),
    )
    for count in names
)
