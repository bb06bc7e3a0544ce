"""One benchmark process: set up a workload, or run it for a time budget.

``run.py`` starts this file in a fresh interpreter, so imports, set-up and
peak memory belong to one workload alone.

  child.py setup WORKLOAD SEED          (SEED may be "default")
      import the package from ``src/`` and build the workload's inputs.
  child.py run WORKLOAD SEED SECONDS TRACE WORK_DIR RESULT_JSON
      closed loop of workload calls, one at a time, until the next call
      would overrun SECONDS (at least one call); with TRACE=1 each loop
      step is an untraced call followed by a traced one.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Refused  # noqa: E402

# Leave the parent room to finish inside its 180 s limit.
_LAST_START_S = 120.0


def _setup(name: str, seed: int):
    inputs = WORKLOADS[name].setup(seed)
    import levy_gqmle

    source = Path(levy_gqmle.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"levy_gqmle imported from {source}, not from this checkout's src/")
    return inputs


def _load_reference(name: str, seed: int) -> dict | None:
    return json.loads((ROOT / "perfbench" / "reference.json").read_text()).get(name, {}).get(str(seed))


def run(name: str, seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    w = WORKLOADS[name]
    inputs = _setup(name, seed)
    reference = _load_reference(name, seed)
    problems: list[str] = []
    refusals: list[str] = []
    attempted = failed = 0
    first_entry = None
    walls = {False: [], True: []}
    cpus: list[float] = []
    peak_mb: list[float] = []
    layers: list[dict] = []
    not_observed: set[str] = set()

    def one(trace_this: bool) -> bool:
        nonlocal attempted, failed, first_entry, not_observed
        out_dir = work_dir / f"call{len(walls[False]) + len(walls[True])}"
        out_dir.mkdir()
        tracer = Tracer() if trace_this else None
        with tracer or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                raw = w.call(inputs, out_dir)
            except Refused as exc:
                raw = None
                refusals.append(str(exc))
            except Exception:
                raw = None
                problems.append(traceback.format_exc(limit=3))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        walls[trace_this].append(wall)
        if not trace_this:
            cpus.append(cpu)
            # peak of the first call alone: what a user's one-call process reaches,
            # independent of how many calls fit in the run and of the checks
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            layers.append(layer_metrics(tracer.recorder.spans, wall))
            not_observed |= tracer.not_observed
        out = None if raw is None else w.outputs(raw)
        ops, bad = w.operations(out)
        attempted += ops
        if out is None:
            failed += bad
            return False
        entry = w.entry(out)
        if first_entry is None:
            first_entry = entry
            found = w.gates(out, inputs) + (w.compare(entry, reference) if reference is not None else [])
        else:
            found = [f"call differs from the first call: {p}" for p in w.compare(entry, first_entry)]
        # a call whose output fails a check failed as a whole
        failed += ops if found else bad
        problems.extend(found)
        return True

    start = time.perf_counter()
    while True:
        ok = one(False)
        if traced:
            ok = one(True) and ok
        elapsed = time.perf_counter() - start
        step = sum(statistics.median(v) for v in walls.values() if v)
        if not ok or elapsed + step > min(seconds, _LAST_START_S):
            break

    if traced:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        counts_repeat = all(m[k] == layers[0][k] for m in layers for k in COUNTS)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_mb[0],
        }
        counts_repeat = None
    versions = {name: getattr(sys.modules.get(name), "__version__", None) for name in ("numpy", "scipy")}
    return {
        "provenance": dict(versions, seed=seed, params=w.params(seed)),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "calls": len(walls[False]) + len(walls[True]),
            "wall_s_samples": walls[False],
            "traced_wall_s_samples": walls[True],
            "cpu_s_samples": cpus,
            "peak_rss_mb_after_each_call": peak_mb,
            "reference_checked": reference is not None,
            "problems": problems,
            "refusals": refusals,
            "not_observed": sorted(not_observed),
            "counts_repeat": counts_repeat,
        },
    }


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    seed = WORKLOADS[name].default_seed if argv[2] == "default" else int(argv[2])
    if mode == "setup":
        _setup(name, seed)
        return 0
    seconds, traced, work_dir, result_path = float(argv[3]), argv[4] == "1", Path(argv[5]), Path(argv[6])
    result = run(name, seed, seconds, traced, work_dir)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
