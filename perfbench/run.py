"""Benchmark entry point: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload mc_table_ii --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time in several fresh interpreters,
then runs the workload in one more fresh interpreter for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs the workload
with timing wrappers around each layer's entry point and reports the
per-layer metrics.  Either way it checks the outputs, prints one line of
run provenance, and prints as its last line

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every metric BENCHMARK.json declares for that mode.  It exits with
code 2, printing no result, when the checkout has no ``src/levy_gqmle``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 175.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    # stdout of the package (CLI progress lines) goes to our stderr, so the
    # last line of our stdout stays the result
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                          stdout=sys.stderr, stderr=sys.stderr, timeout=max(timeout, 1.0), check=False)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(workload: str, seconds: float, trace: int) -> dict:
    commit = None  # a checkout without git metadata; src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=None, help="default: 0 / 29 / 33, the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    begun = time.perf_counter()
    if ns.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "levy_gqmle" / "__init__.py").is_file():
        return _fail(f"no src/levy_gqmle under {ROOT}: run from a checkout of the package")
    units = {m["name"]: m["unit"] for m in declared["per_layer" if ns.trace else "end_to_end"]}
    seed = "default" if ns.seed is None else str(ns.seed)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    setup_walls = []
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE))
    try:
        for _ in range(0 if ns.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            done = _child(["setup", ns.workload, seed], env, RUN_LIMIT_S - (t0 - begun))
            setup_walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                return _fail(f"set-up of {ns.workload} exited with code {done.returncode}")
        result_path = work / "result.json"
        call_dir = work / "calls"
        call_dir.mkdir()
        done = _child(["run", ns.workload, seed, str(ns.seconds), str(ns.trace), str(call_dir), str(result_path)],
                      env, RUN_LIMIT_S - (time.perf_counter() - begun))
        if done.returncode != 0 or not result_path.is_file():
            return _fail(f"workload {ns.workload} exited with code {done.returncode}")
        child = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        return _fail(f"{ns.workload} did not finish within {RUN_LIMIT_S:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(child["metrics"])
    if setup_walls:
        values["setup_s"] = statistics.median(setup_walls)
    provenance = dict(_provenance(ns.workload, ns.seconds, ns.trace), **child["provenance"])
    info = dict(child["info"], setup_s_samples=setup_walls)
    missing = sorted(set(units) - set(values))
    if missing:
        return _fail(f"workload did not produce declared metrics {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"provenance": provenance, "info": info}))
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
