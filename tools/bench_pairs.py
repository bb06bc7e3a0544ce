"""Alternating parent/change pairs of ``perfbench/run.py``, recorded as ``BENCH_<workload>.json``.

Run from anywhere, with two checkouts of the repository whose
``perfbench/`` and ``BENCHMARK.json`` are byte-identical, byte caches
and hidden run leftovers aside; the script refuses to run otherwise:

  python3 tools/bench_pairs.py --parent ../parent --change . \\
      --workload asymptotics_i --pairs 10

Each run is ``python3 perfbench/run.py --workload W --seconds 30 --trace 0``
in one checkout, as a fresh process with that checkout as its working
directory; ``--seed S`` passes ``--seed S`` on in place of the workload's
default seed, and the record's command states it.  Even-numbered pairs run
the parent first, odd-numbered pairs the change first, so neither side
always gets the warmer caches.  The last line of each run's output is its
result; the line before it, its provenance.  The record, written to
``BENCH_<workload>.json`` in the change checkout, holds each side's
commit, ``src_sha256`` and ``src_lines`` (the lines of
``src/levy_gqmle/*.py``, as ``wc -l`` counts them), every pair's
end-to-end metrics with ``correct``, ``attempted`` and ``failed``, and per
metric the median and inclusive quartiles of each side, the median change
in percent, the number of pairs where the change's value is lower, the
metric's bound from ``BENCHMARK.json`` and a verdict.  ``--claim`` names
the metric the change claims to improve (``wall_s`` unless given), or
``none`` for a change that claims no gain; the record states it, ``null``
for ``none``.  All four metrics are better lower.  The claimed metric's
verdict is ``met`` when the change is lower in at least nine tenths of the
pairs (ties count for neither) and its median is below the parent's by
more than the parent's interquartile range, else ``not met``.  Every other
metric is ``within bound`` when the change's median exceeds the parent's
by at most the bound (a fraction of the parent's median), ``worse`` when
by more, and ``unresolved`` when the parent's interquartile range is wider
than the bound, unless every run of the change is below every run of the
parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
HOST_KEYS = ("nproc", "cpu_model", "python", "blas_env")
# perfbench's own default run length, spelled out so the record states it
SECONDS = 30


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and the files under ``perfbench/``, by relative path.

    Byte caches and hidden run leftovers (``__pycache__``, ``.perfbench-*``)
    are not part of the benchmark and are skipped.
    """
    files = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    out = {}
    for path in files:
        name = path.relative_to(checkout)
        if path.is_file() and not any(part == "__pycache__" or part.startswith(".") for part in name.parts):
            out[name.as_posix()] = path.read_bytes()
    return out


def check_same_benchmark(parent: Path, change: Path) -> None:
    """Refuse two checkouts whose benchmark definitions differ, or that have none."""
    a, b = benchmark_files(parent), benchmark_files(change)
    for checkout, found in ((parent, a), (change, b)):
        if "BENCHMARK.json" not in found:
            raise SystemExit(f"no BENCHMARK.json in {checkout}")
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    if differ:
        raise SystemExit(f"perfbench/ and BENCHMARK.json differ between {parent} and {change}: {', '.join(differ)}")


def command(workload: str, seed: int | None = None) -> list[str]:
    seeded = [] if seed is None else ["--seed", str(seed)]
    return ["python3", "perfbench/run.py", "--workload", workload, *seeded, "--seconds", str(SECONDS), "--trace", "0"]


def run_once(checkout: Path, workload: str, seed: int | None = None) -> tuple[dict, dict]:
    """(provenance, result) of one ``perfbench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, *command(workload, seed)[1:]],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench in {checkout} exited with code {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def pair_entry(result: dict) -> dict:
    """The record's view of one run: its end-to-end metric values and outcome."""
    entry = {name: result["metrics"][name]["value"] for name in METRICS}
    entry.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    return entry


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def bounds(checkout: Path) -> dict[str, float]:
    """Each end-to-end metric's bound, from ``BENCHMARK.json`` in ``checkout``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def summarize(pairs: list[dict], claim: str | None, bound: dict[str, float]) -> dict:
    """Per metric: each side's median and quartiles, the median change, the
    pairs the change lowered, the bound and the verdict.  With ``claim``
    None every metric gets a bound verdict."""
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        base, new = _spread(parent), _spread(change)
        lower = sum(c < p for p, c in zip(parent, change))
        if name == claim:
            won = lower >= 0.9 * len(pairs) and base["median"] - new["median"] > base["iqr"]
            verdict = "met" if won else "not met"
        elif base["iqr"] > bound[name] * base["median"] and not max(change) < min(parent):
            verdict = "unresolved"
        else:
            verdict = "within bound" if new["median"] <= (1.0 + bound[name]) * base["median"] else "worse"
        out[name] = {
            "parent": base,
            "change": new,
            "median_change_pct": 100.0 * (new["median"] - base["median"]) / base["median"],
            "change_lower": lower,
            "bound": bound[name],
            "verdict": verdict,
        }
    return out


def src_lines(checkout: Path) -> int:
    """``cat src/levy_gqmle/*.py | wc -l`` in ``checkout``: the line count the ROADMAP tracks."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "levy_gqmle").glob("*.py"))


def _side(provenance: dict, checkout: Path) -> dict:
    commit = provenance.get("git_commit")
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                           capture_output=True, text=True, check=False).stdout.strip()
    if commit and dirty:
        commit = f"uncommitted changes on top of {commit}"
    return {"commit": commit, "src_sha256": provenance["src_sha256"], "src_lines": src_lines(checkout)}


def build_record(
    workload: str, sides: dict, host: dict, pairs: list[dict], claim: str | None, bound: dict[str, float],
    seed: int | None = None,
) -> dict:
    """The ``BENCH_<workload>.json`` object for ``pairs`` of ``{"parent": entry, "change": entry}``."""
    return {
        "workload": workload,
        "claimed_metric": claim,
        "command": " ".join(command(workload, seed)),
        "method": (
            f"{len(pairs)} pairs; even-numbered pairs run the parent checkout first, odd-numbered pairs the "
            "change checkout first, each run in its own directory; perfbench and BENCHMARK.json are identical "
            "in both. 'change_lower' counts the pairs where the change's value is below the parent's. The "
            "claimed metric is 'met' when the change is lower in at least 9 of 10 pairs and its median below "
            "the parent's by more than the parent's IQR; any other metric is 'within bound' or 'worse' by its "
            "median against (1 + bound) times the parent's, and 'unresolved' when the parent's IQR exceeds the "
            "bound times its median, unless every change run is below every parent run."
        ),
        "parent": sides["parent"],
        "change": sides["change"],
        "host": {key: host.get(key) for key in HOST_KEYS},
        "pairs": [{"pair": i, "parent": p["parent"], "change": p["change"]} for i, p in enumerate(pairs)],
        "summary": summarize(pairs, claim, bound),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", choices=(*METRICS, "none"), default="wall_s",
                        help="metric the change claims to improve, or none")
    parser.add_argument("--seed", type=int, default=None, help="perfbench's --seed; default: the workload's own")
    ns = parser.parse_args(argv)
    if ns.pairs < 2:
        parser.error("--pairs must be at least 2")
    check_same_benchmark(ns.parent, ns.change)
    checkouts = {"parent": ns.parent, "change": ns.change}
    pairs, provenance = [], {}
    for i in range(ns.pairs):
        pair = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            provenance[side], result = run_once(checkouts[side], ns.workload, ns.seed)
            pair[side] = pair_entry(result)
            print(f"pair {i} {side}: " + json.dumps(pair[side]), file=sys.stderr)
        pairs.append({"parent": pair["parent"], "change": pair["change"]})
    sides = {side: _side(provenance[side], checkout) for side, checkout in checkouts.items()}
    claim = None if ns.claim == "none" else ns.claim
    record = build_record(ns.workload, sides, provenance["change"], pairs, claim, bounds(ns.change), ns.seed)
    out = ns.change / f"BENCH_{ns.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
