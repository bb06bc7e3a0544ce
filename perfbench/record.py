"""Record reference outputs for ``run.py``'s output checks.

  python3 perfbench/record.py --workload mc_table_ii --seeds 0 1 2

runs each workload once per seed at the current commit, checks its gates,
and stores what ``Workload.entry`` extracts in ``perfbench/reference.json``.
Per-replication estimates of the replication table are kept for the
default seed only; other seeds keep per-design counts, means and sds.

A reference pins the program's output: re-record only in a change that
means to alter results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Refused  # noqa: E402

REFERENCE = HERE / "reference.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    ns = parser.parse_args()
    w = WORKLOADS[ns.workload]
    reference = json.loads(REFERENCE.read_text())
    for seed in ns.seeds:
        inputs = w.setup(seed)
        work = Path(tempfile.mkdtemp(prefix=".record-", dir=HERE))
        try:
            out = w.outputs(w.call(inputs, work))
        except Refused as exc:
            print(f"{ns.workload} seed {seed}: refused, not recorded: {exc}", file=sys.stderr)
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = w.gates(out, inputs)
        if problems:
            print(f"{ns.workload} seed {seed}: gates fail, not recorded: {problems}", file=sys.stderr)
            return 1
        entry = w.entry(out)
        if seed != w.default_seed:
            for d in entry.get("designs", []):
                d.pop("estimates", None)
        reference.setdefault(ns.workload, {})[str(seed)] = entry
        REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
        print(f"recorded {ns.workload} seed {seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
