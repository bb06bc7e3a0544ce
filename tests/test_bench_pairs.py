"""The alternating-pairs record that tools/bench_pairs.py writes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(wall, cpu, rss, setup, failed=0):
    values = dict(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss, setup_s=setup)
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def _keys(obj):
    """Nested key structure of a record, with the pairs reduced to their first."""
    if isinstance(obj, dict):
        return {k: _keys(v) for k, v in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [_keys(obj[0])]
    return None


@pytest.fixture
def record():
    walls = [(3.0, 2.0), (2.0, 1.5), (4.0, 1.0), (2.5, 2.6), (3.5, 1.2)]
    pairs = [
        {"parent": bench_pairs.pair_entry(_result(p, 2 * p, 100.0, 1.5)),
         "change": bench_pairs.pair_entry(_result(c, 2 * c, 101.0, 1.4, failed=i == 4))}
        for i, (p, c) in enumerate(walls)
    ]
    sides = {"parent": {"commit": "a" * 40, "src_sha256": "1" * 64},
             "change": {"commit": "b" * 40, "src_sha256": "2" * 64}}
    blas_env = dict.fromkeys(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"])
    host = {"nproc": 2, "cpu_model": "cpu", "python": "3.11", "blas_env": blas_env, "workload": "w"}
    return bench_pairs.build_record("asymptotics_i", sides, host, pairs, "wall_s", BOUNDS)


BOUNDS = {"wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1, "setup_s": 0.25}
COMMITTED = ["BENCH_mc_table_ii.json", "BENCH_asymptotics_i.json", "BENCH_invariant_iii.json"]


def test_bounds_read_from_benchmark_json():
    assert bench_pairs.bounds(ROOT) == BOUNDS


def test_record_has_the_committed_schema(record):
    for name in COMMITTED:
        assert _keys(record) == _keys(json.loads((ROOT / name).read_text())), name
    assert record["command"] == "python3 perfbench/run.py --workload asymptotics_i --seconds 30 --trace 0"
    assert set(record["host"]) == {"nproc", "cpu_model", "python", "blas_env"}
    assert record["claimed_metric"] == "wall_s"


def test_summary_of_fake_pairs(record):
    wall = record["summary"]["wall_s"]
    # parent walls 2.0 2.5 3.0 3.5 4.0, change walls 1.0 1.2 1.5 2.0 2.6
    assert wall["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "iqr": 1.0}
    assert wall["change"]["median"] == 1.5
    assert wall["change"]["q1"] == pytest.approx(1.2) and wall["change"]["q3"] == pytest.approx(2.0)
    assert wall["median_change_pct"] == pytest.approx(-50.0)
    assert wall["change_lower"] == 4
    # lower in 4 of 5 pairs is short of nine tenths, whatever the gap
    assert wall["bound"] == 0.25 and wall["verdict"] == "not met"
    assert record["summary"]["peak_rss_mb"]["change_lower"] == 0
    assert record["summary"]["peak_rss_mb"]["verdict"] == "within bound"
    assert record["summary"]["setup_s"]["change_lower"] == 5
    # cpu is twice the wall on each side, so its IQR is as wide against the median
    assert record["summary"]["cpu_s"]["verdict"] == "unresolved"
    assert [p["pair"] for p in record["pairs"]] == list(range(5))
    assert record["pairs"][4]["change"]["failed"] == 1
    assert record["pairs"][0]["parent"] == {"wall_s": 3.0, "cpu_s": 6.0, "peak_rss_mb": 100.0, "setup_s": 1.5,
                                            "correct": True, "attempted": 10, "failed": 0}


def test_summary_reproduces_committed_record():
    # every verdict of a committed record follows from its pairs and the bounds
    for name in COMMITTED:
        committed = json.loads((ROOT / name).read_text())
        summary = bench_pairs.summarize(committed["pairs"], committed["claimed_metric"], bench_pairs.bounds(ROOT))
        assert summary == committed["summary"], name


def _pairs(parent, change):
    return [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent,change,claimed,want", [
    # claimed: 9 of 10 lower and a median gap of 1.0 against a parent IQR of 0.5
    ([10.0 + 0.1 * i for i in range(10)], [9.0] * 9 + [20.0], True, "met"),
    # 8 of 10 lower
    ([10.0 + 0.1 * i for i in range(10)], [9.0] * 8 + [20.0, 20.0], True, "not met"),
    # 10 of 10 lower, but by less than the parent's IQR
    ([10.0 + 0.1 * i for i in range(10)], [10.0 + 0.1 * i - 0.05 for i in range(10)], True, "not met"),
    # not claimed: 20% above with a tight parent is within the 25% bound, 30% above is worse
    ([10.0] * 10, [12.0] * 10, False, "within bound"),
    ([10.0] * 10, [13.0] * 10, False, "worse"),
    # a parent IQR above the bound leaves the metric unresolved, unless every change run is lower
    ([5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0, 15.0], [10.0] * 10, False, "unresolved"),
    ([5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0, 15.0], [4.0] * 10, False, "within bound"),
])
def test_verdicts(monkeypatch, parent, change, claimed, want):
    monkeypatch.setattr(bench_pairs, "METRICS", ("wall_s",))
    summary = bench_pairs.summarize(_pairs(parent, change), "wall_s" if claimed else "cpu_s", {"wall_s": 0.25})
    assert summary["wall_s"]["verdict"] == want


def _benchmark_checkout(path):
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "paths": ["perfbench"], "end_to_end": [{"name": k, "bound": v} for k, v in BOUNDS.items()]}) + "\n")
    (path / "perfbench" / "run.py").write_bytes(b"print(1)\n")
    return path


def test_main_alternates_which_side_runs_first(tmp_path, monkeypatch):
    parent = _benchmark_checkout(tmp_path / "parent")
    change = _benchmark_checkout(tmp_path / "change")
    calls = []

    def fake_run_once(checkout, workload, seed=None):
        calls.append(checkout)
        return {"src_sha256": checkout.name}, _result(2.0 if checkout == parent else 1.0, 3.0, 100.0, 1.5)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "_side", lambda prov, checkout: {"commit": None, "src_sha256": prov["src_sha256"]})
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "4",
                            "--claim", "setup_s"]) == 0
    assert calls == [parent, change, change, parent, parent, change, change, parent]
    record = json.loads((change / "BENCH_w.json").read_text())
    assert record["claimed_metric"] == "setup_s"
    assert record["summary"]["wall_s"]["change_lower"] == 4
    assert {name: m["bound"] for name, m in record["summary"].items()} == BOUNDS
    assert all(list(p) == ["pair", "parent", "change"] for p in record["pairs"])


def test_main_claim_none_gives_every_metric_a_bound_verdict(tmp_path, monkeypatch):
    # the change is lower in every pair on wall_s, which a claim would call
    # "met"; claiming nothing, it is a bound verdict like the rest
    parent = _benchmark_checkout(tmp_path / "parent")
    change = _benchmark_checkout(tmp_path / "change")

    def fake_run_once(checkout, workload, seed=None):
        return {"src_sha256": checkout.name}, _result(2.0 if checkout == parent else 1.0, 3.0, 100.0, 1.5)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "_side", lambda prov, checkout: {"commit": None, "src_sha256": prov["src_sha256"]})
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "2",
                            "--claim", "none"]) == 0
    record = json.loads((change / "BENCH_w.json").read_text())
    assert record["claimed_metric"] is None
    assert {name: m["verdict"] for name, m in record["summary"].items()} == dict.fromkeys(BOUNDS, "within bound")
    assert record["summary"] == bench_pairs.summarize(record["pairs"], None, BOUNDS)


@pytest.mark.parametrize("seed", [None, 1])
def test_main_passes_the_seed_to_perfbench_and_the_record(tmp_path, monkeypatch, seed):
    parent = _benchmark_checkout(tmp_path / "parent")
    change = _benchmark_checkout(tmp_path / "change")
    argvs = []

    def fake_subprocess_run(argv, cwd, **kwargs):
        argvs.append(argv[1:])
        result = _result(2.0 if cwd == parent else 1.0, 3.0, 100.0, 1.5)
        lines = [json.dumps({"provenance": {"src_sha256": cwd.name}}), json.dumps(result)]
        return subprocess.CompletedProcess(argv, 0, "\n".join(lines) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(bench_pairs, "_side", lambda prov, checkout: {"commit": None, "src_sha256": prov["src_sha256"]})
    extra = [] if seed is None else ["--seed", str(seed)]
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "2",
                            *extra]) == 0
    want = ["perfbench/run.py", "--workload", "w", *extra, "--seconds", "30", "--trace", "0"]
    assert argvs == [want] * 4
    record = json.loads((change / "BENCH_w.json").read_text())
    assert record["command"] == " ".join(["python3", *want])


@pytest.mark.parametrize("edit", ["perfbench", "extra_file", "benchmark_json", "no_benchmark_json"])
def test_main_refuses_differing_benchmarks(tmp_path, monkeypatch, edit):
    parent = _benchmark_checkout(tmp_path / "parent")
    change = _benchmark_checkout(tmp_path / "change")
    # byte caches and hidden run leftovers are not part of the benchmark
    for checkout, data in ((parent, b"a"), (change, b"b")):
        (checkout / "perfbench" / "__pycache__").mkdir()
        (checkout / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(data)
        (checkout / "perfbench" / ".perfbench-1").mkdir()
        (checkout / "perfbench" / ".perfbench-1" / "out.json").write_bytes(data)
    bench_pairs.check_same_benchmark(parent, change)

    if edit == "perfbench":
        (change / "perfbench" / "run.py").write_bytes(b"print(2)\n")
    elif edit == "extra_file":
        (parent / "perfbench" / "spans.py").write_bytes(b"")
    elif edit == "benchmark_json":
        (change / "BENCHMARK.json").write_text((change / "BENCHMARK.json").read_text() + " ")
    else:
        (parent / "BENCHMARK.json").unlink()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    with pytest.raises(SystemExit, match="differ|no BENCHMARK.json"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "2"])
    assert not (change / "BENCH_w.json").exists()
