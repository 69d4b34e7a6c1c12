"""tools/bench_pair.py: the sign test, and a smoke run of a tree against its copy."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_pair.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    return bench_pair


def test_sign_test_p_values():
    bench_pair = load_bench_pair()
    assert bench_pair.sign_test_p(10, 0) == bench_pair.sign_test_p(0, 10) == 2 / 1024
    assert bench_pair.sign_test_p(9, 1) == 22 / 1024
    assert bench_pair.sign_test_p(5, 5) == bench_pair.sign_test_p(0, 0) == 1.0


def runs(values, failed=0):
    return [{"failed": failed, "metrics": {"t": v}} for v in values]


def test_compare_counts_every_pair_run_and_failed_operations():
    compare = load_bench_pair().compare
    metric = {"name": "t", "unit": "s", "better": "lower", "bound": 0.1}
    base = runs([10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1])
    faster = runs([5.0] * 10)
    m = compare(metric, base, faster)
    assert m["gain"] and m["change_wins"] == 10 and m["verdict"] == "within_bound"
    # a pair without the metric counts against the claim: 9 of 10 won, then 8 of 10
    del faster[0]["metrics"]["t"]
    m = compare(metric, base, faster)
    assert (m["pairs"], m["measured"], m["change_wins"]) == (10, 9, 9) and m["gain"]
    del faster[1]["metrics"]["t"]
    assert not compare(metric, base, faster)["gain"]
    # a change run that failed more operations than its base run voids the claim
    assert not compare(metric, base, runs([5.0] * 9) + runs([5.0], failed=1))["gain"]
    assert not compare(metric, base, runs([5.0] * 9) + runs([5.0], failed=None))["gain"]
    assert compare(metric, runs([5.0] * 10, failed=None), runs([4.0] * 10, failed=None))["gain"]
    assert compare(metric, base, runs([12.0] * 10))["verdict"] == "worse_than_bound"


def test_compare_leaves_a_spread_wider_than_the_bound_unresolved():
    compare = load_bench_pair().compare
    metric = {"name": "t", "unit": "s", "better": "lower", "bound": 0.1}
    base = runs([8.0, 10.0, 12.0, 9.0, 11.0])  # quartiles 9-11: 20% of the median
    assert compare(metric, base, runs([8.5, 10.5, 12.5, 9.5, 11.5]))["verdict"] == "unresolved"
    assert compare(metric, base, runs([7.0] * 5))["verdict"] == "within_bound"
    assert compare(metric, base, runs([13.0] * 5))["verdict"] == "worse_than_bound"
    unbounded = compare(metric | {"bound": None}, base, runs([10.0] * 5))
    assert "verdict" not in unbounded and not unbounded["gain"]


def test_a_tree_against_its_copy(tmp_path):
    base = tmp_path / "base"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, base / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", base)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base-dir", str(base), "--smoke",
                           "--pairs", "2", "--workload", "calibrate", "--out", str(out)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["pairs"] == 2 and report["smoke"] and list(report["workloads"]) == ["calibrate"]
    runs = report["workloads"]["calibrate"]["runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (1, "base", True), (1, "change", False), (2, "change", True), (2, "base", False)]
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1 for r in runs)
    assert all(r["metrics"]["child_cpu_s"] > 0 for r in runs)
    metrics = report["workloads"]["calibrate"]["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]} | {"child_cpu_s"}
    for name, m in metrics.items():
        assert m["pairs"] == m["measured"] == 2 and m["change_wins"] + m["change_losses"] <= 2
        assert m["sign_test_p"] >= 0.5  # two pairs can never reject
        for side in ("base", "change"):
            assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
        assert ("verdict" in m) == (name != "child_cpu_s")
