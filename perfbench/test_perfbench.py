"""Smoke runs of every workload, and proof that every check can fail.

    python3 -m pytest perfbench

Each workload runs end to end at its smoke size and its checks pass;
then a deliberately corrupted copy of its outputs must fail each check.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import reference as ref  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = run.run_workload(name, seed=3, seconds=0, trace=False, smoke=True)
        return runs[name]
    return get


def fails(workload, corrupt) -> list[str]:
    broken = copy.deepcopy(workload)
    corrupt(broken)
    return broken.check()


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_passes_its_checks(smoke, name):
    result, workload = smoke(name)
    assert workload.check() == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer(name):
    result, _ = run.run_workload(name, seed=4, seconds=0, trace=True, smoke=True)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER


def test_calibrate_checks_fail_on_a_corrupted_table(smoke):
    _, w = smoke("calibrate")

    def set_gamma_1(broken):
        broken.payloads[0]["gamma"][0] = 0.5 * broken.payloads[0]["gamma"][0]

    def set_h_1(broken):
        broken.payloads[0]["thresholds"][0] *= 1.001

    def set_negative_h(broken):
        broken.payloads[0]["thresholds"][7] = -1.0

    def set_metadata(broken):
        broken.payloads[0]["replicates"] += 1

    corruptions = {"gamma_1": set_gamma_1, "h_1": set_h_1, "some h_t <= 0": set_negative_h,
                   "table replicates": set_metadata}
    for message, corrupt in corruptions.items():
        assert any(message in f for f in fails(w, corrupt)), message


def test_replay_band_rejects_the_strict_rule_at_the_first_steps(smoke):
    _, w = smoke("calibrate")
    payload = copy.deepcopy(w.payloads[0])
    payload["gamma"][:3] = [0.0, 0.0, 0.0]   # no randomization where the statistic ties h_t
    assert ref.check_replay(payload, w.p["replay"], w.replay_seed)
    assert not ref.check_replay(w.payloads[0], w.p["replay"], w.replay_seed)


def test_monitor_checks_fail_on_corrupted_reports(smoke):
    _, w = smoke("monitor")
    cdm = lambda b: b.rounds[0]["cdm"][0]  # noqa: E731
    ecdd = lambda b: b.rounds[0]["ecdd"][0]  # noqa: E731

    def shift(report, key):
        report[key] = (report[key] or 0) + 1

    corruptions = [
        ("cdm t_star", lambda b: shift(cdm(b), "t_star")),
        ("cdm m_star", lambda b: cdm(b).update(m_star=(cdm(b)["m_star"] or 1) % 4 + 1)),
        ("cdm global_t", lambda b: shift(cdm(b), "global_t")),
        ("cdm class_counts", lambda b: shift(cdm(b)["class_counts"], "1")),
        ("cdm statistics", lambda b: cdm(b)["statistics"].update(
            {"2": cdm(b)["statistics"]["2"] * (1 + 1e-6)})),
        ("ecdd t_star", lambda b: shift(ecdd(b), "t_star")),
        ("ecdd n_labeled", lambda b: shift(ecdd(b), "n_labeled")),
        ("ecdd statistic", lambda b: ecdd(b).update(statistic=ecdd(b)["statistic"] + 1e-6)),
        ("ecdd limit", lambda b: ecdd(b).update(limit=ecdd(b)["limit"] + 0.5)),
        # gamma_1 = 1 makes every class's first sample fire in the reference
        ("cdm t_star", lambda b: b.payload["gamma"].__setitem__(0, 1.0)),
    ]
    for message, corrupt in corruptions:
        assert any(message in f for f in fails(w, corrupt)), message


def test_bench_delay_checks_fail_on_corrupted_reports(smoke):
    _, w = smoke("bench-delay")
    rows = lambda b: {row["method"]: row for row in b.rounds[0][0]}  # noqa: E731
    report = lambda b, name: next(  # noqa: E731
        rep for _, rep in b.rounds[0][1] if rep.method == name)

    def swap_means(b):
        fast, slow = rows(b)["cdm"], rows(b)["qtewma"]
        fast["mean"], slow["mean"] = slow["mean"], fast["mean"]

    def t_star_off_by_one(b):
        report(b, "cdm").t_star[0] += 1

    def m_star_swapped(b):
        m_star = report(b, "cdm").m_star
        m_star[0] = m_star[0] % 4 + 1

    def ecdd_t_star_off_by_one(b):
        report(b, "ecdd").t_star[0] += 1

    def all_false_alarms(b):
        row = rows(b)["cdm"]
        row["false_alarms"] = str(int(row["replicates"]) - int(row["censored"]))
        row["detections"] = "0"

    corruptions = {
        "detections + false alarms + censored": lambda b: rows(b)["ecdd"].update(
            censored=str(int(rows(b)["ecdd"]["censored"]) + 1)),
        "false alarms before tau": all_false_alarms,
        "is not below": swap_means,
        "sequential t*": t_star_off_by_one,
        "sequential m*": m_star_swapped,
        "ecdd: sequential t*": ecdd_t_star_off_by_one,
    }
    for message, corrupt in corruptions.items():
        assert any(message in f for f in fails(w, corrupt)), message


def test_result_line_and_exit_code():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "calibrate",
                           "--seed", "5", "--seconds", "0", "--smoke"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"].keys() == END_TO_END
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "monitor",
                           "--seed", "1", "--seconds", "1", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_fixes_the_inputs():
    import workloads
    p = workloads.MONITOR["smoke"]
    a, b, c = (ref.monitor_inputs(s, p) for s in (8, 8, 9))
    assert np.array_equal(a[0][0], b[0][0]) and np.array_equal(a[1][0][0], b[1][0][0])
    assert not np.array_equal(a[1][0][0], c[1][0][0])
