"""Paired perfbench runs of a change against its parent; writes BENCH_<pr>.json.

    python3 tools/bench_pair.py --base-dir DIR --out BENCH_<pr>.json
                                [--pairs 10] [--workload NAME ...] [--smoke]

DIR holds the parent's tree, unpacked with
``git archive <rev> | tar -x -C DIR``; the change is the tree this script
sits in. For every workload, pair i runs ``perfbench/run.py`` once in each
tree, both with seed ``FIRST_SEED + i - 1`` and the run length that
BENCHMARK.json sets (0 s with ``--smoke``, which also passes ``--smoke``
to perfbench). Odd pairs run the base first, even pairs the change, so
drift on a shared machine falls on both sides alike.

The JSON holds every run (its ``correct``, ``attempted``, ``failed``,
exit code, metrics and the child processes' CPU seconds from
``RUSAGE_CHILDREN``) and, per workload and metric, each side's median
and quartiles, the pairs the change won (ties count for neither side),
a two-sided sign-test p-value, the change's relative change, and a
verdict against BENCHMARK.json's bound: ``within_bound``,
``worse_than_bound``, or ``unresolved`` where the base's interquartile
range is wider than the bound (relative to its median) and the two
sides' runs overlap. ``gain`` applies the claim rule: pairs won by the
change in at least nine tenths of the pairs run (a pair missing the
metric counts against it), a median difference wider than the base's
interquartile range, and no pair whose change run failed more
operations than its base run. CPU seconds are reported only: no bound
applies to them. Exit status 1 when any run was not correct or failed
an operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE_DIR = Path(__file__).resolve().parent.parent
FIRST_SEED = 1001  # perfbench seed of pair 1; pair i runs FIRST_SEED + i - 1
CPU = {"name": "child_cpu_s", "unit": "s", "better": "lower", "bound": None}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
             smoke: bool) -> dict:
    """One perfbench run in ``tree``: its result line and child CPU seconds."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return {
        "correct": bool(result and result["correct"]),
        "attempted": result["attempted"] if result else None,
        "failed": result["failed"] if result else None,
        "exit_code": proc.returncode,
        "metrics": ({name: m["value"] for name, m in result["metrics"].items()}
                    if result else {}) | {CPU["name"]: cpu},
    }


def failed_ops(run: dict) -> float:
    """A run's failed operations; a run with no result failed them all."""
    return math.inf if run["failed"] is None else run["failed"]


def compare(metric: dict, base_runs: list[dict], change_runs: list[dict]) -> dict:
    """One metric's summary over the pairs run, ``base_runs[i]`` against ``change_runs[i]``."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in zip(base_runs, change_runs)
             if name in b["metrics"] and name in c["metrics"]]
    out = {"unit": metric["unit"], "better": metric["better"], "pairs": len(base_runs),
           "measured": len(pairs), "bound": bound}
    if not pairs:
        return out | {"gain": False} | ({"verdict": "unresolved"} if bound is not None else {})
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    base, change = quartiles([b for b, _ in pairs]), quartiles([c for _, c in pairs])
    wins = sum(better(c, b) for b, c in pairs)
    losses = sum(better(b, c) for b, c in pairs)
    relative = (change["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    worse_by = relative if lower else -relative
    more_failures = any(failed_ops(c) > failed_ops(b) for b, c in zip(base_runs, change_runs))
    out |= {
        "base": base, "change": change, "change_wins": wins, "change_losses": losses,
        "sign_test_p": sign_test_p(wins, losses), "relative_change": relative,
        "gain": (wins >= 0.9 * len(base_runs) and worse_by < 0 and not more_failures
                 and abs(change["median"] - base["median"]) > base["q3"] - base["q1"]),
    }
    if bound is not None:
        spread = (base["q3"] - base["q1"]) / abs(base["median"]) if base["median"] else math.inf
        bs, cs = [b for b, _ in pairs], [c for _, c in pairs]
        apart = max(cs) < min(bs) or min(cs) > max(bs)  # every run on one side of the other
        out["verdict"] = ("unresolved" if spread > bound and not apart
                          else "within_bound" if worse_by <= bound else "worse_than_bound")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base-dir", type=Path, required=True,
                        help="the parent's tree, from git archive")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's smoke sizes and no timed rounds")
    args = parser.parse_args(argv)
    spec = json.loads((CHANGE_DIR / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.pairs < 1 or not (args.base_dir / "perfbench" / "run.py").is_file():
        parser.error(f"need --pairs >= 1, workloads among {names} (unknown: {unknown}) "
                     f"and a tree with perfbench/run.py at {args.base_dir}")
    seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    trees = {"base": args.base_dir.resolve(), "change": CHANGE_DIR}

    report = {
        "pairs": args.pairs, "seeds": [FIRST_SEED + i for i in range(args.pairs)],
        "seconds": seconds, "smoke": args.smoke,
        "host": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = FIRST_SEED + pair - 1
            for order, side in enumerate(("base", "change") if pair % 2 else ("change", "base")):
                run = run_once(trees[side], spec["command"], workload, seed, seconds, args.smoke)
                runs.append({"pair": pair, "side": side, "first": order == 0, "seed": seed, **run})
                ok &= run["correct"] and run["failed"] == 0
                print(f"bench_pair: {workload} pair {pair} {side}: correct={run['correct']} "
                      f"{json.dumps(run['metrics'])}", file=sys.stderr)
        by_side = {side: [r for r in runs if r["side"] == side] for side in trees}
        report["workloads"][workload] = {
            "metrics": {m["name"]: compare(m, by_side["base"], by_side["change"])
                        for m in spec["end_to_end"] + [CPU]},
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
