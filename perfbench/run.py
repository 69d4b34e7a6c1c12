"""driftmon benchmark: set up, run timed rounds, check, print one JSON line.

    python3 perfbench/run.py --workload calibrate|monitor|bench-delay|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                             [--inputs DIR]

Run from the root of a driftmon checkout; the program is imported from
its ``src`` directory. A run makes its inputs from ``--seed``, sets up
``N_SETUPS`` times, then repeats whole rounds of the workload's commands
until ``--seconds`` have passed, and checks every round's outputs.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured without tracing; with
``--trace 1`` they are the per-layer ones, from spans around the calls
into driftmon's modules. ``--workload all`` runs each workload in its
own process, one after the other. ``--inputs DIR`` only writes the
workload's generated inputs and set-up files to DIR.
"""

from __future__ import annotations

import os
import sys

# Cap numpy's BLAS pool at the number of usable cores, before numpy loads.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 0 < int(_value) <= _NPROC:
        os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
N_SETUPS = 3


def import_program() -> None:
    """Import driftmon from this checkout's sources, and from nowhere else."""
    package = SRC / "driftmon"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no driftmon sources at {package}")
    sys.path.insert(0, str(SRC))
    import driftmon
    if Path(driftmon.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported driftmon from {driftmon.__file__}, "
                         f"not from {package}")


def startup_probe() -> None:
    """A fresh interpreter importing the CLI: what every command pays first."""
    subprocess.run([sys.executable, "-c", "import driftmon.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
                   stdout=subprocess.DEVNULL)


def round_figures(rounds) -> tuple[float, float]:
    """(round_s, rows_per_s) from each command's fastest time over the rounds.

    Every round runs the same commands on the same inputs, so a slower
    repetition was slowed by something outside the program: on a shared
    machine the speed of the same code swings by up to 2x in spells of a
    few seconds, and the fastest repetition is the steadiest estimate of
    the program's own cost (as ``timeit`` reports it). round_s sums the
    fastest times of all commands; rows_per_s divides the rows of the main
    commands by the sum of their fastest times.
    """
    fastest = {c.key: min(r[i].seconds for r in rounds) for i, c in enumerate(rounds[0])}
    main = [c for c in rounds[0] if c.main]
    main_s = sum(fastest[c.key] for c in main)
    return sum(fastest.values()), sum(c.rows for c in main) / main_s if main_s else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Set up, run rounds for ``seconds``, check; returns (result, workload)."""
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[name](seed, smoke, workdir)
        workload.make_inputs()
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            setup_times = []
            for _ in range(N_SETUPS):
                start = time.perf_counter()
                startup_probe()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.phase = "round"
            rounds = []
            started = time.perf_counter()
            while True:
                rounds.append(workload.run_round())
                if time.perf_counter() - started >= seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.measure_peak_allocations()
        workload.collect()
        failures = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    setup_s = statistics.median(setup_times)
    round_s, rows_per_s = round_figures(rounds)
    if tracer:
        metrics = tracing.layer_metrics(tracer, len(setup_times), len(rounds),
                                        setup_s, round_s, workload.useful_row_share())
        tracer.write_spans(OUT / f"trace-{name}-seed{seed}.csv")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
        }
    result = {"correct": not failures, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    return result, workload


def run_all(args) -> int:
    """Each workload in its own process; prints each result line."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["calibrate", "monitor", "bench-delay", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--inputs", type=Path,
                        help="write the generated inputs and set-up files here, then stop")
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.inputs:
        args.inputs.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                      args.inputs.resolve())
        workload.make_inputs()
        workload.setup()
        for path in sorted(args.inputs.iterdir()):
            print(path)
        return 0
    try:
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.smoke)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
