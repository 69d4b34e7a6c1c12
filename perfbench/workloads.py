"""The three workloads: inputs, set-up, timed rounds and checks.

Each workload drives driftmon through ``driftmon.cli.main`` in this
process. ``setup`` is the program's work before the timed phase,
``run_round`` one round of the timed commands, and ``check`` compares
the outputs of every round with ``reference``. Sizes are fixed here; the
smoke sizes exist for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference as ref

CALIBRATE = {
    "full": dict(bins=32, train_size=512, lam=0.03, arl0=375.0, replicates=100_000,
                 t_max=500, replay=30_000),
    "smoke": dict(bins=8, train_size=64, lam=0.03, arl0=100.0, replicates=10_000,
                  t_max=170, replay=5_000),
}

MONITOR = {
    "full": dict(classes=4, features=8, train_per_class=128, streams=16, length=1200,
                 tau=400, shift_class=2, shift=1.0, unlabeled_share=0.1,
                 bins=16, lam=0.03, arl0=1000.0, t_max=170, table_replicates=30_000,
                 knn_k=9, ecdd_r=0.2, prior_weight=100.0, ecdd_arl0=20_000.0,
                 ecdd_replicates=200, ecdd_horizon=60_000),
    "smoke": dict(classes=4, features=8, train_per_class=64, streams=2, length=300,
                  tau=150, shift_class=2, shift=1.5, unlabeled_share=0.1,
                  bins=16, lam=0.03, arl0=200.0, t_max=170, table_replicates=10_000,
                  knn_k=9, ecdd_r=0.2, prior_weight=100.0, ecdd_arl0=500.0,
                  ecdd_replicates=200, ecdd_horizon=2_500),
}

BENCH_DELAY = {
    "full": dict(means=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]], shift_class=2,
                 post_mean=[1.5, 0.0], tau=100, post_length=2000, replicates=300,
                 train_per_class=256, arl0=375.0, t_max=200, table_replicates=10_000,
                 cdm_bins=16, pooled_bins=32, lam=0.03, ecdd_p0=0.13, ecdd_r=0.2,
                 sequential_replicates=12),
    "smoke": dict(means=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]], shift_class=2,
                  post_mean=[1.5, 0.0], tau=30, post_length=1500, replicates=40,
                  train_per_class=64, arl0=100.0, t_max=170, table_replicates=10_000,
                  cdm_bins=16, pooled_bins=32, lam=0.03, ecdd_p0=0.13, ecdd_r=0.2,
                  sequential_replicates=4),
}


class SetupError(RuntimeError):
    """A set-up operation failed, so no round can run."""


@dataclass
class Command:
    """One timed command of a round; every round runs the same commands."""

    key: str        # names the command within the round
    seconds: float  # its wall time
    rows: int       # rows it consumed, counted only for the main commands
    main: bool      # counts towards rows_per_s


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def _cli(self, argv: list[str]) -> tuple[bool, str, float]:
        """Run one driftmon command in process: (ok, stdout, wall seconds)."""
        from driftmon import cli
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash counts as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"perfbench: `driftmon {' '.join(argv[:2])}` failed ({code}): "
                  f"{err.getvalue().strip()}", file=sys.stderr)
        return code == 0, out.getvalue(), elapsed

    def _setup_cli(self, argv: list[str]) -> None:
        if not self._cli(argv)[0]:
            raise SetupError(f"set-up command failed: driftmon {' '.join(argv)}")

    def make_inputs(self) -> None:
        """Generate the inputs from the seed; not part of set-up."""

    def setup(self) -> None:
        """The program's work before the timed phase."""

    def run_round(self) -> list[Command]:
        raise NotImplementedError

    def collect(self) -> None:
        """Read the files ``check`` needs, before the run's directory goes."""

    def check(self) -> list[str]:
        raise NotImplementedError

    def useful_row_share(self) -> float:
        return 0.0


def _calibrate_argv(p: dict, bins: int, train_size: int, replicates: int, seed: int,
                    out) -> list[str]:
    return ["calibrate", "--k", str(bins), "--train-size", str(train_size),
            "--lambda", repr(p["lam"]), "--arl0", repr(p["arl0"]),
            "--t-max", str(p["t_max"]), "--replicates", str(replicates),
            "--seed", str(seed), "--out", str(out)]


class Calibrate(Workload):
    """One production-size ``driftmon calibrate`` per round."""

    name = "calibrate"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.p = CALIBRATE["smoke" if smoke else "full"]
        self.table_seed = ref.derive(seed, 1)
        self.replay_seed = ref.derive(seed, 2)
        self.paths = []
        self.payloads = []

    def run_round(self):
        p = self.p
        path = self.workdir / f"table-{len(self.paths)}.json"
        ok, _, elapsed = self._cli(_calibrate_argv(p, p["bins"], p["train_size"],
                                                   p["replicates"], self.table_seed, path))
        self.paths.append(path if ok else None)
        return [Command("calibrate", elapsed, p["replicates"] * p["t_max"] if ok else 0, True)]

    def collect(self):
        self.payloads = [ref.load_table_payload(path) for path in self.paths if path]

    def check(self):
        p = self.p
        expect = {"n_bins": p["bins"], "lambda": p["lam"],
                  "arl0_target": p["arl0"], "train_size": p["train_size"],
                  "t_max": p["t_max"], "replicates": p["replicates"],
                  "seed": self.table_seed}
        failures = []
        for i, payload in enumerate(self.payloads):
            failures += [f"round {i}: {f}" for f in ref.check_table(payload, expect)]
        if self.payloads:
            failures += ref.check_replay(self.payloads[0], p["replay"], self.replay_seed)
        return failures


class Monitor(Workload):
    """Every stream through ``driftmon monitor`` with CDM, then with ECDD-kNN."""

    name = "monitor"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.p = MONITOR["smoke" if smoke else "full"]
        self.table_seed = ref.derive(seed, 11)
        self.limit_seed = ref.derive(seed, 12)
        self.train_path = workdir / "train.csv"
        self.table_path = workdir / "table.json"
        self.stream_paths = []
        self.limit = None
        self.rounds = []   # per round: {"cdm": [report or None], "ecdd": [...]}

    def make_inputs(self):
        (self.train_x, self.train_y), self.streams = ref.monitor_inputs(self.seed, self.p)
        ref.write_csv(self.train_path, self.train_x, self.train_y,
                      np.ones(len(self.train_y), dtype=bool))
        for i, stream in enumerate(self.streams):
            path = self.workdir / f"stream-{i:02d}.csv"
            ref.write_csv(path, *stream)
            self.stream_paths.append(path)

    def setup(self):
        import driftmon.calibration
        import driftmon.ecdd
        p = self.p
        self._setup_cli(_calibrate_argv(p, p["bins"], p["train_per_class"],
                                        p["table_replicates"], self.table_seed,
                                        self.table_path))
        # the same p0 the monitor command estimates, clipped as it clips it
        p0 = driftmon.ecdd.cross_val_error("knn", self.train_x, self.train_y, seed=0,
                                           k=p["knn_k"])
        self.attempted += 1
        try:
            self.limit = driftmon.calibration.calibrate_ecdd_limit(
                min(max(p0, 1e-3), 1.0 - 1e-3), p["ecdd_r"], p["ecdd_arl0"],
                replicates=p["ecdd_replicates"], seed=self.limit_seed,
                prior_weight=p["prior_weight"], horizon=p["ecdd_horizon"])
        except Exception as exc:
            self.failed += 1
            raise SetupError(f"ECDD limit calibration failed: {exc}") from exc

    def _monitor_argv(self, method: str, stream_path) -> list[str]:
        p = self.p
        argv = ["monitor", "--method", method, "--train", str(self.train_path),
                "--stream", str(stream_path), "--seed", "0"]
        if method == "cdm":
            return argv + ["--thresholds", str(self.table_path), "--k", str(p["bins"]),
                           "--lambda", repr(p["lam"])]
        return argv + ["--classifier", "knn", "--knn-k", str(p["knn_k"]),
                       "--ecdd-r", repr(p["ecdd_r"]), "--prior-weight",
                       repr(p["prior_weight"]), "--ecdd-limit", repr(self.limit)]

    def run_round(self):
        reports = {"cdm": [], "ecdd": []}
        commands = []
        for method in ("cdm", "ecdd"):
            for i, path in enumerate(self.stream_paths):
                ok, out, elapsed = self._cli(self._monitor_argv(method, path))
                report = json.loads(out) if ok else None
                reports[method].append(report)
                rows = report["global_t"] if ok and method == "cdm" else 0
                commands.append(Command(f"{method}-{i}", elapsed, rows, method == "cdm"))
        self.rounds.append(reports)
        return commands

    def collect(self):
        import driftmon
        p = self.p
        self.payload = ref.load_table_payload(self.table_path)
        # the histograms the CDM command fits, through the public library call
        monitor = driftmon.fit_cdm(self.train_x, self.train_y,
                                   driftmon.load_table(self.table_path),
                                   n_bins=p["bins"], lam=p["lam"], seed=0)
        self.histograms = {
            m: ([(s.dim, s.threshold, s.direction) for s in det.hist.splits], det.hist.seed)
            for m, det in monitor.detectors.items()
        }

    def check(self):
        p = self.p
        failures = []
        for i, stream in enumerate(self.streams):
            cdm_ref = ref.cdm_reference(stream, self.histograms, self.payload)
            predictions = ref.knn_predict(self.train_x, self.train_y, stream[0], p["knn_k"])
            for r, reports in enumerate(self.rounds):
                where = f"round {r} stream {i}"
                if reports["cdm"][i] is not None:
                    failures += [f"{where}: {f}" for f in
                                 ref.check_cdm_report(reports["cdm"][i], cdm_ref)]
                ecdd = reports["ecdd"][i]
                if ecdd is not None:
                    ecdd_ref = ref.ecdd_reference(stream, predictions, ecdd["p0_estimate"],
                                                  self.limit, p["ecdd_r"], p["prior_weight"])
                    failures += [f"{where}: {f}" for f in
                                 ref.check_ecdd_report(ecdd, ecdd_ref, self.limit)]
        return failures


class BenchDelay(Workload):
    """One ``driftmon bench delay`` with cdm, pooled qtewma and ecdd-LDA."""

    name = "bench-delay"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.p = BENCH_DELAY["smoke" if smoke else "full"]
        self.table_paths = {"cdm": workdir / "table-cdm.json",
                            "qtewma": workdir / "table-qtewma.json"}
        self.table_seeds = {"cdm": ref.derive(seed, 21), "qtewma": ref.derive(seed, 22)}
        self.config_path = workdir / "delay.json"
        self.rounds = []   # per round: (csv rows, [(bound arguments, report)])

    def make_inputs(self):
        p = self.p
        post = [list(m) for m in p["means"]]
        post[p["shift_class"] - 1] = list(p["post_mean"])
        common = {"lambda": p["lam"], "train_per_class": p["train_per_class"]}
        config = {
            "format_version": 1,
            "seed": ref.derive(self.seed, 23) % 2**31,
            "replicates": p["replicates"],
            "post_length": p["post_length"],
            "mixture": {"means": p["means"], "post_means": post, "tau": p["tau"]},
            "methods": [
                {"kind": "cdm", "name": "cdm", "table": str(self.table_paths["cdm"]),
                 "bins": p["cdm_bins"], **common},
                {"kind": "qtewma", "name": "qtewma",
                 "table": str(self.table_paths["qtewma"]), "bins": p["pooled_bins"],
                 **common},
                {"kind": "ecdd", "name": "ecdd", "classifier": "lda", "arl0": p["arl0"],
                 "p0": p["ecdd_p0"], "r": p["ecdd_r"],
                 "train_per_class": p["train_per_class"]},
            ],
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)

    def setup(self):
        p = self.p
        classes = len(p["means"])
        sizes = {"cdm": (p["cdm_bins"], p["train_per_class"]),
                 "qtewma": (p["pooled_bins"], p["train_per_class"] * classes)}
        for name, (bins, train_size) in sizes.items():
            self._setup_cli(_calibrate_argv(p, bins, train_size, p["table_replicates"],
                                            self.table_seeds[name], self.table_paths[name]))

    def run_round(self):
        import driftmon.bench
        original = driftmon.bench.estimate_delay
        signature = inspect.signature(original)
        calls = []

        def capture(*args, **kwargs):
            report = original(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs), report))
            return report

        out_path = self.workdir / f"delay-{len(self.rounds)}.csv"
        driftmon.bench.estimate_delay = capture
        try:
            ok, _, elapsed = self._cli(["bench", "delay", "--config", str(self.config_path),
                                        "--out", str(out_path)])
        finally:
            driftmon.bench.estimate_delay = original
        rows = []
        if ok:
            with open(out_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        self.rounds.append((rows, calls))
        prepared = sum(rep.replicates * rep.horizon for _, rep in calls)
        return [Command("bench-delay", elapsed, prepared, True)]

    def useful_row_share(self):
        prepared = consumed = 0
        for _, calls in self.rounds:
            for _, rep in calls:
                prepared += rep.replicates * rep.horizon
                consumed += int(np.where(rep.t_star > 0, rep.t_star, rep.horizon).sum())
        return consumed / prepared if prepared else 0.0

    def collect(self):
        self.payloads = {name: ref.load_table_payload(path)
                         for name, path in self.table_paths.items()}

    def check(self):
        import driftmon.bench
        p = self.p
        priors = {"cdm": [1.0 / len(p["means"])] * len(p["means"]), "qtewma": [1.0]}
        failures = []
        for r, (rows, calls) in enumerate(self.rounds):
            by_name = {row["method"]: row for row in rows}
            if rows and set(by_name) != {"cdm", "qtewma", "ecdd"}:
                failures.append(f"round {r}: methods {sorted(by_name)}")
                continue
            failures += [f"round {r}: {f}" for f in ref.check_delay_rows(rows)]
            for name in ("cdm", "qtewma"):
                if name in by_name:
                    failures += [f"round {r}: {f}" for f in ref.check_false_alarms(
                        by_name[name], self.payloads[name], p["tau"], priors[name])]
            if rows:
                failures += [f"round {r}: {f}" for f in
                             ref.check_delay_order(by_name["cdm"], by_name["qtewma"])]
            for bound, report in calls:
                bound.apply_defaults()
                args = bound.arguments
                row = by_name.get(report.method)
                if row is None or int(row["detections"]) != report.detections:
                    failures.append(f"round {r}: {report.method} row does not match "
                                    f"its report")
                if r:
                    continue  # every round runs the same command; compare engines once
                n = p["sequential_replicates"]
                seq = driftmon.bench.estimate_delay(
                    args["method"], args["cfg"], n, args["seed"],
                    post_length=args["post_length"], engine="sequential")
                if not np.array_equal(seq.t_star, report.t_star[:n]):
                    failures.append(f"{report.method}: sequential t* {seq.t_star.tolist()} "
                                    f"!= batch {report.t_star[:n].tolist()}")
                if (seq.m_star is None) != (report.m_star is None) or (
                        seq.m_star is not None
                        and not np.array_equal(seq.m_star, report.m_star[:n])):
                    failures.append(f"{report.method}: sequential m* differs from batch")
        return failures


WORKLOADS = {cls.name: cls for cls in (Calibrate, Monitor, BenchDelay)}
