"""Spans around the calls into driftmon's public functions.

The tracer replaces a function at the place where a driftmon module
looks it up (a module attribute or a class attribute) with a wrapper
that records one span per call: layer name, start, end, the span that
was open when it started, and a count of the items the call handled.
Spans stay in memory; ``write_spans`` writes them out once the run ends.
The program itself is not modified, and ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from array import array

import numpy as np

PHASES = ("setup", "round")


def _n_rows(args, index):
    x = np.asarray(args[index])
    return 1 if x.ndim < 2 else int(x.shape[0])


def _calibration_steps(args, kwargs, result):
    return int(result.replicates) * int(result.t_max)


def _batch_row_steps(args, kwargs, result):
    bins, lengths = args[0], args[1]
    lengths = np.minimum(np.asarray(lengths, dtype=np.int64), bins.shape[1])
    return int(np.where(result > 0, result, lengths).sum())


# (layer, [(module, attribute), ...], items(args, kwargs, result) or None)
# Each site is where a driftmon module looks the function up at call time.
FUNCTION_SITES = [
    ("calibration.calibrate_thresholds", [("driftmon.cli", "calibrate_thresholds")],
     _calibration_steps),
    ("calibration.calibrate_ecdd_limit", [("driftmon.cli", "calibrate_ecdd_limit"),
                                          ("driftmon.calibration", "calibrate_ecdd_limit")],
     None),
    ("datastreams.iter_csv_stream", [("driftmon.cli", "iter_csv_stream"),
                                     ("driftmon.datastreams", "iter_csv_stream")], None),
    ("quanttree.locate_bin", [("driftmon.qt_ewma", "locate_bin")], None),
    ("cdm.fit_cdm", [("driftmon.cli", "fit_cdm")], None),
    ("thresholds.load_table", [("driftmon.cli", "load_table")], None),
    ("cli.monitor", [("driftmon.cli", "cmd_monitor")], None),
    ("ecdd.ecdd_update", [("driftmon.ecdd", "ecdd_update")], None),
    ("ecdd.cross_val_error", [("driftmon.cli", "cross_val_error"),
                              ("driftmon.ecdd", "cross_val_error")], None),
    ("quanttree.build_quanttree", [("driftmon.cdm", "build_quanttree")], None),
    ("quanttree.locate_bins", [("driftmon.bench", "locate_bins")], lambda a, k, r: len(r)),
    ("datastreams.generate_stream", [("driftmon.bench", "generate_stream")],
     lambda a, k, r: len(r)),
    ("datastreams.sample_training", [("driftmon.bench", "sample_training")], None),
    ("engine.batch_first_exceed", [("driftmon.bench", "batch_first_exceed")],
     _batch_row_steps),
    ("seeding.tie_uniform", [("driftmon.engine", "tie_uniform"),
                             ("driftmon.qt_ewma", "tie_uniform")], None),
    ("ecdd.fit_classifier", [("driftmon.cli", "fit_classifier"),
                             ("driftmon.ecdd", "fit_classifier")], None),
    ("engine.ecdd_first_exceed", [("driftmon.bench", "ecdd_first_exceed")], None),
    ("bench.estimate_delay", [("driftmon.bench", "estimate_delay")], None),
]

# (layer, module, class, method, items(args) or None)
METHOD_SITES = [
    ("qt_ewma.update_from_bin", "driftmon.qt_ewma", "QtEwmaDetector", "update_from_bin", None),
    ("cdm.process", "driftmon.cdm", "CdmMonitor", "process", None),
    ("ecdd.knn.predict", "driftmon.ecdd", "KnnClassifier", "predict",
     lambda args: _n_rows(args, 1)),
    ("ecdd.lda.predict", "driftmon.ecdd", "LdaClassifier", "predict",
     lambda args: _n_rows(args, 1)),
]

GENERATORS = {"datastreams.iter_csv_stream"}
PEAK_ALLOC = {"calibration.calibrate_ecdd_limit"}
PERCENTILES = {"cdm.process"}


class LayerStats:
    """Per-phase totals of one layer's spans."""

    def __init__(self):
        self.total = dict.fromkeys(PHASES, 0.0)
        self.self_time = dict.fromkeys(PHASES, 0.0)
        self.calls = dict.fromkeys(PHASES, 0)
        self.items = dict.fromkeys(PHASES, 0)
        self.durations = array("d")


class Tracer:
    """Records spans while installed; every layer is keyed by its name."""

    def __init__(self):
        self.phase = "setup"
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_items = array("q")
        self._child_time = array("d")
        self._stack: list[int] = []
        self.stats: dict[str, LayerStats] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self.last_calls: dict[str, tuple] = {}
        self.peak_alloc: dict[str, int] = {}

    # -- spans --------------------------------------------------------------
    def _enter(self, layer: str) -> int:
        name_id = self.name_ids.get(layer)
        if name_id is None:
            name_id = self.name_ids[layer] = len(self.names)
            self.names.append(layer)
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_items.append(0)
        self._child_time.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _exit(self, span: int, layer: str, items: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - self.span_start[span]
        self.span_end[span] = end
        self.span_items[span] = items
        if self._stack:
            self._child_time[self._stack[-1]] += duration
        stats = self.stats.setdefault(layer, LayerStats())
        stats.total[self.phase] += duration
        stats.self_time[self.phase] += duration - self._child_time[span]
        stats.calls[self.phase] += 1
        stats.items[self.phase] += items
        if layer in PERCENTILES:
            stats.durations.append(duration)

    # -- wrappers -----------------------------------------------------------
    def _wrap_function(self, layer, fn, items):
        tracer = self

        if layer in GENERATORS:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._enter(layer)
                    produced = 0
                    try:
                        item = next(inner)
                        produced = 1
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(span, layer, produced)
                    yield item
            return generator

        if layer == "bench.estimate_delay":
            @functools.wraps(fn)
            def estimate(method, *args, **kwargs):
                sub = f"{layer}.{method.name}"
                span = tracer._enter(sub)
                try:
                    return fn(method, *args, **kwargs)
                finally:
                    tracer._exit(span, sub, 0)
            return estimate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in PEAK_ALLOC:
                tracer.last_calls[layer] = (fn, args, kwargs)
            span = tracer._enter(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = 1 if items is None or result is None else items(args, kwargs, result)
                tracer._exit(span, layer, n)
        return wrapper

    def _wrap_method(self, layer, fn, items):
        tracer = self

        @functools.wraps(fn)
        def method(*args, **kwargs):
            span = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span, layer, 1 if items is None else items(args))
        return method

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every site that exists; a missing one is reported, not fatal."""
        for layer, sites, items in FUNCTION_SITES:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._replace(module, attr,
                              self._wrap_function(layer, getattr(module, attr), items))
        for layer, module_name, cls_name, attr, items in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._replace(cls, attr, self._wrap_method(layer, getattr(cls, attr), items))
        for site in self.missing:
            print(f"perfbench: trace site {site} not found; its layer reads 0",
                  file=sys.stderr)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def measure_peak_allocations(self) -> None:
        """Repeat the last call of each PEAK_ALLOC layer under tracemalloc.

        Done after the timed phase, so tracemalloc's own cost stays out of
        the layer's spans.
        """
        for layer, (fn, args, kwargs) in self.last_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peak_alloc[layer] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent id, layer, start, end, items."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,layer,start_s,end_s,items\n")
            origin = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - origin:.9f},"
                         f"{self.span_end[i] - origin:.9f},{self.span_items[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _per_unit(values: dict, n_setups: int, n_rounds: int) -> float:
    """Value for one set-up plus one round of the workload."""
    return values["setup"] / max(n_setups, 1) + values["round"] / max(n_rounds, 1)


def _rate(stats: LayerStats | None) -> float:
    if stats is None:
        return 0.0
    seconds = sum(stats.total.values())
    return sum(stats.items.values()) / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int,
                  setup_s: float, round_s: float, useful_row_share: float) -> dict:
    """Every per-layer metric; a layer the workload never called reads 0."""
    get = tracer.stats.get

    def seconds(layer):
        s = get(layer)
        return _per_unit(s.total, n_setups, n_rounds) if s else 0.0

    def self_seconds(layer):
        s = get(layer)
        return _per_unit(s.self_time, n_setups, n_rounds) if s else 0.0

    def calls(layer):
        s = get(layer)
        return _per_unit(s.calls, n_setups, n_rounds) if s else 0.0

    def items(layer):
        s = get(layer)
        return _per_unit(s.items, n_setups, n_rounds) if s else 0.0

    def percentile_us(layer, q):
        s = get(layer)
        if s is None or not len(s.durations):
            return 0.0
        return float(np.percentile(np.frombuffer(s.durations), q) * 1e6)


    values = {
        "calibration.calibrate_thresholds.s": (
            seconds("calibration.calibrate_thresholds"), "s"),
        "calibration.calibrate_thresholds.replicate_steps_per_s": (
            _rate(get("calibration.calibrate_thresholds")), "steps/s"),
        "calibration.calibrate_ecdd_limit.s": (
            seconds("calibration.calibrate_ecdd_limit"), "s"),
        "calibration.calibrate_ecdd_limit.peak_alloc_mb": (
            tracer.peak_alloc.get("calibration.calibrate_ecdd_limit", 0) / 2**20, "MB"),
        "datastreams.iter_csv_stream.rows_per_s": (
            _rate(get("datastreams.iter_csv_stream")), "rows/s"),
        "quanttree.locate_bin.per_s": (_rate(get("quanttree.locate_bin")), "1/s"),
        "qt_ewma.update_from_bin.per_s": (_rate(get("qt_ewma.update_from_bin")), "1/s"),
        "cdm.process.calls": (calls("cdm.process"), "count"),
        "cdm.process.p50_us": (percentile_us("cdm.process", 50), "us"),
        "cdm.process.p99_us": (percentile_us("cdm.process", 99), "us"),
        "cdm.fit_cdm.s": (seconds("cdm.fit_cdm"), "s"),
        "thresholds.load_table.s": (seconds("thresholds.load_table"), "s"),
        "cli.monitor.self_s": (self_seconds("cli.monitor"), "s"),
        "ecdd.knn.predict.rows_per_s": (_rate(get("ecdd.knn.predict")), "rows/s"),
        "ecdd.ecdd_update.per_s": (_rate(get("ecdd.ecdd_update")), "1/s"),
        "ecdd.cross_val_error.s": (seconds("ecdd.cross_val_error"), "s"),
        "quanttree.build_quanttree.calls": (calls("quanttree.build_quanttree"), "count"),
        "quanttree.build_quanttree.s": (seconds("quanttree.build_quanttree"), "s"),
        "quanttree.locate_bins.rows_per_s": (_rate(get("quanttree.locate_bins")), "rows/s"),
        "datastreams.generate_stream.s": (seconds("datastreams.generate_stream"), "s"),
        "datastreams.sample_training.s": (seconds("datastreams.sample_training"), "s"),
        "bench.useful_row_share": (useful_row_share, "ratio"),
        "engine.batch_first_exceed.s": (seconds("engine.batch_first_exceed"), "s"),
        "engine.batch_first_exceed.row_steps": (items("engine.batch_first_exceed"), "count"),
        "seeding.tie_uniform.calls": (calls("seeding.tie_uniform"), "count"),
        "ecdd.lda.predict.rows_per_s": (_rate(get("ecdd.lda.predict")), "rows/s"),
        "ecdd.fit_classifier.s": (seconds("ecdd.fit_classifier"), "s"),
        "engine.ecdd_first_exceed.s": (seconds("engine.ecdd_first_exceed"), "s"),
        "bench.estimate_delay.cdm.s": (seconds("bench.estimate_delay.cdm"), "s"),
        "bench.estimate_delay.qtewma.s": (seconds("bench.estimate_delay.qtewma"), "s"),
        "bench.estimate_delay.ecdd.s": (seconds("bench.estimate_delay.ecdd"), "s"),
        "traced.setup_s": (setup_s, "s"),
        "traced.round_s": (round_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
