"""Experiment harness: empirical ARL0, detection delay, grid experiments.

Every replicate draws its own training set and stream from seeds derived
from (master seed, replicate index), so reports are reproducible and
independent of execution order. Both engines start from the monitor
``_replicate`` fits: the default engine reads its histograms or
classifier and steps all replicates' recursions in lockstep with numpy;
the "sequential" engine hands each pass's new rows to the monitor's own
``process_batch``, row-exact, and is used to validate the batch path.
Both read a replicate's stream (a ``StreamDraw``) a doubling prefix at a
time, ``FIRST_ROWS`` rows and then twice as many each pass, and stop at
its detection: the rows after it are never drawn, so ``post_length``
costs only the rows read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import ecdd as ecdd_mod
from .cdm import fit_cdm
from .datastreams import (GaussianMixtureConfig, StreamDraw, generate_stream, sample_training,
                          skl_gaussian)
from .engine import batch_first_exceed, ecdd_first_exceed
from .errors import ConfigError, DriftmonError
from .quanttree import locate_bins
from .seeding import derive_seed
from .thresholds import ThresholdTable, table_to_dict

DEFAULT_TRAIN_PER_CLASS = 256  # training rows drawn per class in each replicate
DEFAULT_POST_LENGTH = 7000  # stream rows after the change point in a delay run
DEFAULT_DRIFT_CLASS = 2  # the class whose post-change mean a grid moves
ERROR_SAMPLES = 200_000  # stream rows behind each error rate of a grid's contours
ERROR_TRAIN_PER_CLASS = 4096  # training rows per class of the grid's contour LDA
FIRST_ROWS = 256  # stream rows a replicate's first pass reads; each later pass doubles them


@dataclass
class CdmMethod:
    """Per-class monitoring (or the pooled single-histogram baseline)."""

    table: ThresholdTable  # fixes K and lambda
    train_per_class: int = DEFAULT_TRAIN_PER_CLASS
    pooled: bool = False  # merge all labels: monitor the overall distribution
    name: str = "cdm"


@dataclass
class EcddMethod:
    """Error-rate chart over a fixed classifier."""

    limit: float
    classifier: str = "lda"
    knn_k: int = ecdd_mod.DEFAULT_KNN_K
    r: float = ecdd_mod.DEFAULT_R
    prior_weight: float = ecdd_mod.DEFAULT_PRIOR_WEIGHT
    train_per_class: int = DEFAULT_TRAIN_PER_CLASS
    name: str = "ecdd"


@dataclass
class ExperimentReport:
    method: str
    scenario: str
    metric: str                 # "arl0" or "delay"
    replicates: int
    mean: Optional[float]
    stderr: Optional[float]
    detections: int
    false_alarms: int
    censored: int
    tau: int
    horizon: int
    seed: int
    config_hash: str
    t_star: np.ndarray = field(repr=False)
    m_star: Optional[np.ndarray] = field(repr=False, default=None)
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The report's fields in order, less the per-replicate arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("t_star", "m_star")}


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, ThresholdTable):
        return table_to_dict(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"not hashable for config: {type(obj)}")


def stationary(cfg: GaussianMixtureConfig) -> GaussianMixtureConfig:
    """The pre-change distribution of ``cfg`` with no change point."""
    return GaussianMixtureConfig(
        means=cfg.means.copy(), covs=cfg.covs.copy(), priors=cfg.priors.copy(), tau=0
    )


# ---------------------------------------------------------------------------
# replicate runners


def _replicate(method, cfg: GaussianMixtureConfig, length: int, rep_seed: int):
    """One replicate's fitted monitor and the ``StreamDraw`` of its stream.

    Training draws at (rep_seed, 0), the fit at (rep_seed, 1) and the
    stream at (rep_seed, 2). CDM and the pooled QT-EWMA are fitted by
    ``fit_cdm``; ECDD is an ``EcddMonitor`` whose chart starts at the
    cross-validated error rate. Both engines start from here.
    """
    tx, ty = sample_training(cfg, method.train_per_class, derive_seed(rep_seed, 0))
    if isinstance(method, EcddMethod):
        clf = ecdd_mod.fit_classifier(method.classifier, tx, ty, k=method.knn_k)
        p0 = ecdd_mod.cross_val_error(method.classifier, tx, ty,
                                      seed=derive_seed(rep_seed, 1), k=method.knn_k)
        monitor = ecdd_mod.EcddMonitor(
            clf, ecdd_mod.ecdd_init(p0, method.r, method.limit, method.prior_weight))
    else:
        monitor = fit_cdm(tx, _monitored(method, ty), method.table,
                          seed=derive_seed(rep_seed, 1))
    return monitor, StreamDraw(cfg, length, derive_seed(rep_seed, 2))


def _monitored(method, y: np.ndarray) -> np.ndarray:
    """The labels ``method`` monitors: all 1 for the pooled QT-EWMA, else ``y``."""
    return np.ones_like(y) if isinstance(method, CdmMethod) and method.pooled else y


def _passes(length: int):
    """(start, n) per pass over a stream of ``length`` rows: it reads rows start+1..n.

    The first pass reads ``FIRST_ROWS`` rows and each later pass doubles
    them, up to ``length``.
    """
    start, n = 0, min(FIRST_ROWS, length)
    while start < length:
        yield start, n
        start, n = n, min(2 * n, length)


def _run_passes(method, cfg: GaussianMixtureConfig, replicates: int, length: int, seed: int,
                read, first_exceed) -> tuple[np.ndarray, np.ndarray]:
    """Every replicate's (t*, m*), its stream drawn a doubling prefix at a time.

    Each pass of ``_passes`` draws the new rows of every replicate that has
    not yet detected and keeps what ``read(monitor, x, y)`` makes of them.
    ``first_exceed(runs, n)`` steps the recursions of ``runs``, a list of
    (monitor, kept chunks), over rows 1..n from t = 1 and gives each run's
    (t*, m*), t* = 0 where none fires. Every recursion is causal, so a
    detection within a prefix is the detection on the whole stream: a
    replicate that detects is done, and its monitor and rows are released.
    One that never fires is read to ``length`` and keeps t* = 0.
    """
    active = {i: (*_replicate(method, cfg, length, derive_seed(seed, i)), [])
              for i in range(replicates)}
    t_star, m_star = np.zeros((2, replicates), dtype=np.int64)
    for start, n in _passes(length):
        for monitor, draw, kept in active.values():
            stream = draw.take(n)
            kept.append(read(monitor, stream.x[start:], stream.y[start:]))
        found = first_exceed([(monitor, kept) for monitor, _, kept in active.values()], n)
        for i, (t, m) in zip(list(active), found):
            if t:
                t_star[i], m_star[i] = t, m
                del active[i]
        if not active:
            break
    return t_star, m_star


def _run_cdm_batch(method: CdmMethod, cfg: GaussianMixtureConfig, replicates: int,
                   length: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    def read(monitor, x, y):
        """The new rows' labels and bins, each in its class's histogram."""
        labels = _monitored(method, y)
        bins = np.zeros(len(labels), dtype=np.int16)
        for m, detector in monitor.detectors.items():
            rows = labels == m
            bins[rows] = locate_bins(detector.hist, x[rows])
        return labels, bins

    def first_exceed(runs, n):
        class_rows, owners, hist_seeds = [], [], []
        for r, (monitor, kept) in enumerate(runs):
            labels, bins = (np.concatenate(parts) for parts in zip(*kept))
            for m, detector in monitor.detectors.items():
                pos = np.flatnonzero(labels == m) + 1  # 1-based global positions
                class_rows.append((bins[pos - 1], pos))
                owners.append((r, m))
                hist_seeds.append(detector.hist.seed)
        lengths = np.array([len(pos) for _, pos in class_rows], dtype=np.int64)
        packed = np.zeros((len(class_rows), int(lengths.max(initial=0))), dtype=np.int16)
        for row, (bins, _) in zip(packed, class_rows):
            row[: len(bins)] = bins
        steps = batch_first_exceed(packed, lengths, method.table, hist_seeds)
        found = [(0, 0)] * len(runs)
        for (r, m), (_, pos), step in zip(owners, class_rows, steps.tolist()):
            if step and (not found[r][0] or pos[step - 1] < found[r][0]):
                found[r] = (int(pos[step - 1]), m)
        return found

    return _run_passes(method, cfg, replicates, length, seed, read, first_exceed)


def _run_ecdd_batch(method: EcddMethod, cfg: GaussianMixtureConfig, replicates: int,
                    length: int, seed: int) -> tuple[np.ndarray, None]:
    def read(monitor, x, y):
        """The new rows' 0/1 classification errors."""
        return monitor.classifier.predict(x) != y

    def first_exceed(runs, n):
        errors = np.empty((len(runs), n), dtype=np.uint8)
        for row, (_, kept) in zip(errors, runs):
            np.concatenate(kept, out=row)
        p0 = np.array([monitor.state.p0 for monitor, _ in runs])
        t = ecdd_first_exceed(errors, p0, method.prior_weight, method.r, method.limit)
        return [(step, 0) for step in t.tolist()]

    return _run_passes(method, cfg, replicates, length, seed, read, first_exceed)[0], None


def _run_sequential(method, cfg: GaussianMixtureConfig, replicates: int, length: int,
                    seed: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The reference engine: each replicate's monitor, row-exact.

    Each pass of ``_passes`` draws the new rows and hands them to
    ``monitor.process_batch``, which leaves the monitor as per-row calls
    would, so drawing stops within a pass of the detection.
    """
    t_star, m_star = np.zeros((2, replicates), dtype=np.int64)
    for i in range(replicates):
        monitor, draw = _replicate(method, cfg, length, derive_seed(seed, i))
        for start, n in _passes(length):
            stream = draw.take(n)
            labels = _monitored(method, stream.y[start:])
            detection = monitor.process_batch(stream.x[start:], labels, stream.labeled[start:])
            if detection is not None:  # ECDD names no class: its m* is None
                t_star[i], m_star[i] = detection.t_star, detection.m_star or 0
                break
    return t_star, None if isinstance(method, EcddMethod) else m_star


def _report(method, cfg: GaussianMixtureConfig, replicates: int, horizon: int, seed: int,
            engine: str) -> ExperimentReport:
    """Run ``method`` and summarize its t* as delays t* - tau.

    Detections at or before tau are false alarms; at tau = 0, the ARL0
    setting, every detection is one and the delays are the run lengths.
    Undetected runs are censored at the horizon.
    """
    if not isinstance(method, (CdmMethod, EcddMethod)):
        raise ConfigError(f"unknown method type {type(method).__name__}")
    if engine not in ("batch", "sequential"):
        raise ConfigError(f"unknown engine {engine!r}, choose 'batch' or 'sequential'")
    batch = _run_cdm_batch if isinstance(method, CdmMethod) else _run_ecdd_batch
    runner = batch if engine == "batch" else _run_sequential
    t_star, m_star = runner(method, cfg, replicates, horizon, seed)
    detected = t_star > 0
    valid = t_star > cfg.tau
    delays = (t_star[valid] - cfg.tau).astype(float)
    false_alarms = detected & (t_star <= cfg.tau) if cfg.tau else detected
    return ExperimentReport(
        method=method.name,
        scenario=f"drift@tau={cfg.tau}" if cfg.tau else "stationary",
        metric="delay" if cfg.tau else "arl0",
        replicates=replicates,
        mean=float(delays.mean()) if delays.size else None,
        stderr=float(delays.std(ddof=1) / np.sqrt(delays.size)) if delays.size > 1 else None,
        detections=int(valid.sum()), false_alarms=int(false_alarms.sum()),
        censored=int(replicates - detected.sum()), tau=cfg.tau, horizon=horizon, seed=seed,
        config_hash=config_hash({"method": method, "cfg": cfg,
                                 "replicates": replicates, "horizon": horizon,
                                 "seed": seed}),
        t_star=t_star, m_star=m_star, degenerate=not delays.size,
    )


# ---------------------------------------------------------------------------
# figures of merit


def estimate_arl0(method, cfg: GaussianMixtureConfig, replicates: int, horizon: int,
                  seed: int, engine: str = "batch") -> ExperimentReport:
    """Empirical ARL0: mean detection time on stationary streams.

    Runs that reach the horizon without detecting are censored and
    counted separately rather than folded into the mean.
    """
    if isinstance(method, CdmMethod) and horizon < 10 * method.table.arl0_target:
        raise ConfigError(f"horizon {horizon} < 10 x target ARL0 {method.table.arl0_target}")
    return _report(method, stationary(cfg), replicates, horizon, seed, engine)


def estimate_delay(method, cfg: GaussianMixtureConfig, replicates: int, seed: int,
                   post_length: int = DEFAULT_POST_LENGTH,
                   engine: str = "batch") -> ExperimentReport:
    """Mean detection delay t* - tau over runs with no false alarm.

    Detections at or before tau count as false alarms and are excluded
    from the delay mean; undetected runs are censored at the horizon.
    """
    if cfg.tau <= 0:
        raise ConfigError("delay estimation needs a change point tau > 0")
    return _report(method, cfg, replicates, cfg.tau + post_length, seed, engine)


def estimate_error_rate(classifier, cfg: GaussianMixtureConfig, samples: int,
                        seed: int) -> float:
    """Monte Carlo misclassification rate over a stream drawn from ``cfg``.

    At tau = 0 every sample comes from the post-change mixture, which for
    a ``stationary`` config is the pre-change one.
    """
    stream = generate_stream(cfg, samples, seed)
    return float((classifier.predict(stream.x) != stream.y).mean())


def drift_class_mean(cfg: GaussianMixtureConfig, drift_class: int) -> np.ndarray:
    """Pre-change mean of class ``drift_class``; a label outside 1..M raises."""
    if not 1 <= drift_class <= len(cfg.means):
        raise ConfigError(f"drift_class must be a class label in 1..{len(cfg.means)}, "
                          f"got {drift_class}")
    return cfg.means[drift_class - 1]


def grid_cells(center, x_offsets=(-1.5, 0.5), y_offsets=(-1.0, 1.0),
               nx: int = 9, ny: int = 9) -> list[tuple[float, float]]:
    """Lattice of post-change means around ``center`` (row-major)."""
    if nx < 1 or ny < 1:
        raise ConfigError(f"a grid needs nx >= 1 and ny >= 1, got nx={nx}, ny={ny}")
    xs = np.linspace(center[0] + x_offsets[0], center[0] + x_offsets[1], nx)
    ys = np.linspace(center[1] + y_offsets[0], center[1] + y_offsets[1], ny)
    return [(float(x), float(y)) for x in xs for y in ys]


def run_grid_experiment(cfg_base: GaussianMixtureConfig, methods: dict,
                        replicates: int, seed: int,
                        cells: Optional[list[tuple[float, float]]] = None,
                        drift_class: int = DEFAULT_DRIFT_CLASS,
                        post_length: int = DEFAULT_POST_LENGTH) -> list[dict]:
    """Mean detection delay per (cell, method) plus (p1 - p0, sKL) per cell.

    Each cell translates the drifted class's post-change mean to the cell
    coordinates; its sKL runs from the class's pre-change Gaussian to its
    post-change one. A single LDA classifier fitted on the stationary
    mixture supplies the error-rate contours. Failed cells are marked and
    the run continues.
    """
    center = drift_class_mean(cfg_base, drift_class)
    if cells is None:
        cells = grid_cells(center)
    if not cells:
        raise ConfigError("grid is empty")
    if cfg_base.tau <= 0:
        raise ConfigError("grid experiment needs a change point tau > 0")
    cfg0 = stationary(cfg_base)
    etx, ety = sample_training(cfg0, ERROR_TRAIN_PER_CLASS, derive_seed(seed, 900_000))
    err_clf = ecdd_mod.fit_classifier("lda", etx, ety)
    p0 = estimate_error_rate(err_clf, cfg0, ERROR_SAMPLES, derive_seed(seed, 900_001))

    rows = []
    cov, post_cov = cfg_base.covs[drift_class - 1], cfg_base.post_covs[drift_class - 1]
    for ci, (cx, cy) in enumerate(cells):
        post_means = cfg_base.post_means.copy()
        post_means[drift_class - 1] = (cx, cy)
        cfg_cell = replace(cfg_base, post_means=post_means)
        skl = skl_gaussian(center, cov, (cx, cy), post_cov)
        p1 = estimate_error_rate(err_clf, replace(cfg_cell, tau=0), ERROR_SAMPLES,
                                 derive_seed(seed, 900_002 + ci))
        for mi, (name, method) in enumerate(sorted(methods.items())):
            base = {"mu_x": cx, "mu_y": cy, "method": name, "skl": skl,
                    "p1_minus_p0": p1 - p0}
            # a failed cell keeps every column, empty, so the CSV header fits all rows
            result = dict.fromkeys(("mean_delay", "stderr", "detections", "false_alarms",
                                    "censored"))
            try:
                rep = estimate_delay(method, cfg_cell, replicates,
                                     derive_seed(seed, ci * 100 + mi),
                                     post_length=post_length)
            except DriftmonError as exc:
                rows.append({**base, **result, "failed": str(exc)})
                continue
            result.update(mean_delay=rep.mean, stderr=rep.stderr, detections=rep.detections,
                          false_alarms=rep.false_alarms, censored=rep.censored)
            rows.append({**base, **result, "failed": ""})
    return rows
