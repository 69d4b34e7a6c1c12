"""Experiment harness: empirical ARL0, detection delay, grid experiments.

Every replicate draws its own training set and stream from seeds derived
from (master seed, replicate index), so reports are reproducible and
independent of execution order. Both engines start from the monitor
``_replicate`` fits: the default engine reads its histograms or
classifier and steps all replicates' recursions in lockstep with numpy;
the "sequential" engine feeds it one sample at a time, as the CLI does,
and is used to validate the batch path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import ecdd as ecdd_mod
from .cdm import fit_cdm, run_labeled_stream
from .datastreams import GaussianMixtureConfig, generate_stream, sample_training, skl_gaussian
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
    """One replicate's fitted monitor, stream and monitored labels.

    Training draws at (rep_seed, 0), the fit at (rep_seed, 1) and the
    stream at (rep_seed, 2). CDM and the pooled QT-EWMA (all labels 1) are
    fitted by ``fit_cdm``; ECDD is an ``EcddMonitor`` whose chart starts
    at the cross-validated error rate. Both engines start from here.
    """
    tx, ty = sample_training(cfg, method.train_per_class, derive_seed(rep_seed, 0))
    pooled = isinstance(method, CdmMethod) and method.pooled
    if isinstance(method, EcddMethod):
        clf = ecdd_mod.fit_classifier(method.classifier, tx, ty, k=method.knn_k)
        p0 = ecdd_mod.cross_val_error(method.classifier, tx, ty,
                                      seed=derive_seed(rep_seed, 1), k=method.knn_k)
        monitor = ecdd_mod.EcddMonitor(
            clf, ecdd_mod.ecdd_init(p0, method.r, method.limit, method.prior_weight))
    else:
        monitor = fit_cdm(tx, np.ones_like(ty) if pooled else ty, method.table,
                          seed=derive_seed(rep_seed, 1))
    stream = generate_stream(cfg, length, derive_seed(rep_seed, 2))
    labels = np.ones(len(stream), dtype=np.int64) if pooled else stream.y
    return monitor, stream, labels


def _run_cdm_batch(method: CdmMethod, cfg: GaussianMixtureConfig, replicates: int,
                   length: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    all_rows, owners, hist_seeds = [], [], []
    for i in range(replicates):
        monitor, stream, labels = _replicate(method, cfg, length, derive_seed(seed, i))
        for m, detector in monitor.detectors.items():
            pos = np.flatnonzero(labels == m) + 1  # 1-based global positions
            all_rows.append((locate_bins(detector.hist, stream.x[pos - 1]), pos))
            owners.append((i, m))
            hist_seeds.append(detector.hist.seed)
    lengths = np.array([len(bins) for bins, _ in all_rows], dtype=np.int64)
    t_pad = int(lengths.max(initial=0))
    packed = np.zeros((len(all_rows), t_pad), dtype=np.int16)
    for r, (bins, _) in enumerate(all_rows):
        packed[r, : len(bins)] = bins
    steps = batch_first_exceed(packed, lengths, method.table, hist_seeds)
    t_star, m_star = np.zeros((2, replicates), dtype=np.int64)
    for r, step in enumerate(steps):
        if step == 0:
            continue
        i, m = owners[r]
        global_t = int(all_rows[r][1][step - 1])
        if t_star[i] == 0 or global_t < t_star[i]:
            t_star[i], m_star[i] = global_t, m
    return t_star, m_star


def _run_ecdd_batch(method: EcddMethod, cfg: GaussianMixtureConfig, replicates: int,
                    length: int, seed: int) -> tuple[np.ndarray, None]:
    errors = np.empty((replicates, length), dtype=np.uint8)
    p0 = np.empty(replicates)
    for i in range(replicates):
        monitor, stream, labels = _replicate(method, cfg, length, derive_seed(seed, i))
        errors[i] = monitor.classifier.predict(stream.x) != labels
        p0[i] = monitor.state.p0
    t_star = ecdd_first_exceed(errors, p0, method.prior_weight, method.r, method.limit)
    return t_star, None


def _run_sequential(method, cfg: GaussianMixtureConfig, replicates: int, length: int,
                    seed: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The reference engine: each replicate's monitor, row-exact.

    ``run_labeled_stream`` feeds it in chunks that stop where per-row calls
    would stop.
    """
    t_star, m_star = np.zeros((2, replicates), dtype=np.int64)
    for i in range(replicates):
        monitor, stream, labels = _replicate(method, cfg, length, derive_seed(seed, i))
        detection = run_labeled_stream(monitor, zip(stream.x, labels.tolist()))
        if detection is not None:  # ECDD names no class: its m* is None
            t_star[i], m_star[i] = detection.t_star, detection.m_star or 0
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
