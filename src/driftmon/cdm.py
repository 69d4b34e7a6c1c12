"""Class distribution monitoring: one bin-frequency detector per class.

Each labeled sample updates only the detector of its own class, and the
per-class detectors index the shared threshold table by their own sample
counters. A drift is declared the first time any per-class statistic
crosses its threshold, which also attributes the drift to that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError
from .qt_ewma import QtEwmaDetector
from .quanttree import build_quanttree
from .thresholds import ThresholdTable


@dataclass(frozen=True)
class Detection:
    t_star: int   # global stream position of the detection
    m_star: Optional[int]  # class whose detector fired; None if the method cannot tell


class CdmMonitor:
    """Sequential monitor over M per-class detectors."""

    def __init__(self, detectors: dict[int, QtEwmaDetector], lenient_labels: bool = False):
        if not detectors:
            raise ConfigError("monitor needs at least one per-class detector")
        self.detectors = detectors
        self.lenient_labels = lenient_labels
        self.global_t = 0
        self.detection: Optional[Detection] = None
        self.skipped_unknown = 0

    def process(self, x, y: int) -> Optional[Detection]:
        """Route one labeled sample to its class detector.

        Returns the detection once it happens (idempotently afterwards),
        None while monitoring continues. A rejected sample changes nothing.
        """
        if self.detection is not None:
            return self.detection
        detector = self.detectors.get(int(y))
        if detector is None:
            if not self.lenient_labels:
                raise InputError(f"unseen class label {y!r}")
            self.global_t += 1
            self.skipped_unknown += 1
            return None
        _, detected = detector.update(x)  # locates the bin before any state moves
        self.global_t += 1
        if detected:
            self.detection = Detection(t_star=self.global_t, m_star=int(y))
        return self.detection

    def process_unlabeled(self, x) -> Optional[Detection]:
        """Unlabeled samples advance global time but touch no detector."""
        if self.detection is None:
            self.global_t += 1
        return self.detection

    def report(self) -> dict:
        det = self.detection
        return {
            "detected": det is not None,
            "t_star": det.t_star if det else None,
            "m_star": det.m_star if det else None,
            "global_t": self.global_t,
            "class_counts": {m: d.t for m, d in self.detectors.items()},
            "statistics": {m: d.last_statistic for m, d in self.detectors.items()},
            "skipped_unknown": self.skipped_unknown,
        }


def class_seed(seed: int, label: int) -> int:
    """Histogram seed for one class: offset keeps classes independent."""
    return int(seed) + int(label)


def fit_class_histograms(train_x, train_y, n_bins: int, seed: int) -> dict[int, "object"]:
    """Build one K-bin histogram per class label 1..M."""
    x = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y)
    if not np.issubdtype(y.dtype, np.integer):
        y = y.astype(np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise InputError("training data must be an N x d matrix with N labels")
    if y.min(initial=1) < 1:
        raise InputError("class labels must be in 1..M")
    n_classes = int(y.max())
    histograms = {}
    for m in range(1, n_classes + 1):
        subset = x[y == m]
        if len(subset) < n_bins:
            raise ConfigError(
                f"class {m} has {len(subset)} training samples, needs >= {n_bins}"
            )
        histograms[m] = build_quanttree(subset, n_bins, class_seed(seed, m))
    return histograms


def fit_cdm(train_x, train_y, thresholds: ThresholdTable, n_bins: int | None = None,
            lam: float | None = None, seed: int = 0,
            lenient_labels: bool = False) -> CdmMonitor:
    """Split the training set by class and build the per-class detectors.

    All classes share ``thresholds``, which fixes K and lambda, so the
    table must match the per-class training size. ``n_bins`` and ``lam``
    default to the table's; a value given that differs raises
    ``ConfigError``.
    """
    thresholds.require(n_bins=n_bins, lam=lam)
    histograms = fit_class_histograms(train_x, train_y, thresholds.n_bins, seed)
    detectors = {m: QtEwmaDetector(hist, thresholds) for m, hist in histograms.items()}
    return CdmMonitor(detectors, lenient_labels=lenient_labels)


def run_labeled_stream(monitor, stream) -> Optional[Detection]:
    """Feed (x, y) pairs (y None = unlabeled) until detection or exhaustion.

    ``monitor`` is a ``CdmMonitor`` or an ``ecdd.EcddMonitor``; this is the
    one loop over a labeled stream, for the CLI and the bench alike.
    """
    for x, y in stream:
        if y is None:
            detection = monitor.process_unlabeled(x)
        else:
            detection = monitor.process(x, y)
        if detection is not None:
            return detection
    return monitor.detection
