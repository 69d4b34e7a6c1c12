"""Class distribution monitoring: one bin-frequency detector per class.

Each labeled sample updates only the detector of its own class, and the
per-class detectors index the shared threshold table by their own sample
counters. A drift is declared the first time any per-class statistic
crosses its threshold, which also attributes the drift to that class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError
from .qt_ewma import QtEwmaDetector
from .quanttree import build_quanttree, locate_bins
from .thresholds import ThresholdTable


@dataclass(frozen=True)
class Detection:
    t_star: int   # global stream position of the detection
    m_star: Optional[int]  # class whose detector fired; None if the method cannot tell


class Monitor:
    """What ``CdmMonitor`` and ``ecdd.EcddMonitor`` share: global time, the
    detection (at a global stream position), the per-row calls and
    ``process_batch``, the one loop over a chunk. A subclass adds its
    ``report`` fields and three hooks: ``_admit`` masks the rows it steps
    and those it refuses, ``_step`` steps rows in stream order and gives
    (row, m*) of the first that fires, and ``_refuse`` raises a refused
    row's own error before any state moves.
    """

    def __init__(self):
        self.global_t = 0
        self.detection: Optional[Detection] = None
        self.skipped_unknown = 0  # labeled rows neither stepped nor refused

    def process(self, x, y: int) -> Optional[Detection]:
        """Process one labeled sample: a one-row ``process_batch``.

        Returns the detection once it happens (idempotently afterwards),
        None while monitoring continues. A rejected sample changes nothing.
        """
        return self.process_batch(np.asarray(x, dtype=float).reshape(1, -1), [y], [True])

    def process_unlabeled(self, x) -> Optional[Detection]:
        """Unlabeled samples advance global time but touch no detector."""
        if self.detection is None:
            self.global_t += 1
        return self.detection

    def process_batch(self, x, y, labeled) -> Optional[Detection]:
        """Process rows as ``process``/``process_unlabeled`` would, one by one.

        ``x``, ``y`` and ``labeled`` are the three arrays of a
        ``LabeledStream`` chunk (``y`` is ignored where ``labeled`` is
        false). Processing stops at the first detection or the first
        refused row, which raises its per-row call's ``InputError`` unless
        the rows before it detected; a label that is not an integer (2.7,
        NaN) gets ``class_labels``' error.
        """
        if self.detection is not None:
            return self.detection
        x = np.asarray(x, dtype=float)
        y, whole = integer_labels(y)
        labeled = np.asarray(labeled, dtype=bool)
        stepped, refused = self._admit(x, y, whole, labeled)
        stop = int(refused.argmax()) if refused.any() else len(x)
        fired = self._step(x, y, np.flatnonzero(stepped[:stop]))
        if fired is not None:
            stop = fired[0] + 1
            self.detection = Detection(t_star=self.global_t + stop, m_star=fired[1])
        self.global_t += stop
        self.skipped_unknown += int((labeled[:stop] & ~stepped[:stop]).sum())
        if self.detection is None and stop < len(x):
            if not whole[stop]:
                raise InputError("class labels must be integers")
            self._refuse(x[stop], int(y[stop]))
        return self.detection

    def report(self) -> dict:
        det = self.detection
        return {
            "detected": det is not None,
            "t_star": det.t_star if det else None,
            "m_star": det.m_star if det else None,
        }


class CdmMonitor(Monitor):
    """Sequential monitor over M per-class detectors: an unseen label is
    refused, or skipped and counted under ``lenient_labels``."""

    def __init__(self, detectors: dict[int, QtEwmaDetector], lenient_labels: bool = False):
        if not detectors:
            raise ConfigError("monitor needs at least one per-class detector")
        super().__init__()
        self.detectors = detectors
        self.lenient_labels = lenient_labels

    def _admit(self, x, y, whole, labeled):
        classes = sorted(self.detectors)
        slot = np.searchsorted(classes, y).clip(max=len(classes) - 1)  # y's class, if any
        known = labeled & whole & (np.take(classes, slot) == y)
        sized = np.array([self.detectors[m].hist.dim == x.shape[1] for m in classes])
        refused = known & ~(sized[slot] & np.isfinite(x).all(axis=1))
        if not self.lenient_labels:
            refused |= labeled & ~known
        return known & ~refused, refused

    def _step(self, x, y, rows):
        labels, bins = y[rows], np.empty(len(rows), dtype=np.int64)
        for m in np.unique(labels).tolist():
            of_m = labels == m
            bins[of_m] = locate_bins(self.detectors[m].hist, x[rows[of_m]])
        for i, m, b in zip(rows.tolist(), labels.tolist(), bins.tolist()):
            if self.detectors[m].update_from_bin(b)[1]:
                return i, m
        return None

    def _refuse(self, row, label):
        if label not in self.detectors:
            raise InputError(f"unseen class label {label!r}")
        self.detectors[label].update(row)  # raises before any state moves

    def report(self) -> dict:
        return {
            **super().report(),
            "global_t": self.global_t,
            "class_counts": {m: d.t for m, d in self.detectors.items()},
            "statistics": {m: d.last_statistic for m, d in self.detectors.items()},
            "skipped_unknown": self.skipped_unknown,
        }


def class_seed(seed: int, label: int) -> int:
    """Histogram seed for one class: offset keeps classes independent."""
    return int(seed) + int(label)


def integer_labels(y) -> tuple[np.ndarray, np.ndarray]:
    """``y`` as int64 labels, 0 where one is not an integer (2.7, NaN), and
    whether each is one."""
    y = np.asarray(y)
    if y.dtype.kind in "iu":
        return y.astype(np.int64), np.ones(y.shape, dtype=bool)
    whole = np.zeros(y.shape, dtype=bool)
    if y.dtype.kind == "f":
        whole = np.isfinite(y) & (y == np.trunc(y))
    labels = np.zeros(y.shape, dtype=np.int64)
    labels[whole] = y[whole]
    return labels, whole


def class_labels(y) -> np.ndarray:
    """``y`` as int64 labels; InputError if one is not an integer (2.7, NaN)."""
    y, whole = integer_labels(y)
    if not whole.all():
        raise InputError("class labels must be integers")
    return y


def training_set(x, y) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float rows and int64 labels, or InputError: an N x d matrix, N labels."""
    x = np.asarray(x, dtype=float)
    y = class_labels(y)
    if x.ndim != 2 or len(x) != len(y):
        raise InputError("training data must be an N x d matrix with N labels")
    return x, y


def fit_class_histograms(train_x, train_y, n_bins: int, seed: int) -> dict[int, "object"]:
    """Build one K-bin histogram per class label 1..M."""
    x, y = training_set(train_x, train_y)
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


CHUNK_ROWS = 128  # rows that run_labeled_stream reads a pass


def run_labeled_stream(monitor: Monitor, stream) -> Optional[Detection]:
    """Feed (x, y) pairs (y None = unlabeled) to a ``Monitor`` until detection
    or exhaustion; the one loop over an iterable of rows, for the CLI.

    Each pass reads up to ``CHUNK_ROWS`` rows and hands each run of rows of
    one width to ``monitor.process_batch``, which leaves the monitor as
    per-row calls would, so the stream may be read up to one chunk past the
    detection. An exception from the stream itself (a malformed CSV row, a
    row that is not a pair of floats and a label) is raised after the rows
    read before it are processed, and only if they did not detect.
    """
    rows = iter(stream)
    while monitor.detection is None:
        chunk, failure = [], None
        try:
            for x, y in itertools.islice(rows, CHUNK_ROWS):
                chunk.append((np.asarray(x, dtype=float).ravel(), y))
        except Exception as exc:  # raised below unless the rows before it detect
            failure = exc
        for _, run in itertools.groupby(chunk, key=lambda row: row[0].size):
            xs, ys = zip(*run)
            if monitor.process_batch(np.stack(xs), [0 if y is None else y for y in ys],
                                     [y is not None for y in ys]) is not None:
                break
        if failure is not None and monitor.detection is None:
            raise failure
        if len(chunk) < CHUNK_ROWS:
            break
    return monitor.detection
