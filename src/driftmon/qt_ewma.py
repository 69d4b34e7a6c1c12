"""Online EWMA monitoring of QuantTree bin frequencies.

The detector keeps one exponentially weighted frequency Z_k per bin,
updates them as each sample arrives, and compares the Pearson-like
divergence of Z from the uniform target bin probabilities against a
calibrated, time-varying threshold, randomized at the threshold itself
(see ``thresholds``). The recursion ``ewma_step`` and the rule ``fires``
are the one copy that the detector, ``engine`` and ``calibration`` run.
"""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np

from .errors import ConfigError
from .quanttree import QuantTreeHistogram, locate_bin, uniform_probs
from .seeding import tie_uniform
from .thresholds import ThresholdTable

DEFAULT_LAMBDA = 0.03


def ewma_step(z: np.ndarray, index, lam: float):
    """Z <- (1 - lam) Z + lam e_b in place; return S = sum_k (Z_k - 1/K)^2 K.

    ``z``: 1-D with ``index`` a bin, or one row per detector with
    ``index`` a (rows, bins) pair of arrays, giving one S per row.
    """
    z *= 1.0 - lam
    z[index] += lam
    pi = 1.0 / z.shape[-1]
    return ((z - pi) ** 2 / pi).sum(axis=-1)


def fires(stat: np.ndarray, h: float, gamma: float, tie_uniforms) -> np.ndarray:
    """Randomized rule: stat[i] > h, or stat[i] == h and U_i < gamma.

    ``tie_uniforms(tied)`` returns the U_i of the tied indices, if any.
    """
    fire = stat > h
    tied = np.flatnonzero(stat == h)
    if tied.size:
        fire[tied] = tie_uniforms(tied) < gamma
    return fire


class QtEwmaDetector:
    """Sequential detector; one instance per stream.

    State: Z (length-K vector of EWMA bin frequencies), sample counter t,
    and the last computed statistic. Step t fires when S_t > h_t, or when
    S_t == h_t and U_t < gamma_t, where U_t = ``tie_uniform(hist.seed, t)``
    is drawn only on a tie; the draws therefore depend on the histogram
    seed and the step alone. After a detection the detector freezes;
    restart by constructing a new instance.
    """

    def __init__(self, hist: QuantTreeHistogram, lam: float, thresholds: ThresholdTable):
        if not 0.0 < lam < 1.0:
            raise ConfigError(f"lambda must be in (0, 1), got {lam}")
        if thresholds.n_bins != hist.n_bins:
            raise ConfigError(
                f"threshold table n_bins={thresholds.n_bins} does not match "
                f"histogram n_bins={hist.n_bins}"
            )
        if thresholds.lam != lam:
            raise ConfigError(
                f"threshold table lambda={thresholds.lam} does not match lambda={lam}"
            )
        if thresholds.train_size != hist.train_size:
            raise ConfigError(
                f"threshold table train_size={thresholds.train_size} does not match "
                f"histogram train_size={hist.train_size}"
            )
        if not np.array_equal(hist.target_probs, uniform_probs(hist.n_bins)):
            raise ConfigError("histogram target_probs must be uniform, as calibration assumes")
        self.hist = hist
        self.lam = float(lam)
        self.thresholds = thresholds
        self.z = uniform_probs(hist.n_bins)
        self.t = 0
        self.last_statistic = 0.0
        self.detected = False
        self.detection_time: Optional[int] = None

    def update_from_bin(self, bin_index: int) -> tuple[float, bool]:
        """Advance the statistic with a precomputed bin index."""
        if self.detected:
            return self.last_statistic, True
        self.t += 1
        t = self.t
        stat = float(ewma_step(self.z, bin_index, self.lam))
        self.last_statistic = stat
        h = self.thresholds.at(t)
        # only S_t >= h_t can fire; the shared rule decides those steps
        if stat >= h and fires(np.array([stat]), h, self.thresholds.gamma_at(t),
                               lambda tied: tie_uniform(self.hist.seed, t))[0]:
            self.detected = True
            self.detection_time = t
        return stat, self.detected

    def update(self, x) -> tuple[float, bool]:
        """Process one sample; returns (statistic, detected)."""
        if self.detected:
            return self.last_statistic, True
        return self.update_from_bin(locate_bin(self.hist, x))


def run_stream(detector: QtEwmaDetector, data, trace_path=None) -> Optional[int]:
    """Feed rows of ``data`` through the detector until it fires.

    Returns the 1-based detection time, or None if the stream ends first.
    With ``trace_path`` set, writes one CSV row (t, bin, statistic,
    threshold, detected) per processed sample.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    trace_fh = open(trace_path, "w", newline="", encoding="utf-8") if trace_path else None
    try:
        writer = None
        if trace_fh is not None:
            writer = csv.writer(trace_fh)
            writer.writerow(["t", "bin", "statistic", "threshold", "detected"])
        for row in data:
            if detector.detected:
                break
            k = locate_bin(detector.hist, row)
            stat, detected = detector.update_from_bin(k)
            if writer is not None:
                writer.writerow(
                    [detector.t, k, repr(stat), repr(detector.thresholds.at(detector.t)), int(detected)]
                )
            if detected:
                return detector.detection_time
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return detector.detection_time
