"""Online EWMA monitoring of QuantTree bin frequencies.

The detector keeps one exponentially weighted frequency Z_k per bin,
updates them as each sample arrives, and compares the Pearson-like
divergence S = K sum_k (Z_k - 1/K)^2 of Z from the uniform target bin
probabilities against a calibrated, time-varying threshold, randomized
at the threshold itself (see ``thresholds``). S is carried from step to
step, not summed over the bins, so it depends on the bin pattern alone:
relabeling the bins leaves every S_t bit for bit the same, and the tie
rule at the threshold sees equal statistics as equal. Z is kept as
scale * w, with one scale shared by all bins, so a step reads and
writes the hit bin's weight alone: O(1) per detector, not O(K). The
recursion ``ewma_step`` and the rule ``fires`` run here alone: in the
detector, and in ``lockstep``, the loop ``calibration`` and ``engine`` share.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigError, InputError
from .quanttree import QuantTreeHistogram, locate_bin, uniform_probs
from .seeding import tie_uniform
from .thresholds import ThresholdTable

DEFAULT_LAMBDA = 0.03
SCALE_FLOOR = 1e-200  # ewma_step folds the shared scale into w below this


def ewma_step(w: np.ndarray, scale: float, stat, index, lam: float):
    """Z <- (1 - lam) Z + lam e_b on Z = scale * w; return (next S, next scale).

    S' = (1 - lam)^2 S + 2 lam (1 - lam) K (z_b - 1/K) + lam^2 (K - 1),
    with z_b = w_b scale the hit bin's frequency before the update: S = K
    sum_k (Z_k - 1/K)^2 follows it exactly while Z sums to 1, and S_1 =
    lam^2 (K - 1) for every first bin. The step then sets scale *= 1 - lam
    and w_b += lam / scale in place, so it touches one weight per row.
    Below ``SCALE_FLOOR`` the scale is folded into ``w`` (w *= scale,
    scale = 1); the scale depends on the step count alone, so rows and
    callers that start together fold together. ``w``: the K weights of
    one detector with ``index`` its hit bin and ``stat`` a scalar, or one
    row of K weights per detector with ``index`` the flat indices
    row * K + bin of the rows to update and ``stat`` one S per index.
    """
    k = w.shape[-1]
    flat = w.reshape(-1)
    w_b = flat[index]
    stat = ((1.0 - lam) ** 2 * stat + 2.0 * lam * (1.0 - lam) * k * (w_b * scale - 1.0 / k)
            + lam * lam * (k - 1))
    scale *= 1.0 - lam
    flat[index] = w_b + lam / scale
    if scale < SCALE_FLOOR:
        w *= scale
        scale = 1.0
    return stat, scale


def fires(stat: np.ndarray, h: float, gamma: float, tie_uniforms) -> np.ndarray:
    """Randomized rule: stat[i] > h, or stat[i] == h and U_i < gamma.

    ``tie_uniforms(tied)`` returns the U_i of the tied indices, if any.
    """
    fire = stat > h
    tied = np.flatnonzero(stat == h)
    if tied.size:
        fire[tied] = tie_uniforms(tied) < gamma
    return fire


def lockstep(n_rows: int, k: int, lam: float, steps, hit_index, rule, tie_uniforms):
    """Step ``n_rows`` detectors of K bins together; yield (t, rows, fire) per step.

    At each t of ``steps``, ``hit_index(t, rows)`` gives the rows at risk
    their hit bins as flat indices into the (n_rows, K) weights, row * K +
    bin, ``ewma_step`` advances them, ``rule(t, stat)`` gives (h_t, gamma_t), or
    None to stop, and ``fires`` decides, drawing ``tie_uniforms(t, tied_rows)``
    only on a tie. Rows that fire leave ``rows`` after the yield; only the
    rows' index and S are compacted, never the (n_rows, K) weights, so a
    step costs O(rows at risk). Stepping goes on with no row at risk.
    """
    w = np.full((n_rows, k), 1.0 / k)  # row i's weights; never compacted
    scale, stat, rows = 1.0, np.zeros(n_rows), np.arange(n_rows)
    for t in steps:
        stat, scale = ewma_step(w, scale, stat, hit_index(t, rows), lam)
        step_rule = rule(t, stat)
        if step_rule is None:
            return
        fire = fires(stat, *step_rule, lambda tied: tie_uniforms(t, rows[tied]))
        yield t, rows, fire
        keep = ~fire
        rows, stat = rows[keep], stat[keep]


class QtEwmaDetector:
    """Sequential detector; one instance per stream, stepped at the
    table's lambda.

    State: the EWMA bin frequencies Z = scale * w (``z`` reads them),
    the sample counter t, and the statistic S_t, which the next step
    carries forward. Step t fires when S_t > h_t, or when S_t == h_t and
    U_t < gamma_t, where U_t = ``tie_uniform(hist.seed, t)`` is drawn
    only on a tie; the draws therefore depend on the histogram seed and
    the step alone. After a detection the detector freezes; restart by
    constructing a new instance.
    """

    def __init__(self, hist: QuantTreeHistogram, thresholds: ThresholdTable):
        if thresholds.n_bins != hist.n_bins:
            raise ConfigError(
                f"threshold table n_bins={thresholds.n_bins} does not match "
                f"histogram n_bins={hist.n_bins}"
            )
        if thresholds.train_size != hist.train_size:
            raise ConfigError(
                f"threshold table train_size={thresholds.train_size} does not match "
                f"histogram train_size={hist.train_size}"
            )
        self.hist = hist
        self.lam = thresholds.lam
        self.thresholds = thresholds
        self.w = uniform_probs(hist.n_bins)
        self.scale = 1.0
        self.t = 0
        self.last_statistic = 0.0
        self.detected = False
        self.detection_time: Optional[int] = None

    @property
    def z(self) -> np.ndarray:
        """The EWMA bin frequencies Z (a copy)."""
        return self.w * self.scale

    def update_from_bin(self, bin_index: int) -> tuple[float, bool]:
        """Advance the statistic with a precomputed bin index.

        An index that is not an integer in 0..K-1 raises ``InputError``
        before any state moves.
        """
        if not (isinstance(bin_index, (int, np.integer)) and 0 <= bin_index < self.w.size):
            raise InputError(f"bin index must be an integer in 0..{self.w.size - 1}, "
                             f"got {bin_index!r}")
        if self.detected:
            return self.last_statistic, True
        self.t += 1
        t = self.t
        stat, self.scale = ewma_step(self.w, self.scale, self.last_statistic, bin_index,
                                     self.lam)
        stat = self.last_statistic = float(stat)
        h, gamma = self.thresholds.at(t)
        # only S_t >= h_t can fire; the shared rule decides those steps
        if stat >= h and fires(np.array([stat]), h, gamma,
                               lambda tied: tie_uniform(self.hist.seed, t))[0]:
            self.detected = True
            self.detection_time = t
        return stat, self.detected

    def update(self, x) -> tuple[float, bool]:
        """Process one sample; returns (statistic, detected)."""
        if self.detected:
            return self.last_statistic, True
        return self.update_from_bin(locate_bin(self.hist, x))
