"""EWMA error-rate chart over a fixed classifier (ECDD baseline).

The chart tracks the exponentially weighted error rate of a classifier
that is never updated during monitoring, and fires when it exceeds the
running error-rate estimate by L estimated standard deviations. The
rule is one-sided: only error-increasing drifts can be detected.
The chart recursion is written once: ``_fold`` steps u and the error
count, ``_rate`` gives p and sigma, and ``ecdd_fires`` is the firing
rule. ``ecdd_update`` folds one error of one chart with them, and
``ecdd_blocks`` steps many charts a (steps, charts) block at a time: the
one loop that ``engine`` and ``calibration`` iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cdm import Monitor, training_set
from .errors import ConfigError, InputError, NumericError
from .seeding import rng_from

DEFAULT_R = 0.2
DEFAULT_KNN_K = 9
CV_FOLDS = 5  # folds of the cross-validated training error rate p0

# Pseudo-observation weight of the training-set error estimate inside the
# running mean. Without it the estimate collapses onto the first few stream
# errors and the chart fires spuriously at t = 1.
DEFAULT_PRIOR_WEIGHT = 100.0
# chart-steps per ecdd_blocks block: it bounds the block's temporaries, a
# few float arrays of this size
ECDD_BLOCK = 1 << 15


@dataclass
class EcddState:
    r: float
    limit: float
    p0: float
    prior_weight: float = DEFAULT_PRIOR_WEIGHT
    u: float = 0.0
    err_sum: float = 0.0
    n_seen: int = 0
    detected: bool = False
    detection_time: Optional[int] = field(default=None)


def check_chart(p0, r: float, limit: float, prior_weight: float) -> np.ndarray:
    """``p0`` as an array, or ``ConfigError`` unless every chart parameter is in range.

    p0 (a scalar or one per chart) and L must lie in [0, 1] and [0, inf),
    r in (0, 1), and the prior weight must be finite and >= 0.
    """
    p0 = np.asarray(p0, dtype=float)
    if not np.all((0.0 <= p0) & (p0 <= 1.0)):
        raise ConfigError(f"p0 must be in [0, 1], got {p0}")
    if not 0.0 < r < 1.0:
        raise ConfigError(f"r must be in (0, 1), got {r}")
    if not limit >= 0.0:
        raise ConfigError(f"control limit must be >= 0, got {limit}")
    if not 0.0 <= prior_weight < np.inf:
        raise ConfigError(f"prior_weight must be finite and >= 0, got {prior_weight}")
    return p0


def ecdd_init(p0_estimate: float, r: float, limit: float,
              prior_weight: float = DEFAULT_PRIOR_WEIGHT) -> EcddState:
    check_chart(p0_estimate, r, limit, prior_weight)
    return EcddState(r=float(r), limit=float(limit), p0=float(p0_estimate),
                     prior_weight=float(prior_weight), u=float(p0_estimate))


def _fold(u_step, err_step, u, err_sum, r: float):
    """The chart state after a step: u = (1 - r) u + r e and the error count.

    ``u_step`` and ``err_step`` hold the step's own terms r e and e on
    entry; ``u`` and ``err_sum`` are the state before the step. Arrays
    (a block's row) are updated in place.
    """
    u_step += (1.0 - r) * u
    err_step += err_sum
    return u_step, err_step


def _ramp(t: int, r: float) -> float:
    """1 - (1 - r)^(2t), u's variance ramp at step t, by Python's ``**``.

    ``np.power`` may round (1 - r)^(2t) differently (it does with AVX-512
    at t = 1, r = 0.2), so a table of ramps is built from this function.
    """
    return 1.0 - (1.0 - r) ** (2 * t)


def _rate(err_sum, t, ramp, p0, prior_weight: float, r: float):
    """(p, sigma) at step t, elementwise for a chart or a block of charts.

    p is the running error rate with p0 worth ``prior_weight`` errors,
    sigma u's std dev; ``ramp`` is ``_ramp(t, r)``.
    """
    p = (prior_weight * p0 + err_sum) / (prior_weight + t)
    return p, np.sqrt(p * (1.0 - p) * (r / (2.0 - r)) * ramp)


def ecdd_blocks(n_charts: int, horizon: int, errors, p0, prior_weight: float, r: float):
    """Step ``n_charts`` fresh charts ``horizon`` steps; yield (t, u, p, sigma) per block.

    The charts start at u = ``p0`` (a scalar or one per chart) and step
    ``max(1, ECDD_BLOCK // n_charts)`` steps a block; ``errors(t, steps)``
    gives the (steps, charts) 0/1 errors of steps t + 1, ..., t + steps.
    Each yield holds the t before the block and the block's (steps,
    charts) u, p and sigma. Only u and the error count run step by step,
    one product and two in-place additions of rows a step; p and sigma
    are elementwise over the block. Every value is the double that
    ``ecdd_update`` computes for the chart at that step.
    """
    block = max(1, ECDD_BLOCK // max(1, n_charts))
    u, err_sum = p0, 0.0
    for t in range(0, horizon, block):
        # e, then the count
        err_sums = errors(t, min(block, horizon - t)).astype(float, order="C")
        us = r * err_sums  # r e, then u
        for u_step, err_step in zip(us, err_sums):
            u, err_sum = _fold(u_step, err_step, u, err_sum, r)
        steps = range(t + 1, t + len(us) + 1)
        ramp = np.array([_ramp(s, r) for s in steps])[:, None]
        yield (t, us, *_rate(err_sums, np.array(steps)[:, None], ramp, p0, prior_weight, r))


def ecdd_fires(u, p, sigma, limit: float):
    """The chart fires when u > p + L sigma; with sigma = 0 it cannot fire.

    ``calibration.calibrate_ecdd_limit`` counts the same charts as firing.
    """
    return (sigma > 0.0) & (u > p + limit * sigma)


def ecdd_update(state: EcddState, error: int) -> tuple[float, bool]:
    """Fold one 0/1 classification error into the chart."""
    if error not in (0, 1):
        raise InputError(f"error must be 0 or 1, got {error!r}")
    if state.detected:
        return state.u, True
    state.n_seen = t = state.n_seen + 1
    r = state.r
    state.u, state.err_sum = u, err_sum = _fold(r * error, error, state.u, state.err_sum, r)
    p, sigma = _rate(err_sum, t, _ramp(t, r), state.p0, state.prior_weight, r)
    if ecdd_fires(u, p, float(sigma), state.limit):  # a float: numpy scalars cost more
        state.detected = True
        state.detection_time = t
    return u, state.detected


def _check_features(x, dim: int) -> np.ndarray:
    """Rows of ``dim`` finite features, or ``InputError`` (width first)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != dim:
        raise InputError(f"expected {dim} features, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise InputError("features contain non-finite values")
    return x


KNN_BLOCK = 2**18  # elements of the largest temporary in KnnClassifier.predict
# Screening slack per unit of ||x||^2 + max ||t||^2, and per underflow: a
# rounding bound of c (d + 4) u with u = 2^-53 and a safety factor c = 8
# over the (5d + 9) u that the expansion and the direct sum can differ by
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
_SLACK_C = 8.0
_UNIT = 2.0**-53


class KnnClassifier:
    """k-nearest-neighbours with Euclidean distance.

    Distance ties are broken by training index, vote ties by the smallest
    class label, so predictions are deterministic.
    """

    kind = "knn"

    def __init__(self, k: int):
        self.k = int(k)
        if self.k < 1:
            raise ConfigError(f"kNN k must be >= 1, got {k}")
        self.train_x: np.ndarray | None = None
        self.train_y: np.ndarray | None = None
        self.classes: np.ndarray | None = None
        self.dim: int | None = None  # features per row
        self._train_sq: np.ndarray | None = None  # ||t||^2 per training row
        self._neg2t: np.ndarray | None = None     # -2 t^T, (d, n_train)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        if self.k > len(x):
            raise ConfigError(f"k={self.k} larger than training size {len(x)}")
        self.train_x = np.asarray(x, dtype=float)
        self.train_y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(self.train_y)
        self.dim = self.train_x.shape[1]
        self._train_sq = np.einsum("ij,ij->i", self.train_x, self.train_x)
        self._neg2t = -2.0 * self.train_x.T
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class of each row: the vote of its k nearest training rows.

        The neighbours are those of a full stable sort of the distances
        ``((x - t) ** 2).sum()``, found without one; ``_nearest`` gives
        the screen and its rounding bound. Rows whose squared norms come
        within a factor 4 of overflow are sorted in full instead.
        """
        x = _check_features(x, self.dim)
        out = np.empty(len(x), dtype=np.int64)
        # (rows, n_train) screens, and up to rows x n_train candidates of d features
        rows = max(1, KNN_BLOCK // self.train_x.size)
        for start in range(0, len(x), rows):
            labels = self.train_y[self._nearest(x[start:start + rows])]
            votes = np.stack([(labels == c).sum(axis=1) for c in self.classes], axis=1)
            out[start:start + len(labels)] = self.classes[votes.argmax(axis=1)]
        return out

    def _nearest(self, x: np.ndarray) -> np.ndarray:
        """Training indices of each row's k nearest, by (distance, index).

        One BLAS product ranks every training row t by b = ||t||^2 - 2 x.t,
        the distance D = ||x - t||^2 less ||x||^2, a constant per row.
        Computed, b - ||x||^2 and the direct sum D' = ((x - t) ** 2).sum()
        that the sort ranks by differ by at most (5d + 9) u (||x||^2 +
        ||t||^2) with u = 2^-53, so by less than the row's slack delta =
        c (d + 4) u (||x||^2 + max ||t||^2) + c (d + 4) tiny, where tiny
        covers underflow. The k rows with the smallest b have D' - ||x||^2
        below kth(b) + delta, so the k-th smallest D' does too, and every
        row among the k nearest by D' has b at most kth(b) + 2 delta.
        Those columns are the candidates: only their D' are computed, and
        the k smallest by (D', training index) are the neighbours.
        """
        t, k = self.train_x, self.k
        x_sq = np.einsum("ij,ij->i", x, x)
        nearest = np.empty((len(x), k), dtype=np.int64)
        screened = np.isfinite(4.0 * (x_sq + self._train_sq.max()))
        for i in np.flatnonzero(~screened):
            nearest[i] = np.argsort(((x[i] - t) ** 2).sum(axis=1), kind="stable")[:k]
        if not screened.all():
            x, x_sq = x[screened], x_sq[screened]
        if not len(x):
            return nearest
        b = x @ self._neg2t
        b += self._train_sq
        delta = _SLACK_C * (t.shape[1] + 4) * (
            _UNIT * (x_sq + self._train_sq.max()) + np.finfo(float).tiny)
        bound = np.partition(b, k - 1, axis=1)[:, k - 1] + 2.0 * delta
        rows, cols = divmod(np.flatnonzero(b <= bound[:, None]), len(t))
        dist = ((x[rows] - t[cols]) ** 2).sum(axis=1)
        order = np.lexsort((dist, rows))  # stable: equal distances keep index order
        first = np.concatenate(([0], np.bincount(rows, minlength=len(x)).cumsum()[:-1]))
        nearest[screened] = cols[order[first[:, None] + np.arange(k)]]
        return nearest


class LdaClassifier:
    """Linear discriminant analysis with a pooled covariance estimate."""

    kind = "lda"

    def __init__(self):
        self.classes: np.ndarray | None = None
        self.dim: int | None = None  # features per row
        self.means: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.biases: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LdaClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(y)
        n, d = x.shape
        self.dim = d
        means, scatter, priors = [], np.zeros((d, d)), []
        for c in self.classes:
            xc = x[y == c]
            mu = xc.mean(axis=0)
            means.append(mu)
            centered = xc - mu
            scatter += centered.T @ centered
            priors.append(len(xc) / n)
        self.means = np.array(means)
        cov = scatter / max(1, n - len(self.classes))
        cov_inv = _robust_inverse(cov)
        self.weights = cov_inv @ self.means.T  # (d, M)
        self.biases = (
            -0.5 * np.einsum("md,dm->m", self.means, self.weights)
            + np.log(np.asarray(priors))
        )
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes[self._scores(x).argmax(axis=1)]

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Each row's scores, the same doubles in any chunk: a one-row product
        may round otherwise (a matrix-vector product), so it runs as two rows."""
        x = _check_features(x, self.dim)
        return ((x[[0, 0]] if len(x) == 1 else x) @ self.weights + self.biases)[:len(x)]


def _robust_inverse(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    try:
        inv = np.linalg.inv(cov)
        if np.all(np.isfinite(inv)) and np.linalg.cond(cov) < 1e12:
            return inv
    except np.linalg.LinAlgError:
        pass
    eps = 1e-6 * np.trace(cov) / d
    if eps <= 0.0:
        eps = 1e-12
    try:
        return np.linalg.inv(cov + eps * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise NumericError("pooled covariance is singular after regularization") from exc


CLASSIFIERS = {"knn": KnnClassifier, "lda": LdaClassifier}


def _training_set(kind: str, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float rows and int64 labels, or ``fit_classifier``'s refusal."""
    x, y = training_set(x, y)
    if not np.isfinite(x).all():
        raise InputError("training features contain non-finite values")
    if len(np.unique(y)) < 2:
        raise ConfigError("classifier training needs at least 2 classes")
    if kind not in CLASSIFIERS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    return x, y


def _classifier(kind: str, k: int):
    return KnnClassifier(k) if kind == "knn" else CLASSIFIERS[kind]()


def fit_classifier(kind: str, x, y, k: int = DEFAULT_KNN_K):
    """Fit a ``CLASSIFIERS`` kind on labeled training data (k: kNN's neighbours)."""
    x, y = _training_set(kind, x, y)
    return _classifier(kind, k).fit(x, y)


def cross_val_error(kind: str, x, y, seed: int = 0, k: int = DEFAULT_KNN_K) -> float:
    """Stratified ``CV_FOLDS``-fold cross-validated error rate of a classifier.

    The data are checked once, as ``fit_classifier`` checks them, and each
    fold's classifier is fitted directly. A class of one row lies in fold
    0 alone, so fold 0's training set lacks it: fewer than two classes
    left there is refused as a training set of one class is.
    """
    x, y = _training_set(kind, x, y)
    rng = rng_from(seed)
    classes, sizes = np.unique(y, return_counts=True)
    if np.count_nonzero(sizes > 1) < 2:  # the classes in fold 0's training set
        raise ConfigError("classifier training needs at least 2 classes")
    folds = np.empty(len(y), dtype=np.int64)
    for c in classes:
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        folds[idx] = np.arange(len(idx)) % CV_FOLDS
    errors = 0
    for f in range(CV_FOLDS):
        test = folds == f
        clf = _classifier(kind, k).fit(x[~test], y[~test])
        errors += int((clf.predict(x[test]) != y[test]).sum())
    return errors / len(y)


class EcddMonitor(Monitor):
    """The chart over a fixed classifier, a ``cdm.Monitor``.

    The chart cannot attribute a class, so ``m_star`` is always None.
    """

    def __init__(self, classifier, state: EcddState):
        super().__init__()
        self.classifier = classifier
        self.state = state

    def _admit(self, x, y, whole, labeled):
        # the labeled rows predict would reject are refused, all at a wrong width
        fit = whole & np.isfinite(x).all(axis=1) & (x.shape[1] == self.classifier.dim)
        return labeled & fit, labeled & ~fit

    def _step(self, x, y, rows):
        if not rows.size:  # predict refuses even zero rows of the wrong width
            return None
        errors = (self.classifier.predict(x[rows]) != y[rows]).astype(np.int64)
        for i, error in zip(rows.tolist(), errors.tolist()):
            if ecdd_update(self.state, error)[1]:
                return i, None
        return None

    def _refuse(self, row, label):
        self.classifier.predict(row)  # raises: the width first, then a non-finite feature
        raise InputError("features contain non-finite values")

    def report(self) -> dict:
        return {**super().report(), "n_labeled": self.state.n_seen, "statistic": self.state.u}
