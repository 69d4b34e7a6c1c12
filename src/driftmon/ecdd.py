"""EWMA error-rate chart over a fixed classifier (ECDD baseline).

The chart tracks the exponentially weighted error rate of a classifier
that is never updated during monitoring, and fires when it exceeds the
running error-rate estimate by L estimated standard deviations. The
rule is one-sided: only error-increasing drifts can be detected.
``ecdd_step`` is the one chart recursion, which ``engine`` and
``calibration`` share, and ``ecdd_fires`` the one firing rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cdm import Detection
from .errors import ConfigError, InputError, NumericError
from .seeding import rng_from

DEFAULT_R = 0.2
DEFAULT_KNN_K = 9
CV_FOLDS = 5  # folds of the cross-validated training error rate p0

# Pseudo-observation weight of the training-set error estimate inside the
# running mean. Without it the estimate collapses onto the first few stream
# errors and the chart fires spuriously at t = 1.
DEFAULT_PRIOR_WEIGHT = 100.0


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


def ecdd_init(p0_estimate: float, r: float, limit: float,
              prior_weight: float = DEFAULT_PRIOR_WEIGHT) -> EcddState:
    if not 0.0 <= p0_estimate <= 1.0:
        raise ConfigError(f"p0_estimate must be in [0, 1], got {p0_estimate}")
    if not 0.0 < r < 1.0:
        raise ConfigError(f"r must be in (0, 1), got {r}")
    if limit < 0.0:
        raise ConfigError(f"control limit must be >= 0, got {limit}")
    if prior_weight < 0.0:
        raise ConfigError(f"prior_weight must be >= 0, got {prior_weight}")
    return EcddState(r=float(r), limit=float(limit), p0=float(p0_estimate),
                     prior_weight=float(prior_weight), u=float(p0_estimate))


def ecdd_step(u, err_sum, error, t: int, p0, prior_weight: float, r: float):
    """Fold the t-th 0/1 error into one chart or an array of charts.

    Returns (u, err_sum, p, sigma): the error EWMA, the error count, the
    running rate with p0 worth ``prior_weight`` errors, and u's std dev.
    """
    u = (1.0 - r) * u + r * error
    err_sum = err_sum + error
    p = (prior_weight * p0 + err_sum) / (prior_weight + t)
    sigma = np.sqrt(p * (1.0 - p) * (r / (2.0 - r)) * (1.0 - (1.0 - r) ** (2 * t)))
    return u, err_sum, p, sigma


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
    state.n_seen += 1
    t = state.n_seen
    state.u, state.err_sum, p, sigma = ecdd_step(state.u, state.err_sum, error, t,
                                                 state.p0, state.prior_weight, state.r)
    if ecdd_fires(state.u, p, sigma, state.limit):
        state.detected = True
        state.detection_time = t
    return state.u, state.detected


def _check_width(x, dim: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != dim:
        raise InputError(f"expected {dim} features, got {x.shape[1]}")
    return x


class KnnClassifier:
    """k-nearest-neighbours with Euclidean distance.

    Distance ties are broken by training index, vote ties by the smallest
    class label, so predictions are deterministic.
    """

    kind = "knn"

    def __init__(self, k: int):
        self.k = int(k)
        self.train_x: np.ndarray | None = None
        self.train_y: np.ndarray | None = None
        self.classes: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        if self.k > len(x):
            raise ConfigError(f"k={self.k} larger than training size {len(x)}")
        self.train_x = np.asarray(x, dtype=float)
        self.train_y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(self.train_y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _check_width(x, self.train_x.shape[1])
        out = np.empty(len(x), dtype=np.int64)
        chunk = max(1, 2_000_000 // max(1, self.train_x.size))  # caps the (rows, n_train, d) difference
        for start in range(0, len(x), chunk):
            block = x[start:start + chunk]
            d2 = ((block[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            labels = self.train_y[nearest]
            votes = np.stack([(labels == c).sum(axis=1) for c in self.classes], axis=1)
            out[start:start + len(block)] = self.classes[votes.argmax(axis=1)]
        return out


class LdaClassifier:
    """Linear discriminant analysis with a pooled covariance estimate."""

    kind = "lda"

    def __init__(self):
        self.classes: np.ndarray | None = None
        self.means: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.biases: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LdaClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(y)
        n, d = x.shape
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
        x = _check_width(x, self.weights.shape[0])
        scores = x @ self.weights + self.biases
        return self.classes[scores.argmax(axis=1)]


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


def fit_classifier(kind: str, x, y, k: int = DEFAULT_KNN_K):
    """Fit a ``CLASSIFIERS`` kind on labeled training data (k: kNN's neighbours)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise InputError("training data must be an N x d matrix with N labels")
    if len(np.unique(y)) < 2:
        raise ConfigError("classifier training needs at least 2 classes")
    if kind not in CLASSIFIERS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    return (KnnClassifier(k) if kind == "knn" else CLASSIFIERS[kind]()).fit(x, y)


def cross_val_error(kind: str, x, y, seed: int = 0, k: int = DEFAULT_KNN_K) -> float:
    """Stratified ``CV_FOLDS``-fold cross-validated error rate of a classifier."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    rng = rng_from(seed)
    folds = np.empty(len(y), dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        folds[idx] = np.arange(len(idx)) % CV_FOLDS
    errors = 0
    for f in range(CV_FOLDS):
        test = folds == f
        clf = fit_classifier(kind, x[~test], y[~test], k=k)
        errors += int((clf.predict(x[test]) != y[test]).sum())
    return errors / len(y)


class EcddMonitor:
    """The chart over a fixed classifier, fed one stream sample at a time.

    It keeps the monitor interface of ``cdm.CdmMonitor``: ``process``,
    ``process_unlabeled`` and ``report``, with detection times in global
    stream position. Unlabeled samples advance global time only. The
    chart cannot attribute a class, so ``m_star`` is always None.
    """

    def __init__(self, classifier, state: EcddState):
        self.classifier = classifier
        self.state = state
        self.global_t = 0
        self.detection: Optional[Detection] = None

    def process(self, x, y: int) -> Optional[Detection]:
        """Classify one labeled sample and fold its error into the chart.

        Classifying comes first, so a rejected sample changes nothing.
        """
        if self.detection is not None:
            return self.detection
        error = int(self.classifier.predict(x)[0] != y)
        self.global_t += 1
        if ecdd_update(self.state, error)[1]:
            self.detection = Detection(t_star=self.global_t, m_star=None)
        return self.detection

    def process_unlabeled(self, x) -> Optional[Detection]:
        if self.detection is None:
            self.global_t += 1
        return self.detection

    def report(self) -> dict:
        det = self.detection
        return {
            "detected": det is not None,
            "t_star": det.t_star if det else None,
            "m_star": None,
            "n_labeled": self.state.n_seen,
            "statistic": self.state.u,
        }
