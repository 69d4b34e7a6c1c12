"""QuantTree histograms: axis-aligned partitions of R^d with exact
training-point allocation per bin.

The construction recursively peels off one bin at a time: draw a random
dimension and direction, then place a threshold at the midpoint between
order statistics so that the bin captures exactly its allocated share of
the remaining training points. Any statistic that depends only on bin
counts is then distribution-free with respect to the data-generating
distribution, provided the data are continuous.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .seeding import check_count, rng_from

LOWER = "lower"  # bin is {x : x[dim] <= threshold}
UPPER = "upper"  # bin is {x : x[dim] >  threshold}
LOCATE_BLOCK = 2**18  # elements of the (rows, K-1) split tests locate_bins holds at once


@dataclass(frozen=True)
class Split:
    dim: int
    threshold: float
    direction: str


@dataclass(frozen=True)
class QuantTreeHistogram:
    """Immutable histogram: K-1 ordered splits partitioning R^d into K bins.

    Every bin targets probability 1/K, the only histogram that threshold
    calibration simulates.
    """

    splits: tuple[Split, ...]
    dim: int
    train_size: int
    seed: int

    @property
    def n_bins(self) -> int:
        return len(self.splits) + 1

    @functools.cached_property
    def split_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The splits as arrays: dims, thresholds and an is-UPPER flag."""
        return (np.array([s.dim for s in self.splits], dtype=np.int64),
                np.array([s.threshold for s in self.splits]),
                np.array([s.direction == UPPER for s in self.splits]))


def uniform_probs(n_bins: int) -> np.ndarray:
    return np.full(n_bins, 1.0 / n_bins)


@functools.lru_cache(maxsize=64)
def _bin_allocation(n_train: int, n_bins: int) -> tuple[int, ...]:
    """Training points each split k < K-1 carves off; the last bin keeps the rest.

    Depends on (N, K) alone, so both tree builders share one cached tuple.
    """
    pi = uniform_probs(n_bins)
    counts, n_remaining = [], n_train
    for k in range(n_bins - 1):
        # float arithmetic over pi on purpose: an integer n / (K - k) rounds
        # half-integers differently (K=3, N=10 allocates 3, 3, 4 here)
        target = int(round(n_remaining * pi[k] / pi[k:].sum()))
        # keep at least one point available for every later bin
        counts.append(max(1, min(target, n_remaining - (n_bins - 1 - k))))
        n_remaining -= counts[-1]
    return tuple(counts)


def build_quanttree(training, n_bins: int, seed: int) -> QuantTreeHistogram:
    """Build a K-bin QuantTree histogram on ``training`` (N x d).

    Each bin k < K-1 is carved off by a random axis-aligned halfspace
    holding exactly its allocated share (about N/K) of the training
    points; the last bin is the remainder of R^d. Deterministic given
    (training, K, seed).
    """
    x = np.asarray(training, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError("training must be a non-empty N x d matrix")
    if not np.all(np.isfinite(x)):
        raise InputError("training contains non-finite values")
    n_bins = check_count(n_bins, "n_bins", 2)
    n, d = x.shape
    if n < n_bins:
        raise ConfigError(f"need at least {n_bins} training points, got {n}")

    rng = rng_from(seed)
    alive = np.ones(n, dtype=bool)
    # per used column, the alive rows by value, ties by row: one stable sort
    # of the column, then only filtered as rows leave
    orders: dict[int, np.ndarray] = {}
    splits: list[Split] = []
    for count in _bin_allocation(n, n_bins):
        dim = int(rng.integers(d))
        direction = LOWER if rng.random() < 0.5 else UPPER
        order = orders.get(dim)
        if order is None:
            order = np.argsort(x[:, dim], kind="stable")
        order = orders[dim] = order[alive[order]]
        if direction == LOWER:
            inside, outside = order[count - 1], order[count]
            alive[order[:count]] = False
        else:
            inside, outside = order[-count], order[-count - 1]
            alive[order[-count:]] = False
        v_in, v_out = x[inside, dim], x[outside, dim]
        # duplicate boundary values: fall back to the shared value
        thr = v_in if v_in == v_out else 0.5 * (v_in + v_out)
        splits.append(Split(dim, float(thr), direction))

    return QuantTreeHistogram(
        splits=tuple(splits),
        dim=d,
        train_size=n,
        seed=int(seed),
    )


def locate_bin(hist: QuantTreeHistogram, x) -> int:
    """Map a single d-vector to its bin index in O(K)."""
    v = np.asarray(x, dtype=float).ravel()
    if v.size != hist.dim:
        raise InputError(f"expected a vector of length {hist.dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise InputError("point contains non-finite values")
    for k, s in enumerate(hist.splits):
        if (v[s.dim] <= s.threshold) if s.direction == LOWER else (v[s.dim] > s.threshold):
            return k
    return hist.n_bins - 1


def locate_bins(hist: QuantTreeHistogram, dataset) -> np.ndarray:
    """Vectorized locate_bin over the rows of ``dataset``."""
    x = np.asarray(dataset, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if x.shape[1] != hist.dim:
        raise InputError(f"expected {hist.dim} columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise InputError("dataset contains non-finite values")
    dims, thresholds, upper = hist.split_table
    out = np.empty(x.shape[0], dtype=np.int64)
    rows = max(1, LOCATE_BLOCK // len(dims))
    for start in range(0, len(x), rows):
        # inside[i, k]: row i lies in split k's half-space (finite values:
        # x <= thr is not x > thr); its bin is the first such k, else K-1
        inside = (x[start:start + rows, dims] > thresholds) == upper
        out[start:start + len(inside)] = np.where(inside.any(axis=1), inside.argmax(axis=1),
                                                  hist.n_bins - 1)
    return out
