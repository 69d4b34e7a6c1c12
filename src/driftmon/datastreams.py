"""Labeled datastream generation and ingestion.

Synthetic streams are Gaussian mixtures with one component per class and
an optional change point tau after which some class-conditionals switch
to their post-change variants. Real streams are read from CSV with a
constant-memory row iterator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .seeding import rng_from


@dataclass
class GaussianMixtureConfig:
    """Pre/post-change class-conditional Gaussians with class priors."""

    means: np.ndarray                      # (M, d) pre-change means
    covs: Optional[np.ndarray] = None      # (M, d, d); None = identity
    priors: Optional[np.ndarray] = None    # (M,); None = uniform
    post_means: Optional[np.ndarray] = None
    post_covs: Optional[np.ndarray] = None
    tau: int = 0

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        m, d = self.means.shape
        if self.priors is None:
            self.priors = np.full(m, 1.0 / m)
        else:
            self.priors = np.asarray(self.priors, dtype=float)
            if self.priors.shape != (m,) or np.any(self.priors < 0):
                raise ConfigError("priors must be a non-negative vector, one per class")
            if abs(self.priors.sum() - 1.0) > 1e-9:
                raise ConfigError("priors must sum to 1")
        self.covs, factors = self._check_covs(self.covs, m, d)
        if self.post_means is None:
            self.post_means = self.means.copy()
        else:
            self.post_means = np.atleast_2d(np.asarray(self.post_means, dtype=float))
            if self.post_means.shape != (m, d):
                raise ConfigError("post_means must match the shape of means")
        if self.post_covs is None:
            self.post_covs, post_factors = self.covs, factors
        else:
            self.post_covs, post_factors = self._check_covs(self.post_covs, m, d)
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        # every draw reads these; an attribute, not a field, so config hashes
        # cover only what the user set
        self._cholesky = (factors, post_factors)

    @staticmethod
    def _check_covs(covs, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The (M, d, d) covariances and their Cholesky factors."""
        if covs is None:
            covs = np.broadcast_to(np.eye(d), (m, d, d)).copy()
        else:
            covs = np.asarray(covs, dtype=float)
            if covs.shape != (m, d, d):
                raise ConfigError(f"covariances must have shape ({m}, {d}, {d})")
            if not all(np.allclose(c, c.T) for c in covs):
                raise ConfigError("covariances must be symmetric")
        try:
            return covs, np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("covariances must be positive definite") from exc

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class LabeledStream:
    x: np.ndarray                 # (T, d)
    y: np.ndarray                 # (T,) labels in 1..M (value ignored if unlabeled)
    labeled: np.ndarray           # (T,) bool

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=np.int64)
        self.labeled = np.asarray(self.labeled, dtype=bool)
        if not (len(self.x) == len(self.y) == len(self.labeled)):
            raise InputError("stream arrays must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[tuple[np.ndarray, Optional[int]]]:
        for i in range(len(self.x)):
            yield self.x[i], int(self.y[i]) if self.labeled[i] else None


def _mixture_draw(cfg: GaussianMixtureConfig, labels: np.ndarray, post: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Transform standard normals into class-conditional draws in stream order."""
    n = len(labels)
    z = rng.standard_normal((n, cfg.dim))
    x = np.empty_like(z)
    for m in range(1, cfg.n_classes + 1):
        for is_post in (False, True):
            mask = (labels == m) & (post == is_post)
            if not mask.any():
                continue
            mean = (cfg.post_means if is_post else cfg.means)[m - 1]
            x[mask] = mean + z[mask] @ cfg._cholesky[is_post][m - 1].T
    return x


def generate_stream(cfg: GaussianMixtureConfig, length: int, seed: int) -> LabeledStream:
    """Draw a labeled stream: pre-change for t <= tau, post-change after."""
    if length < 1:
        raise ConfigError("stream length must be >= 1")
    if cfg.tau > length:
        raise ConfigError(f"tau={cfg.tau} exceeds stream length {length}")
    rng = rng_from(seed)
    labels = rng.choice(cfg.n_classes, size=length, p=cfg.priors) + 1
    post = np.arange(1, length + 1) > cfg.tau
    x = _mixture_draw(cfg, labels, post, rng)
    return LabeledStream(x=x, y=labels, labeled=np.ones(length, dtype=bool))


def sample_training(cfg: GaussianMixtureConfig, per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``per_class`` pre-change draws from every class-conditional."""
    rng = rng_from(seed)
    blocks, labels = [], []
    for m in range(1, cfg.n_classes + 1):
        lab = np.full(per_class, m)
        blocks.append(_mixture_draw(cfg, lab, np.zeros(per_class, bool), rng))
        labels.append(lab)
    return np.vstack(blocks), np.concatenate(labels)


def skl_gaussian(mean0, cov0, mean1, cov1) -> float:
    """Symmetrized Kullback-Leibler divergence between two Gaussians.

    Computed as the average of the two closed-form directed divergences.
    For identity covariances this is half the squared mean distance.
    """
    mean0 = np.asarray(mean0, dtype=float).ravel()
    mean1 = np.asarray(mean1, dtype=float).ravel()
    cov0 = np.asarray(cov0, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)

    def directed(mp, cp, mq, cq):
        d = mp.size
        try:
            cq_inv = np.linalg.inv(cq)
            _, logdet_p = np.linalg.slogdet(cp)
            _, logdet_q = np.linalg.slogdet(cq)
        except np.linalg.LinAlgError as exc:
            raise InputError("covariances must be invertible") from exc
        delta = mq - mp
        return 0.5 * (
            np.trace(cq_inv @ cp) + delta @ cq_inv @ delta - d + logdet_q - logdet_p
        )

    for c in (cov0, cov1):
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise InputError("covariances must be positive definite") from exc
    return float(0.5 * (directed(mean0, cov0, mean1, cov1)
                        + directed(mean1, cov1, mean0, cov0)))


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_label(token: str, lenient: bool, row_number: int) -> Optional[int]:
    token = token.strip()
    if token == "":
        return None
    try:
        return int(token)
    except ValueError:
        if lenient:
            return None
        raise FormatError(f"row {row_number}: unknown label token {token!r}") from None


def iter_csv_stream(path, lenient: bool = False):
    """Yield (features, label-or-None) per CSV row in constant memory.

    Every column but the last is a feature and the last is the label; an
    empty label marks an unlabeled sample, and with ``lenient`` so does
    any non-integer label. A non-numeric first row is treated as a header
    and skipped. A row whose width differs from the first data row's, a
    non-numeric or non-finite feature, or an unknown label raises
    FormatError with the 1-based row number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        width = None  # columns of the first data row; 0 after a header
        for row_number, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError as exc:
                if width is None:
                    width = 0
                    continue
                raise FormatError(f"row {row_number}: {exc}") from exc
            if not width:
                if len(row) < 2:
                    raise FormatError(f"row {row_number}: need features and a label")
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"row {row_number}: expected {width} columns, got {len(row)}"
                )
            if not all(map(math.isfinite, values)):
                raise FormatError(f"row {row_number}: non-finite feature")
            yield np.array(values), _parse_label(row[-1], lenient, row_number)


def read_csv_stream(path, lenient: bool = False) -> LabeledStream:
    """Materialize a CSV stream (convenience wrapper over the iterator)."""
    xs, ys, labeled = [], [], []
    for features, label in iter_csv_stream(path, lenient):
        xs.append(features)
        ys.append(0 if label is None else label)
        labeled.append(label is not None)
    if not xs:
        raise FormatError(f"{path}: no data rows")
    return LabeledStream(x=np.array(xs), y=np.array(ys), labeled=np.array(labeled))
