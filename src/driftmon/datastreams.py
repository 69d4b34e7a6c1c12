"""Labeled datastream generation and ingestion.

Synthetic streams are Gaussian mixtures with one component per class and
an optional change point tau after which some class-conditionals switch
to their post-change variants. A ``StreamDraw`` draws a stream's labels
at once and its features in row order as they are taken, so a prefix
costs only its own rows and equals the whole draw's first rows. Real
streams are read from CSV by a row iterator that parses a block of lines
at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cdm import class_labels
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
            if self.priors.shape != (m,) or not np.all(self.priors >= 0):
                raise ConfigError("priors must be a non-negative vector, one per class")
            if not abs(self.priors.sum() - 1.0) <= 1e-9:
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
    y: np.ndarray                 # (T,) integer labels in 1..M (ignored where unlabeled)
    labeled: np.ndarray           # (T,) bool

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = class_labels(self.y)
        self.labeled = np.asarray(self.labeled, dtype=bool)
        if not (len(self.x) == len(self.y) == len(self.labeled)):
            raise InputError("stream arrays must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[tuple[np.ndarray, Optional[int]]]:
        for i in range(len(self.x)):
            yield self.x[i], int(self.y[i]) if self.labeled[i] else None


def _mixture_draw(cfg: GaussianMixtureConfig, labels: np.ndarray, post: np.ndarray,
                  rng: np.random.Generator, whole: Optional[np.ndarray] = None) -> np.ndarray:
    """Transform standard normals into class-conditional draws in stream order.

    The rows are grouped by (class, pre/post) with one stable sort, so each
    group holds its rows in stream order and is transformed by one matrix
    product. ``whole`` counts each group's rows in the whole draw these
    rows open or continue (default: these rows). A product of one row
    runs as a matrix-vector product, which may round differently from the
    rows of a larger product, so a lone row of a larger group is
    transformed as one of two: each row is the double the whole draw gives.
    """
    z = rng.standard_normal((len(labels), cfg.dim))
    x = np.empty_like(z)
    key = 2 * (labels - 1) + post
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=2 * cfg.n_classes)
    whole = counts if whole is None else whole
    start = 0
    for group, (count, size) in enumerate(zip(counts.tolist(), whole.tolist())):
        rows, start = order[start:start + count], start + count
        if not count:
            continue
        m, is_post = divmod(group, 2)
        mean = (cfg.post_means if is_post else cfg.means)[m]
        lone = count == 1 and size > 1
        x[rows] = mean + (z[rows[[0, 0]] if lone else rows] @ cfg._cholesky[is_post][m].T)[:count]
    return x


class StreamDraw:
    """Rows 1..n of ``generate_stream(cfg, length, seed)``, drawn on demand.

    The stream takes two draws from the seed's PCG64 generator: one
    uniform per row, whose ``searchsorted`` in the prior CDF is the row's
    class (what ``Generator.choice`` does), and then ``d`` standard normals
    per row, in row order. The labels of all ``length`` rows are drawn at
    once, one 64-bit output each; the normals, which cost the most, are
    drawn and transformed only as ``take`` reaches their rows. So
    ``take(n)`` returns rows 1..n bit for bit, whatever prefixes were
    taken before.
    """

    def __init__(self, cfg: GaussianMixtureConfig, length: int, seed: int):
        if length < 1:
            raise ConfigError("stream length must be >= 1")
        if cfg.tau > length:
            raise ConfigError(f"tau={cfg.tau} exceeds stream length {length}")
        self.cfg, self.length = cfg, length
        self._rng = rng_from(seed)
        cdf = cfg.priors.cumsum()
        y = (cdf / cdf[-1]).searchsorted(self._rng.random(length), side="right") + 1
        post = np.arange(1, length + 1) > cfg.tau
        self._whole = np.bincount(2 * (y - 1) + post, minlength=2 * cfg.n_classes)
        self._y = y.astype(np.min_scalar_type(cfg.n_classes))  # all rows' labels, compactly
        self.x = np.empty((0, cfg.dim))  # the rows drawn so far

    def take(self, n: int) -> LabeledStream:
        """Rows 1..n of the stream, 1 <= n <= length."""
        if not 1 <= n <= self.length:
            raise ConfigError(f"can take 1..{self.length} rows, not {n}")
        drawn = len(self.x)
        if n > drawn:
            labels = self._y[drawn:n].astype(np.int64)
            post = np.arange(drawn + 1, n + 1) > self.cfg.tau
            self.x = np.concatenate((self.x, _mixture_draw(self.cfg, labels, post, self._rng,
                                                           self._whole)))
        return LabeledStream(x=self.x[:n], y=self._y[:n], labeled=np.ones(n, dtype=bool))


def generate_stream(cfg: GaussianMixtureConfig, length: int, seed: int) -> LabeledStream:
    """Draw a labeled stream: pre-change for t <= tau, post-change after."""
    return StreamDraw(cfg, length, seed).take(length)


def sample_training(cfg: GaussianMixtureConfig, per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``per_class`` pre-change draws from every class-conditional, class by class."""
    labels = np.repeat(np.arange(1, cfg.n_classes + 1), per_class)
    return _mixture_draw(cfg, labels, np.zeros(len(labels), dtype=bool), rng_from(seed)), labels


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


BLOCK_BYTES = 2**16  # characters of whole lines read and parsed at a time
_BLANK_LINES = ("\n", "\r\n", "\r")  # csv.reader reads each as an empty row
# FS, GS, RS and US: np.loadtxt strips them around a number, float() does not
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _decoded(text: str) -> bool:
    """Whether ``text`` decoded from UTF-8 bytes alone.

    The reader decodes with ``surrogateescape``, which turns each byte
    that is not UTF-8 into a lone surrogate, and only those can fail to
    encode again.
    """
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_rows(rows, row_number: int, width, lenient: bool):
    """Yield the data rows of csv ``rows`` by the per-row rules; return the width.

    The rows are numbered from ``row_number + 1``. ``width`` is None
    before the first row, 0 after a header, and the first data row's
    column count from then on.
    """
    for row_number, row in enumerate(rows, start=row_number + 1):
        if not row:
            continue
        if not _decoded("".join(row)):
            raise FormatError(f"row {row_number}: bytes that are not valid UTF-8")
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
    return width


def _parse_block(lines: list[str], width: int, lenient: bool):
    """(features, labels) of quote-free data lines, or None to use the per-row rules.

    The file is split at every line ending, so a carriage return ends a
    line, and a line with a comma and no quote is one csv row split at
    every comma, as ``rsplit`` and ``np.loadtxt`` split it. The unpacking
    below fails unless every line has a comma, and ``np.loadtxt`` unless
    every line has as many. ``np.loadtxt`` reads a number as ``float``
    does (both round correctly), but it refuses ``1_0`` and non-ASCII
    digits, skips an empty line, and strips FS, GS, RS and US around a
    number. A line that is only a line ending is an empty csv row, which
    the per-row rules skip, so it is dropped. The block is refused on
    another width, a line without a comma (one of spaces, say) or an empty
    feature field, a token ``np.loadtxt`` refuses, one of those four
    characters, a non-finite value, a label the strict rule refuses, bytes
    that are not UTF-8, or more characters than the csv module's field
    limit.
    """
    text = "".join(lines)
    if (len(text) > csv.field_size_limit() or any(c in text for c in _LOADTXT_ONLY_SPACE)
            or not _decoded(text)):
        return None
    lines = [line for line in lines if line not in _BLANK_LINES]
    try:
        features, tokens = zip(*(line.rsplit(",", 1) for line in lines))
        if "" in features:  # np.loadtxt would skip the line
            return None
        x = np.loadtxt(features, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if x.shape[1] != width - 1 or not np.isfinite(x).all():
        return None
    labels = {}  # a block holds few distinct label tokens: parse each once
    for token in set(tokens):
        try:
            labels[token] = _parse_label(token, lenient, 0)
        except FormatError:  # raised at its own row by the per-row rules
            return None
    return x, [labels[token] for token in tokens]


def iter_csv_stream(path, lenient: bool = False):
    """Yield (features, label-or-None) per CSV row, reading a block of lines at a time.

    Every column but the last is a feature and the last is the label; an
    empty label marks an unlabeled sample, and with ``lenient`` so does
    any non-integer label. A non-numeric first row is treated as a header
    and skipped. A row whose width differs from the first data row's, a
    non-numeric or non-finite feature, an unknown label, or bytes that are
    not UTF-8 raise FormatError with the 1-based row number.

    The file is read ``BLOCK_BYTES`` characters of whole lines at a time,
    so the reader runs up to one block ahead of the last row yielded and
    its memory is bounded by the block. The header and the first data row
    are read by the per-row rules. After them, each block is parsed at
    once by ``np.loadtxt``, with each label taken after the line's last
    comma. A block that this fast path cannot read exactly as the csv
    module and ``float`` would (see ``_parse_block``) is parsed again row
    by row, and from the first block with a quote on, the rest of the
    file goes through ``csv.reader``, as a quoted field may span lines.
    Either way every value, label, error message and row number is the
    one the per-row rules give, and an error is raised only when its row
    is reached: a consumer that stops before a bad row never sees it.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        width, row_number = None, 0
        while lines := fh.readlines(BLOCK_BYTES):
            if '"' in "".join(lines):
                yield from _parse_rows(csv.reader(itertools.chain(lines, fh)), row_number,
                                       width, lenient)
                return
            head = 0
            while not width and head < len(lines):  # a header and the first data row
                width = yield from _parse_rows(csv.reader(lines[head:head + 1]),
                                               row_number + head, width, lenient)
                head += 1
            lines, row_number = lines[head:], row_number + head
            block = _parse_block(lines, width, lenient) if lines else None
            if block is None:
                width = yield from _parse_rows(csv.reader(lines), row_number, width, lenient)
            else:
                yield from zip(*block)
            row_number += len(lines)


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
