"""Shared fixtures, test data helpers, replay statistics and the
acceptance-line reporter.

Acceptance tests register one line per criterion; the hook below prints
them in the terminal summary so the verdicts are visible regardless of
pytest's output capturing.
"""

import csv
import math
from statistics import NormalDist

import numpy as np
import pytest

from driftmon import (CdmMonitor, Detection, EcddMonitor, FormatError, GaussianMixtureConfig,
                      InputError, LabeledStream, build_quanttree, calibrate_thresholds,
                      ecdd_update, locate_bins)
from driftmon.calibration import _uniform_tree_batch
from driftmon.quanttree import LOWER, UPPER, Split
from driftmon.qt_ewma import ewma_step
from driftmon.seeding import derive_seed, rng_from

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def two_gaussian_config(delta: float = 2.0, class2_shift=(0.0, 0.0), tau: int = 0) -> GaussianMixtureConfig:
    """Default synthetic setting: two identity-covariance Gaussians in 2-D.

    Class 1 sits at the origin, class 2 at [delta, 0]; the post-change
    distribution translates class 2 by ``class2_shift``.
    """
    means = np.array([[0.0, 0.0], [float(delta), 0.0]])
    post = means.copy()
    post[1] += np.asarray(class2_shift, dtype=float)
    return GaussianMixtureConfig(means=means, post_means=post, tau=tau)


def write_csv_stream(stream, path) -> None:
    """Write features plus a trailing label column (blank if unlabeled)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(len(stream)):
            row = [repr(float(v)) for v in stream.x[i]]
            row.append(str(int(stream.y[i])) if stream.labeled[i] else "")
            writer.writerow(row)


def cli_streams() -> dict:
    """The labeled streams the CLI tests write as CSV.

    ``train`` and ``stream`` are two classes in 2-D with a blatant class-2
    drift after row 20 and one unlabeled row; ``separable`` is a training
    set that kNN classifies without error.
    """
    rng = rng_from(90)
    train_x = np.vstack([rng.standard_normal((40, 2)),
                         rng.standard_normal((40, 2)) + [4.0, 0.0]])
    train = LabeledStream(x=train_x, y=np.repeat([1, 2], 40), labeled=np.ones(80, bool))

    rng = rng_from(1002)
    n_pre, n_post = 20, 240
    labels = rng.integers(1, 3, size=n_pre + n_post)
    x = rng.standard_normal((n_pre + n_post, 2))
    x[labels == 2] += [4.0, 0.0]
    drifted = (np.arange(n_pre + n_post) >= n_pre) & (labels == 2)
    x[drifted] += [0.0, 30.0]  # blatant class-2 drift after the change point
    labeled = np.ones(n_pre + n_post, bool)
    labeled[5] = False
    stream = LabeledStream(x=x, y=labels, labeled=labeled)

    rng = rng_from(91)
    separable_x = np.vstack([rng.standard_normal((40, 2)),
                             rng.standard_normal((40, 2)) + [20.0, 0.0]])
    separable = LabeledStream(x=separable_x, y=np.repeat([1, 2], 40),
                              labeled=np.ones(80, bool))
    return {"train": train, "stream": stream, "separable": separable}


def _reference_label(token: str, lenient: bool, row_number: int):
    token = token.strip()
    if token == "":
        return None
    try:
        return int(token)
    except ValueError:
        if lenient:
            return None
        raise FormatError(f"row {row_number}: unknown label token {token!r}") from None


def reference_iter_csv_stream(path, lenient: bool = False):
    """The rows (or error) ``iter_csv_stream`` must give: the per-row reader.

    One ``csv.reader`` row at a time, one ``float`` per feature token and
    one ``np.array`` per row, as the reader was before it parsed blocks.
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
            yield np.array(values), _reference_label(row[-1], lenient, row_number)


def reference_ecdd_step(u, err_sum, error, t: int, p0, prior_weight: float, r: float):
    """The chart step before the block recursion: ``ecdd.ecdd_step``, verbatim.

    Folds the t-th 0/1 error into one chart or an array of charts.

    Returns (u, err_sum, p, sigma): the error EWMA, the error count, the
    running rate with p0 worth ``prior_weight`` errors, and u's std dev.
    """
    u = (1.0 - r) * u + r * error
    err_sum = err_sum + error
    p = (prior_weight * p0 + err_sum) / (prior_weight + t)
    sigma = np.sqrt(p * (1.0 - p) * (r / (2.0 - r)) * (1.0 - (1.0 - r) ** (2 * t)))
    return u, err_sum, p, sigma


def reference_ecdd_fires(u, p, sigma, limit: float):
    return (sigma > 0.0) & (u > p + limit * sigma)


def reference_ecdd_records(error_chunks, p0: float, prior_weight: float, r: float):
    """The records ``calibration._ecdd_records`` must give: one chart step per call.

    Each chart's records of its ratio (u - p) / sigma, as they were
    computed before the charts stepped a block at a time.
    """
    t, u, err_sum, run_max = 0, p0, 0.0, 0.0
    found = []
    for errors in error_chunks:
        ratio = np.empty((len(errors) + 1, errors.shape[1]))
        ratio[0] = run_max
        for j, error in enumerate(errors, start=1):
            u, err_sum, p, sigma = reference_ecdd_step(u, err_sum, error, t + j, p0,
                                                        prior_weight, r)
            ratio[j] = -np.inf  # sigma = 0: the chart cannot fire
            np.divide(u - p, sigma, out=ratio[j], where=sigma > 0.0)
        best = np.maximum.accumulate(ratio, axis=0)
        step, chart = np.nonzero(ratio[1:] > best[:-1])
        found.append((ratio[step + 1, chart], t + 1 + step, chart))
        t, run_max = t + len(errors), best[-1]
    return tuple(np.concatenate(column) for column in zip(*found))


def reference_ecdd_first_exceed(errors: np.ndarray, p0: np.ndarray, prior_weight: float,
                                r: float, limit: float) -> np.ndarray:
    """The t* ``engine.ecdd_first_exceed`` must give: one chart step per call."""
    n_rows, horizon = errors.shape
    p0 = np.array(np.broadcast_to(np.asarray(p0, dtype=float), (n_rows,)))
    u = p0.copy()
    err_sum = np.zeros(n_rows)
    out = np.zeros(n_rows, dtype=np.int64)
    active = np.arange(n_rows)
    for t in range(1, horizon + 1):
        if active.size == 0:
            break
        u, err_sum, p, sigma = reference_ecdd_step(u, err_sum, errors[active, t - 1], t, p0,
                                                    prior_weight, r)
        det = reference_ecdd_fires(u, p, sigma, limit)
        if det.any():
            out[active[det]] = t
            keep = ~det
            active, u, err_sum, p0 = active[keep], u[keep], err_sum[keep], p0[keep]
    return out


def bin_counts(hist, data) -> np.ndarray:
    """Per-bin counts of the rows of ``data``."""
    return np.bincount(locate_bins(hist, data), minlength=hist.n_bins)


def tree_batch_training_counts(n_train, n_bins, seed) -> np.ndarray:
    """Sorted training counts per bin of one tree from the vectorized builder.

    Regenerates the sorted training row the builder consumed from
    ``rng_from(seed)`` and counts it into the tree's intervals. The
    builder carries no bin labels, so only the sorted counts compare with
    another builder's.
    """
    x = np.sort(rng_from(seed).random((1, n_train)), axis=1)[0]
    edges = _uniform_tree_batch(n_train, n_bins, 1, rng_from(seed))
    idx = (x[:, None] > edges[0]).sum(axis=1)
    return np.sort(np.bincount(idx, minlength=n_bins))


def _reference_allocation(n_remaining, n_bins, k) -> int:
    pi = np.full(n_bins, 1.0 / n_bins)
    target = int(round(n_remaining * pi[k] / pi[k:].sum()))
    return max(1, min(target, n_remaining - (n_bins - 1 - k)))


def reference_quanttree_splits(training, n_bins, seed) -> tuple:
    """The splits ``build_quanttree`` must give, from the plain construction.

    Every split sorts the remaining rows afresh by value, ties by
    original row, and recomputes its allocation from the rows left.
    """
    x = np.asarray(training, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    rng = rng_from(seed)
    remaining = np.arange(x.shape[0])
    splits = []
    for k in range(n_bins - 1):
        dim = int(rng.integers(x.shape[1]))
        direction = LOWER if rng.random() < 0.5 else UPPER
        count = _reference_allocation(remaining.size, n_bins, k)
        vals = x[remaining, dim]
        order = np.lexsort((remaining, vals))
        if direction == LOWER:
            v_in, v_out = vals[order[count - 1]], vals[order[count]]
            keep = order[count:]
        else:
            v_in, v_out = vals[order[-count]], vals[order[-count - 1]]
            keep = order[:-count]
        thr = v_in if v_in == v_out else 0.5 * (v_in + v_out)
        splits.append(Split(dim, float(thr), direction))
        remaining = remaining[keep]
    return tuple(splits)


def reference_uniform_tree_batch(n_train, n_bins, n_rep, rng) -> np.ndarray:
    """The edges ``_uniform_tree_batch`` must give, from the whole sorted matrix.

    Draws all (n_rep, n_train) training uniforms, sorts every row, then
    per split draws the directions and reads both sides' order
    statistics.
    """
    x = np.sort(rng.random((n_rep, n_train)), axis=1)
    rows = np.arange(n_rep)
    lo = np.zeros(n_rep, dtype=np.int64)
    hi = np.full(n_rep, n_train, dtype=np.int64)
    li = np.zeros(n_rep, dtype=np.int64)
    ri = np.full(n_rep, n_bins - 1, dtype=np.int64)
    edges = np.empty((n_rep, n_bins - 1))
    n_rem = n_train
    for k in range(n_bins - 1):
        count = _reference_allocation(n_rem, n_bins, k)
        lower = rng.random(n_rep) < 0.5
        thr_low = 0.5 * (x[rows, lo + count - 1] + x[rows, lo + count])
        thr_up = 0.5 * (x[rows, hi - count - 1] + x[rows, hi - count])
        edges[rows, np.where(lower, li, ri - 1)] = np.where(lower, thr_low, thr_up)
        lo += np.where(lower, count, 0)
        hi -= np.where(lower, 0, count)
        li += lower
        ri -= ~lower
        n_rem -= count
    return edges


def reference_knn_predict(train_x, train_y, k, x) -> np.ndarray:
    """The predictions ``KnnClassifier.predict`` must give, from a full sort.

    Every distance ``((x - t) ** 2).sum()`` is computed, and a stable
    sort of each row's distances picks the k nearest, ties by training
    index; the vote goes to the most frequent label, ties to the smallest.
    """
    train_x = np.asarray(train_x, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    classes = np.unique(train_y)
    out = np.empty(len(x), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(1, train_x.size))  # caps the (rows, n_train, d) difference
    for start in range(0, len(x), chunk):
        block = x[start:start + chunk]
        d2 = ((block[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        labels = np.asarray(train_y)[nearest]
        votes = np.stack([(labels == c).sum(axis=1) for c in classes], axis=1)
        out[start:start + len(block)] = classes[votes.argmax(axis=1)]
    return out


def reference_process(monitor, x, y):
    """One labeled row the way ``process`` handled it before chunks.

    A ``CdmMonitor`` routes the row through ``QtEwmaDetector.update``
    (``locate_bin`` on the one row); an ``EcddMonitor`` classifies the
    one row and folds its error through ``ecdd_update``. Rejected rows
    raise before any state moves.
    """
    if monitor.detection is not None:
        return monitor.detection
    if isinstance(monitor, EcddMonitor):
        error = int(monitor.classifier.predict(x)[0] != y)
        monitor.global_t += 1
        if ecdd_update(monitor.state, error)[1]:
            monitor.detection = Detection(t_star=monitor.global_t, m_star=None)
        return monitor.detection
    assert isinstance(monitor, CdmMonitor)
    detector = monitor.detectors.get(int(y))
    if detector is None:
        if not monitor.lenient_labels:
            raise InputError(f"unseen class label {y!r}")
        monitor.global_t += 1
        monitor.skipped_unknown += 1
        return None
    _, detected = detector.update(x)
    monitor.global_t += 1
    if detected:
        monitor.detection = Detection(t_star=monitor.global_t, m_star=int(y))
    return monitor.detection


def stationary_trajectory(train_size, n_bins, lam, horizon, seed) -> np.ndarray:
    """Statistic S_1..S_horizon of one detector on a stationary stream.

    Builds a histogram on 1-D uniform training data and streams uniform
    samples through the shared recursion with no thresholds applied.
    """
    training = rng_from(derive_seed(seed, 0)).random((train_size, 1))
    hist = build_quanttree(training, n_bins, derive_seed(seed, 1))
    stream = rng_from(derive_seed(seed, 2)).random((horizon, 1))
    w, scale, stat, traj = np.full(n_bins, 1.0 / n_bins), 1.0, 0.0, []
    for b in locate_bins(hist, stream):
        stat, scale = ewma_step(w, scale, stat, b, lam)
        traj.append(stat)
    return np.array(traj)


def exceedance_z_scores(table, exceed, at_risk):
    """Per-step z of the replayed exceedance rate against alpha.

    The standard error combines the replay's binomial noise with the
    Monte Carlo error of h_t itself, estimated on the n_cal_t =
    replicates * (1 - alpha)^(t-1) calibration replicates still at risk.
    """
    alpha = 1.0 / table.arl0_target
    n_cal = table.replicates * (1 - alpha) ** np.arange(len(at_risk))
    se = np.sqrt(alpha * (1 - alpha) * (1 / at_risk + 1 / n_cal))
    return (exceed / at_risk - alpha) / se


def family_wise_bound(n_steps, level=0.01):
    """Two-sided Bonferroni z bound for ``n_steps`` simultaneous tests."""
    return NormalDist().inv_cdf(1 - level / (2 * n_steps))


@pytest.fixture(scope="session")
def small_table():
    """Quick threshold table for unit tests: K=16, N=64, target ARL0=50."""
    return calibrate_thresholds(
        train_size=64, n_bins=16, lam=0.03, arl0_target=50.0,
        t_max=170, replicates=60_000, seed=7,
    )


@pytest.fixture(scope="session")
def small_table_k8():
    """Companion table with K=8, N=40 for CLI end-to-end runs."""
    return calibrate_thresholds(
        train_size=40, n_bins=8, lam=0.03, arl0_target=50.0,
        t_max=170, replicates=60_000, seed=7,
    )
