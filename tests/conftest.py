"""Shared fixtures, test data helpers, replay statistics and the
acceptance-line reporter.

Acceptance tests register one line per criterion; the hook below prints
them in the terminal summary so the verdicts are visible regardless of
pytest's output capturing.
"""

import csv
from statistics import NormalDist

import numpy as np
import pytest

from driftmon import GaussianMixtureConfig, build_quanttree, calibrate_thresholds, locate_bins
from driftmon.calibration import _uniform_tree_batch
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
