"""Monte Carlo calibration of detection thresholds.

Because the EWMA bin statistic depends only on the sequence of bin
indices, thresholds can be calibrated on cheap 1-D uniform surrogates:
each replicate builds a fresh histogram on uniform training data and
streams fresh uniforms through the recursion. The peeling quantile
scheme then sets (h_t, gamma_t) so that the conditional probability of
firing under the randomized rule (S_t > h_t, or S_t == h_t with
probability gamma_t) is a constant alpha at every step, including the
first steps where the statistic takes only a handful of values.
Calibration and replay share the peeling loop ``_peel`` over
``qt_ewma.ewma_step`` and ``qt_ewma.fires``; the ECDD limit is
calibrated on ``ecdd.ecdd_step``.
"""

from __future__ import annotations

import numpy as np

from .ecdd import DEFAULT_PRIOR_WEIGHT, ecdd_step
from .errors import CalibrationError, ConfigError
from .qt_ewma import ewma_step, fires
from .quanttree import _bin_allocation, uniform_probs
from .seeding import rng_from
from .thresholds import ThresholdTable

DEFAULT_T_MAX = 500
DEFAULT_REPLICATES = 100_000
SURVIVOR_FLOOR = 1000  # fewest replicates a quantile step may rest on
TREE_CHUNK = 20_000  # histograms built per vectorized batch
ECDD_DRAW_BLOCK = 1 << 18  # uniforms per draw of the ECDD limit calibration


def _uniform_tree_batch(n_train: int, n_bins: int, n_rep: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 1-D histogram construction on uniform training data.

    Returns (edges, perm): ``edges`` holds the K-1 interval boundaries
    sorted left to right, ``perm`` maps the i-th interval from the left
    to its bin index. Equivalent in distribution to building each tree
    with the generic constructor on 1-D data.
    """
    pi = uniform_probs(n_bins)
    x = np.sort(rng.random((n_rep, n_train)), axis=1)
    rows = np.arange(n_rep)
    lo = np.zeros(n_rep, dtype=np.int64)
    hi = np.full(n_rep, n_train, dtype=np.int64)
    li = np.zeros(n_rep, dtype=np.int64)          # next interval slot from the left
    ri = np.full(n_rep, n_bins - 1, dtype=np.int64)  # next slot from the right
    edges = np.empty((n_rep, n_bins - 1))
    perm = np.empty((n_rep, n_bins), dtype=np.int64)
    n_rem = n_train
    for k in range(n_bins - 1):
        count = _bin_allocation(n_rem, pi, k)
        lower = rng.random(n_rep) < 0.5
        thr_low = 0.5 * (x[rows, lo + count - 1] + x[rows, lo + count])
        thr_up = 0.5 * (x[rows, hi - count - 1] + x[rows, hi - count])
        edges[rows, np.where(lower, li, ri - 1)] = np.where(lower, thr_low, thr_up)
        perm[rows, np.where(lower, li, ri)] = k
        lo += np.where(lower, count, 0)
        hi -= np.where(lower, 0, count)
        li += lower
        ri -= ~lower
        n_rem -= count
    perm[rows, li] = n_bins - 1
    return edges, perm


def _draw_bins(edges: np.ndarray, perm: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = (u[:, None] > edges).sum(axis=1)
    return perm[np.arange(len(u)), idx]


def _peel(train_size: int, n_bins: int, replicates: int, tree_chunk: int, lam: float,
          horizon: int, rng: np.random.Generator, rule) -> tuple[np.ndarray, np.ndarray]:
    """Build the replicates' histograms, ``tree_chunk`` at a time, then peel.

    Each step streams fresh uniforms through the survivors, ``rule(t,
    stat)`` gives (h_t, gamma_t), and those that fire are removed; tie
    uniforms follow the step's sample draws. Returns (exceedances,
    at_risk) per step.
    """
    trees = [_uniform_tree_batch(train_size, n_bins, min(tree_chunk, replicates - start), rng)
             for start in range(0, replicates, tree_chunk)]
    edges, perm = np.vstack([e for e, _ in trees]), np.vstack([p for _, p in trees])
    del trees
    z = np.full((replicates, n_bins), 1.0 / n_bins)
    exceed = np.zeros(horizon, dtype=np.int64)
    at_risk = np.zeros(horizon, dtype=np.int64)
    for t in range(1, horizon + 1):
        n_alive = edges.shape[0]
        at_risk[t - 1] = n_alive
        b = _draw_bins(edges, perm, rng.random(n_alive))
        stat = ewma_step(z, (np.arange(n_alive), b), lam)
        h_t, gamma_t = rule(t, stat)
        fire = fires(stat, h_t, gamma_t, lambda tied: rng.random(tied.size))
        exceed[t - 1] = int(fire.sum())
        keep = ~fire
        edges, perm, z = edges[keep], perm[keep], z[keep]
    return exceed, at_risk


def calibrate_thresholds(train_size: int, n_bins: int, lam: float, arl0_target: float,
                         t_max: int = DEFAULT_T_MAX,
                         replicates: int = DEFAULT_REPLICATES,
                         seed: int = 0) -> ThresholdTable:
    """Peeling quantile calibration of the threshold sequence h_1..h_t_max.

    At each step the empirical (1 - alpha) nearest-rank quantile of the
    statistic among the n_t surviving replicates becomes h_t. Because the
    statistic is discrete (one atom at t = 1, a few at the next steps),
    h_t may hold many tied replicates; the tie probability

        gamma_t = (alpha * n_t - #{S_t > h_t}) / #{S_t == h_t}  in [0, 1]

    makes the randomized rule fire on exactly alpha * n_t replicates in
    expectation, so the conditional exceedance probability is a constant
    alpha at every step. Replicates above h_t are removed, and each tied
    one with probability gamma_t. Beyond t_max the last entries are
    reused.
    """
    if replicates < 10_000:
        raise ConfigError(f"replicates must be >= 10000, got {replicates}")
    if not 0.0 < lam < 1.0:
        raise ConfigError(f"lambda must be in (0, 1), got {lam}")
    if t_max < 5.0 / lam:
        raise ConfigError(f"t_max must be >= 5/lambda = {5.0 / lam:.0f}, got {t_max}")
    if arl0_target < 2.0:
        raise ConfigError(f"arl0_target must be >= 2, got {arl0_target}")
    if train_size < n_bins:
        raise ConfigError(f"train_size {train_size} < n_bins {n_bins}")

    alpha = 1.0 / arl0_target
    h = np.empty(t_max)
    gamma = np.empty(t_max)

    def quantile_rule(t: int, stat: np.ndarray) -> tuple[float, float]:
        n_alive = stat.size
        if n_alive < SURVIVOR_FLOOR:
            raise CalibrationError(
                f"only {n_alive} surviving replicates at step {t}; "
                f"increase replicates or reduce t_max"
            )
        rank = int(np.ceil((1.0 - alpha) * n_alive)) - 1
        h_t = float(np.partition(stat, rank)[rank])
        n_above = int((stat > h_t).sum())
        n_tied = int((stat == h_t).sum())
        gamma_t = min(max((alpha * n_alive - n_above) / n_tied, 0.0), 1.0)
        h[t - 1], gamma[t - 1] = h_t, gamma_t
        return h_t, gamma_t

    _peel(train_size, n_bins, replicates, TREE_CHUNK, lam, t_max, rng_from(seed),
          quantile_rule)
    return ThresholdTable(
        n_bins=n_bins,
        lam=float(lam),
        arl0_target=float(arl0_target),
        train_size=int(train_size),
        t_max=int(t_max),
        replicates=int(replicates),
        seed=int(seed),
        thresholds=h,
        gamma=gamma,
    )


def replay_exceedance(table: ThresholdTable, replicates: int, seed: int,
                      horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Held-out replay of a calibrated table on fresh stationary replicates.

    Returns (exceedances, at_risk) per step t = 1..horizon: how many of
    the still-surviving replicates fired, and how many were at risk. A
    replicate fires when S_t > h_t, or when S_t == h_t and a uniform drawn
    from this replay's own generator falls below gamma_t.
    exceedances/at_risk estimates the conditional exceedance probability,
    which calibration targets at alpha.
    """
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    horizon = table.t_max if horizon is None else horizon
    h, gamma = table.head(horizon), table.gamma_head(horizon)
    return _peel(table.train_size, table.n_bins, replicates, replicates, table.lam, horizon,
                 rng_from(seed), lambda t, stat: (h[t - 1], gamma[t - 1]))


def _ecdd_run_max(errors: np.ndarray, p0: float, prior_weight: float,
                  r: float) -> np.ndarray:
    """Running max over steps of (u - p) / sigma per chart, in float32.

    ``errors`` is (horizon, charts); a chart has fired by step t under
    limit L when its entry at t exceeds L.
    """
    horizon, n_rows = errors.shape
    run_max = np.empty((horizon, n_rows), dtype=np.float32)
    u, err_sum = np.full(n_rows, p0), np.zeros(n_rows)
    prev = np.full(n_rows, -np.inf, dtype=np.float32)
    for t in range(1, horizon + 1):
        u, err_sum, p, sigma = ecdd_step(u, err_sum, errors[t - 1], t, p0, prior_weight, r)
        ratio = np.where(sigma > 0.0, (u - p) / np.where(sigma > 0.0, sigma, 1.0), -np.inf)
        prev = np.maximum(prev, ratio.astype(np.float32), out=run_max[t - 1])
    return run_max


def _detection_times(run_max: np.ndarray, limit: float) -> np.ndarray:
    """First step each running max exceeds ``limit``; the horizon if none."""
    return np.minimum((run_max <= limit).sum(axis=0) + 1, run_max.shape[0])


def calibrate_ecdd_limit(p0: float, r: float, arl0_target: float,
                         replicates: int = 5000, seed: int = 0,
                         prior_weight: float = DEFAULT_PRIOR_WEIGHT,
                         horizon: int | None = None,
                         tol: float = 0.02,
                         max_iter: int = 60) -> float:
    """Binary search for the EWMA error-chart control limit L.

    Simulates Bernoulli(p0) error streams through the chart recursion and
    returns the L whose mean detection time is within ``tol`` (relative)
    of ``arl0_target``. Runs that never fire count at the horizon.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError(f"p0 must be in (0, 1), got {p0}")
    if not 0.0 < r < 1.0:
        raise ConfigError(f"r must be in (0, 1), got {r}")
    if arl0_target < 2.0:
        raise ConfigError(f"arl0_target must be >= 2, got {arl0_target}")
    horizon = int(20 * arl0_target) if horizon is None else int(horizon)

    # uint8 errors, drawn in blocks: consecutive draws continue one stream
    rng = rng_from(seed)
    errors = np.empty((horizon, replicates), dtype=np.uint8)
    block = max(1, ECDD_DRAW_BLOCK // horizon)
    for start in range(0, replicates, block):
        rows = errors[:, start:start + block].T
        np.less(rng.random(rows.shape), p0, out=rows)
    run_max = _ecdd_run_max(errors, p0, prior_weight, r)
    del errors

    def mean_detection_time(limit: float) -> float:
        return float(_detection_times(run_max, limit).mean())

    lo, hi = 0.0, 4.0
    while mean_detection_time(hi) < arl0_target:
        hi *= 2.0
        if hi > 1e4:
            raise CalibrationError("control limit search diverged")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        mean = mean_detection_time(mid)
        if abs(mean - arl0_target) <= tol * arl0_target:
            return mid
        if mean < arl0_target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"control limit search did not converge within {max_iter} iterations"
    )
