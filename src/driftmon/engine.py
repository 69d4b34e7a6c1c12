"""Vectorized Monte Carlo engine.

Replicates are prepared one at a time from their own derived seeds (so
results match a strictly sequential run), then the time recursions are
stepped in lockstep across all replicates with numpy. Rows that detect
or run out of samples are dropped from the active set as the loop
advances, on the shared kernels ``qt_ewma.ewma_step``, ``qt_ewma.fires``
and ``ecdd.ecdd_step``.
"""

from __future__ import annotations

import numpy as np

from .ecdd import ecdd_step
from .errors import ConfigError
from .qt_ewma import ewma_step, fires
from .seeding import tie_uniform
from .thresholds import ThresholdTable


def batch_first_exceed(bins: np.ndarray, lengths: np.ndarray, table: ThresholdTable,
                       seeds) -> np.ndarray:
    """First step at which the EWMA bin statistic crosses its threshold.

    ``bins``: (n_rows, t_pad) integer bin indices, padded arbitrarily past
    each row's length. ``table`` supplies K, lambda, h_t and gamma_t.
    ``seeds``: per-row histogram seeds; a row whose statistic ties h_t
    fires when ``tie_uniform(seed, t) < gamma_t``, exactly as the online
    detector does. Returns per-row 1-based detection steps, 0 where no
    detection occurs. Uniform target probabilities are assumed (matching
    calibrated tables).
    """
    n_rows, t_pad = bins.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    seeds = [int(s) for s in seeds]
    if len(seeds) != n_rows:
        raise ConfigError(f"got {len(seeds)} seeds for {n_rows} rows")
    thresholds, gamma = table.head(t_pad), table.gamma_head(t_pad)
    z = np.full((n_rows, table.n_bins), 1.0 / table.n_bins)
    out = np.zeros(n_rows, dtype=np.int64)
    active = np.arange(n_rows)
    for t in range(1, t_pad + 1):
        has_sample = lengths[active] >= t
        if not has_sample.all():
            active = active[has_sample]
            z = z[has_sample]
        if active.size == 0:
            break
        stat = ewma_step(z, (np.arange(active.size), bins[active, t - 1]), table.lam)
        det = fires(stat, thresholds[t - 1], gamma[t - 1],
                    lambda tied: np.array([tie_uniform(seeds[active[i]], t) for i in tied]))
        if det.any():
            out[active[det]] = t
            keep = ~det
            active = active[keep]
            z = z[keep]
    return out


def ecdd_first_exceed(errors: np.ndarray, p0: np.ndarray, prior_weight: float,
                      r: float, limit: float) -> np.ndarray:
    """First step where the EWMA error chart crosses its control limit.

    Returns per-row 1-based detection steps, 0 where no detection occurs.
    """
    n_rows, horizon = errors.shape
    p0 = np.array(np.broadcast_to(np.asarray(p0, dtype=float), (n_rows,)))
    u = p0.copy()
    err_sum = np.zeros(n_rows)
    out = np.zeros(n_rows, dtype=np.int64)
    active = np.arange(n_rows)
    for t in range(1, horizon + 1):
        if active.size == 0:
            break
        u, err_sum, p, sigma = ecdd_step(u, err_sum, errors[active, t - 1], t, p0,
                                         prior_weight, r)
        det = u > p + limit * sigma
        if det.any():
            out[active[det]] = t
            keep = ~det
            active, u, err_sum, p0 = active[keep], u[keep], err_sum[keep], p0[keep]
    return out
