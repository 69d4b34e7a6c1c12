"""Vectorized Monte Carlo engine.

Replicates are prepared one at a time from their own derived seeds (so
results match a strictly sequential run), then the time recursions are
stepped in lockstep across all replicates with numpy, in the loops that
calibration runs too. QT-EWMA rows step in ``qt_ewma.lockstep``, which
drops rows that detect from the active set, so a step costs O(active
rows). ECDD rows step a block of steps at a time in ``ecdd.ecdd_blocks``,
all rows to the end of the block in which the last of them fires.
"""

from __future__ import annotations

import numpy as np

from .ecdd import check_chart, ecdd_blocks, ecdd_fires
from .errors import ConfigError, InputError
from .qt_ewma import lockstep
from .seeding import tie_uniform
from .thresholds import ThresholdTable


def batch_first_exceed(bins: np.ndarray, lengths: np.ndarray, table: ThresholdTable,
                       seeds) -> np.ndarray:
    """First step at which the EWMA bin statistic crosses its threshold.

    ``bins``: (n_rows, t_pad) integer bin indices in 0..K-1, padded past
    each row's length with any of them; any other index raises
    ``InputError``. ``lengths``: one integer in 0..t_pad per row, else
    ``InputError``. ``table`` supplies K, lambda, h_t and gamma_t.
    ``seeds``: per-row histogram seeds; a row whose statistic ties h_t
    fires when ``tie_uniform(seed, t) < gamma_t``, exactly as the online
    detector does. A row steps on over its padding (rows share only the
    scale, a function of t) and a crossing there counts as none. Returns
    per-row 1-based detection steps, 0 where no detection occurs.
    """
    n_rows, t_pad = bins.shape
    seeds = [int(s) for s in seeds]
    if len(seeds) != n_rows:
        raise ConfigError(f"got {len(seeds)} seeds for {n_rows} rows")
    lengths = np.asarray(lengths)
    if lengths.shape != (n_rows,) or lengths.size and not (
            np.issubdtype(lengths.dtype, np.integer)
            and 0 <= lengths.min() and lengths.max() <= t_pad):
        raise InputError(f"lengths must hold one integer in 0..{t_pad} per row "
                         f"({n_rows} rows)")
    k = table.n_bins
    if bins.size and (bins.min() < 0 or bins.max() >= k):
        raise InputError(f"bin indices must lie in 0..{k - 1}, got {bins.min()}..{bins.max()}")
    out = np.zeros(n_rows, dtype=np.int64)
    for t, rows, fire in lockstep(
            n_rows, k, table.lam, range(1, t_pad + 1),
            lambda t, rows: rows * k + bins[rows, t - 1],
            lambda t, stat: table.at(t),
            lambda t, tied: np.array([tie_uniform(seeds[i], t) for i in tied])):
        out[rows[fire]] = t
        if fire.all():
            break  # no row left at risk
    out[out > lengths] = 0
    return out


def _binary(errors: np.ndarray) -> bool:
    """Whether every entry of ``errors`` is 0 or 1 (for integers, by two reductions)."""
    if errors.dtype == bool or not errors.size:
        return True
    if np.issubdtype(errors.dtype, np.integer):
        return bool(0 <= errors.min() and errors.max() <= 1)
    return bool(((errors == 0) | (errors == 1)).all())


def ecdd_first_exceed(errors: np.ndarray, p0, prior_weight: float, r: float,
                      limit: float) -> np.ndarray:
    """First step where the EWMA error chart crosses its control limit.

    ``errors``: (n_rows, horizon) 0/1 errors, else ``InputError``. ``p0``
    (a scalar or one per row), r, L and the prior weight are the chart's
    parameters, as ``ecdd.ecdd_init`` takes them, else ``ConfigError``.
    The rows step together through ``ecdd.ecdd_blocks`` until every row
    has fired. Returns per-row 1-based detection steps, 0 where no
    detection occurs.
    """
    errors = np.asarray(errors)
    if errors.ndim != 2:
        raise InputError(f"errors must be a (rows, steps) matrix, got shape {errors.shape}")
    n_rows, horizon = errors.shape
    p0 = check_chart(p0, r, limit, prior_weight)
    if p0.ndim and p0.shape != (n_rows,):
        raise ConfigError(f"p0 must be a scalar or one value per row ({n_rows} rows), "
                          f"got shape {p0.shape}")
    if not _binary(errors):
        raise InputError("errors must be 0 or 1")
    out = np.zeros(n_rows, dtype=np.int64)
    for t, u, p, sigma in ecdd_blocks(n_rows, horizon, lambda t, steps: errors[:, t:t + steps].T,
                                      p0, prior_weight, r):
        fired = ecdd_fires(u, p, sigma, limit)
        first = (out == 0) & fired.any(axis=0)
        out[first] = t + 1 + fired[:, first].argmax(axis=0)
        if out.all():
            break  # every row has fired
    return out
