"""Monte Carlo calibration of detection thresholds.

Because the EWMA bin statistic depends only on the pattern of bin hits,
not on which labels the bins carry (``qt_ewma.ewma_step`` carries S, so
this holds bit for bit), thresholds can be calibrated on cheap 1-D
uniform surrogates: each replicate builds a fresh histogram on uniform
training data, numbers its intervals from the left, and streams fresh
uniforms through the recursion. The histograms are built a chunk at a
time from the training uniforms replayed in blocks, reading only the two
order statistics around each edge, so their memory is bounded by the
block and chunk x K, not by chunk x N. A step costs O(survivors): each draw
falls in one of K equal buckets of [0, 1), a per-replicate table counts
the edges in lower buckets, and the draw is compared only with the edges
in its own; ``qt_ewma.lockstep``, the loop calibration, replay and the
batch engine share, touches one weight per survivor. The peeling
quantile scheme then sets (h_t, gamma_t) so that the conditional
probability of firing under the randomized rule (S_t > h_t, or S_t ==
h_t with probability gamma_t) is a constant alpha at every step,
including the first steps where the statistic takes only a handful of
values. The ECDD limit is solved exactly, with no search, from the
running-maximum records of charts stepped by ``ecdd.ecdd_blocks``, the
loop the batch engine iterates too.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np

from .ecdd import DEFAULT_PRIOR_WEIGHT, check_chart, ecdd_blocks
from .errors import CalibrationError, ConfigError
from .qt_ewma import lockstep
from .quanttree import _bin_allocation
from .seeding import check_count, rng_from
from .thresholds import ThresholdTable, check_arl0

DEFAULT_REPLICATES = 100_000
SURVIVOR_FLOOR = 1000  # fewest replicates a quantile step may rest on
TREE_CHUNK = 20_000  # histograms built per vectorized batch
TREE_BLOCK = 1 << 20  # training uniforms sorted at a time when building them
ECDD_MAX_CHART_STEPS = 10**9  # replicates x horizon an ECDD limit may step: 5000 x 20 x 1e4


def _uniform_tree_batch(n_train: int, n_bins: int, n_rep: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Vectorized 1-D histogram construction on uniform training data.

    Returns the K-1 interval boundaries of each tree, sorted left to
    right; the i-th interval from the left serves as bin i. Equivalent in
    distribution to building each tree with the generic constructor on
    1-D data, up to the bin labels, which the statistic never sees.

    The generator yields each tree's N training uniforms, then the K-1
    split directions. The directions alone fix every interval's training
    count, so edge i lies midway between the C_i-th and (C_i+1)-th order
    statistics, C_i the count left of it. The training uniforms are
    skipped, the directions drawn, and the training uniforms replayed
    ``TREE_BLOCK`` at a time to read those two order statistics per edge:
    memory O(block + n_rep K), and the generator ends where drawing the
    whole (n_rep, N) matrix first would leave it. The skip assumes the
    PCG64 that ``seeding.rng_from`` gives, whose ``advance`` counts one
    64-bit output per double that ``Generator.random`` draws.
    """
    replay = copy.deepcopy(rng)
    rng.bit_generator.advance(n_rep * n_train)
    rows = np.arange(n_rep)
    sizes = np.empty((n_rep, n_bins), dtype=np.int64)  # training count per interval
    li = np.zeros(n_rep, dtype=np.int64)          # next interval from the left
    ri = np.full(n_rep, n_bins - 1, dtype=np.int64)  # next interval from the right
    allocation = _bin_allocation(n_train, n_bins)
    for count in allocation:
        lower = rng.random(n_rep) < 0.5
        sizes[rows, np.where(lower, li, ri)] = count
        li += lower
        ri -= ~lower
    sizes[rows, li] = n_train - sum(allocation)
    below = np.cumsum(sizes[:, :-1], axis=1) - 1  # lower order statistic of each edge

    edges = np.empty((n_rep, n_bins - 1))
    block = np.empty((min(n_rep, max(1, TREE_BLOCK // n_train)), n_train))
    for start in range(0, n_rep, len(block)):
        stop = min(start + len(block), n_rep)
        x = replay.random(out=block[:stop - start])
        x.sort(axis=1)
        at = below[start:stop]
        edges[start:stop] = 0.5 * (np.take_along_axis(x, at, axis=1)
                                   + np.take_along_axis(x, at + 1, axis=1))
    return edges


def _bucket(x: np.ndarray, k: int) -> np.ndarray:
    """floor(fl(x K)), monotone in x, for x in [0, 1) one of 0..K-1.

    No clamp is needed: fl(x K) <= fl((1 - 2^-53) K) < K, since (1 - 2^-53) K
    lies more than half an ulp below K (exactly K - ulp when K is 2^m).
    """
    return (x * k).astype(np.intp)


def _bucket_starts(edges: np.ndarray, k: int) -> np.ndarray:
    """``starts[r, g]``: the number of row r's edges e with ``_bucket(e, k) < g``.

    ``edges``: (rows, K - 1), each row sorted. One ``bincount`` and one
    ``cumsum``; the result takes the smallest unsigned dtype that holds K - 1.
    """
    n = len(edges)
    cell = _bucket(edges, k)
    # in place: a second (n, K - 1) temporary per chunk stayed resident in the
    # heap through the peel (peak RSS 103 against 94 MB at 100k x 32)
    cell += np.arange(0, n * k, k)[:, None]
    counts = np.bincount(cell.reshape(-1), minlength=n * k).reshape(n, k)
    starts = np.zeros((n, k), dtype=np.min_scalar_type(k - 1))
    np.cumsum(counts[:, :-1], axis=1, out=starts[:, 1:])
    return starts


def _interval_index(edges: np.ndarray, starts: np.ndarray, rows: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """``rows * K + (u[:, None] > edges[rows, :K - 1]).sum(axis=1)``, by bucket.

    ``edges``: (replicates, K), each row's K - 1 sorted edges then a
    sentinel above every ``u``; ``starts`` from ``_bucket_starts``. Edges in
    a lower bucket than u lie below it and edges in a higher one above it,
    so the count starts at ``starts[row, bucket(u)]`` and steps right while
    u exceeds the edge there: the same comparisons ``u > edge``, so the
    result is exact, draws on an edge and repeated edges included. Returns
    flat indices into (replicates, K), as ``qt_ewma.lockstep`` takes them.
    """
    k = edges.shape[1]
    flat = edges.reshape(-1)
    pos = rows * k
    pos += starts.reshape(-1).take(pos + _bucket(u, k))
    moved = np.flatnonzero(u > flat.take(pos))
    while moved.size:  # only the draws that passed an edge step on
        step = pos.take(moved) + 1
        pos[moved] = step
        moved = moved[u.take(moved) > flat.take(step)]
    return pos


def _peel(train_size: int, n_bins: int, replicates: int, lam: float, horizon: int | None,
          rng: np.random.Generator, rule) -> tuple[np.ndarray, np.ndarray]:
    """Build the replicates' histograms, ``TREE_CHUNK`` at a time, then peel.

    ``edges`` (replicates, K) holds each replicate's K - 1 sorted edges and a
    sentinel, ``starts`` its bucket table (``_bucket_starts``). Each step of
    ``qt_ewma.lockstep`` streams fresh uniforms through the survivors,
    ``_interval_index`` gives it the flat index of each hit weight,
    ``rule(t, stat)`` gives (h_t, gamma_t), and those that fire are
    removed; tie uniforms follow the step's sample draws. Peeling
    ends after ``horizon`` steps, or at the first step whose rule returns
    None (the only end when ``horizon`` is None). Returns (exceedances,
    at_risk) per completed step.
    """
    edges = np.empty((replicates, n_bins))
    edges[:, -1] = 2.0  # a sentinel above every uniform
    starts = np.empty((replicates, n_bins), dtype=np.min_scalar_type(n_bins - 1))
    for start in range(0, replicates, TREE_CHUNK):
        stop = min(start + TREE_CHUNK, replicates)
        edges[start:stop, :-1] = _uniform_tree_batch(train_size, n_bins, stop - start, rng)
        starts[start:stop] = _bucket_starts(edges[start:stop, :-1], n_bins)
    steps = itertools.count(1) if horizon is None else range(1, horizon + 1)
    exceed, at_risk = [], []
    for _, rows, fire in lockstep(
            replicates, n_bins, lam, steps,
            lambda t, rows: _interval_index(edges, starts, rows, rng.random(rows.size)),
            rule, lambda t, tied: rng.random(tied.size)):
        at_risk.append(rows.size)
        exceed.append(int(fire.sum()))
    return np.array(exceed, dtype=np.int64), np.array(at_risk, dtype=np.int64)


def calibrate_thresholds(train_size: int, n_bins: int, lam: float, arl0_target: float,
                         t_max: int | None = None,
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

    Every step rests on at least max(``SURVIVOR_FLOOR``, arl0_target)
    replicates, so that alpha * n_t >= 1. Without ``t_max`` the table
    holds every step that does, about ln(replicates / that floor) *
    arl0_target steps. Past its end a table holds its last entries
    while the hazard keeps falling below alpha (the survivors are the
    slow-firing replicates), so a shorter table overshoots the target
    ARL0. ``t_max`` caps the length: the capped table equals the first
    ``t_max`` steps of the uncapped one. Either way the table must reach
    5 / lam steps, the EWMA memory.
    """
    replicates = check_count(replicates, "replicates", 10_000)
    if not 0.0 < lam < 1.0:
        raise ConfigError(f"lambda must be in (0, 1), got {lam}")
    needed = math.ceil(5.0 / lam)  # the EWMA memory
    if t_max is not None:
        needed = t_max = check_count(t_max, "t_max", needed)
    check_arl0(arl0_target)
    if replicates < arl0_target:
        raise ConfigError(f"replicates must be >= arl0_target = {arl0_target}, got "
                          f"{replicates}: fewer than one replicate a step would fire")
    n_bins = check_count(n_bins, "n_bins", 2)
    train_size = check_count(train_size, "train_size", n_bins)

    alpha = 1.0 / arl0_target
    floor = max(SURVIVOR_FLOOR, arl0_target)  # alpha * n_t >= 1 at every step
    h, gamma = [], []

    def quantile_rule(t: int, stat: np.ndarray) -> tuple[float, float] | None:
        n_alive = stat.size
        if n_alive < floor:
            if t_max is None and t > needed:
                return None  # steps 1..t-1 make the table
            raise CalibrationError(
                f"only {n_alive} surviving replicates, fewer than {floor:g}, at step {t} "
                f"of the {needed} the table needs; increase replicates"
            )
        rank = int(np.ceil((1.0 - alpha) * n_alive)) - 1
        h_t = float(np.partition(stat, rank)[rank])
        n_above = int((stat > h_t).sum())
        n_tied = int((stat == h_t).sum())
        gamma_t = min(max((alpha * n_alive - n_above) / n_tied, 0.0), 1.0)
        h.append(h_t)
        gamma.append(gamma_t)
        return h_t, gamma_t

    _peel(train_size, n_bins, replicates, lam, t_max, rng_from(seed), quantile_rule)
    return ThresholdTable(
        n_bins=n_bins,
        lam=float(lam),
        arl0_target=float(arl0_target),
        train_size=int(train_size),
        replicates=int(replicates),
        seed=int(seed),
        thresholds=np.array(h),
        gamma=np.array(gamma),
    )


def replay_exceedance(table: ThresholdTable, replicates: int, seed: int,
                      horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Held-out replay of a calibrated table on fresh stationary replicates.

    Returns (exceedances, at_risk) per step t = 1..horizon: how many of
    the still-surviving replicates fired, and how many were at risk. A
    replicate fires when S_t > h_t, or when S_t == h_t and a uniform drawn
    from this replay's own generator falls below gamma_t.
    exceedances/at_risk estimates the conditional exceedance probability,
    which calibration targets at alpha. ``horizon`` defaults to the
    table's length; one that is not an integer >= 1 raises ConfigError.
    """
    replicates = check_count(replicates, "replicates")
    horizon = table.t_max if horizon is None else check_count(horizon, "horizon")
    return _peel(table.train_size, table.n_bins, replicates, table.lam, horizon,
                 rng_from(seed), lambda t, stat: table.at(t))


def _ecdd_records(blocks):
    """Each chart's records of its ratio (u - p) / sigma.

    A record is a (value, step) at which the ratio beats the chart's running
    maximum and 0. ``blocks`` yields the (t, u, p, sigma) blocks of
    ``ecdd.ecdd_blocks``. Returns (values, steps, charts) in step order.
    """
    run_max = 0.0
    found = []
    for t, u, p, sigma in blocks:
        ratio = np.full(u.shape, -np.inf)  # sigma = 0: the chart cannot fire
        np.divide(u - p, sigma, out=ratio, where=sigma > 0.0)
        best = np.empty((len(ratio) + 1, ratio.shape[1]))  # running maxima
        best[0] = run_max
        for j, row in enumerate(ratio):  # faster than maximum.accumulate on axis 0
            np.maximum(best[j], row, out=best[j + 1])
        step, chart = divmod(np.flatnonzero(ratio > best[:-1]), ratio.shape[1])
        found.append((ratio[step, chart], t + 1 + step, chart))
        run_max = best[-1]
    return tuple(np.concatenate(column) for column in zip(*found))


def _mean_detection_curve(values, steps, charts, n_charts: int, horizon: int):
    """Mean detection time D(L) = ``means[k]`` for ``levels[k] <= L < levels[k + 1]``.

    Under L a chart fires at its first record above L, else counts at the
    horizon: the horizon less the gaps (next record step, or the horizon,
    minus own step) of its records above L.
    """
    order = np.argsort(charts, kind="stable")  # by chart, each in step order
    c, s, v = charts[order], steps[order], values[order]
    following = np.full(s.size, horizon)
    following[:-1] = np.where(c[1:] == c[:-1], s[1:], horizon)
    by_value = np.argsort(v)
    v, gap = v[by_value], (following - s)[by_value]
    last_of_value = np.ones(v.size, dtype=bool)  # the discrete chart ties across charts
    last_of_value[:-1] = v[1:] != v[:-1]
    above = np.concatenate(([gap.sum()], gap.sum() - np.cumsum(gap)[last_of_value]))
    return np.concatenate(([0.0], v[last_of_value])), (n_charts * horizon - above) / n_charts


def calibrate_ecdd_limit(p0: float, r: float, arl0_target: float,
                         replicates: int = 5000, seed: int = 0,
                         prior_weight: float = DEFAULT_PRIOR_WEIGHT,
                         horizon: int | None = None) -> float:
    """Smallest EWMA error-chart control limit L >= 0 with ARL0 >= the target.

    Runs Bernoulli(p0) error streams through the chart and solves exactly
    on the step function D(L), the mean detection time with runs that never
    fire counted at the horizon. L lies midway to the next record value, so
    rounding in ``u > p + L sigma`` moves no detection; L = 0 (the chart
    fires at the first error) when that already meets the target. More
    than ``ECDD_MAX_CHART_STEPS`` chart steps (replicates x horizon) are
    refused with ConfigError before any draw; under the default horizon of
    20 x the target, the error names the target, not the horizon, and the
    largest target that fits.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError(f"p0 must be in (0, 1), got {p0}")
    check_chart(p0, r, 0.0, prior_weight)
    check_arl0(arl0_target)
    replicates = check_count(replicates, "replicates")
    default = horizon is None  # 20 x the target
    horizon = check_count(int(20 * arl0_target) if default else horizon, "horizon")
    if replicates * horizon > ECDD_MAX_CHART_STEPS:
        bound = f"the {ECDD_MAX_CHART_STEPS:.0e} chart steps an ECDD limit may take"
        if default:  # name the target: 20 x it may run to hundreds of digits
            raise ConfigError(
                f"target ARL0 {arl0_target:g} at {replicates} replicates exceeds {bound}; "
                f"the largest target that fits is "
                f"{ECDD_MAX_CHART_STEPS // (20 * replicates)}; lower the target or the replicates")
        raise ConfigError(f"{replicates} replicates x horizon {horizon} exceed {bound}; "
                          f"lower the replicates or the horizon")

    rng = rng_from(seed)
    blocks = ecdd_blocks(replicates, horizon,
                         lambda t, steps: rng.random((steps, replicates)) < p0,
                         p0, prior_weight, r)
    levels, means = _mean_detection_curve(*_ecdd_records(blocks), replicates, horizon)
    k = int(np.searchsorted(means, arl0_target))
    if k == means.size:
        raise CalibrationError(
            f"mean detection time reaches only {means[-1]:.1f} < {arl0_target} "
            f"within horizon {horizon}; lengthen the horizon"
        )
    if k == 0:
        return 0.0
    # past the largest record every chart runs to the horizon
    upper = levels[k + 1] if k + 1 < levels.size else levels[k] + 2.0
    return float(0.5 * (levels[k] + upper))
