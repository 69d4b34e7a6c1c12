import tracemalloc

import numpy as np
import pytest
from conftest import (
    bin_counts,
    exceedance_z_scores,
    family_wise_bound,
    reference_uniform_tree_batch,
    stationary_trajectory,
    tree_batch_training_counts,
)

from driftmon import (
    CalibrationError,
    ConfigError,
    ThresholdTable,
    build_quanttree,
    calibrate_ecdd_limit,
    calibrate_thresholds,
    replay_exceedance,
)
from driftmon import calibration
from driftmon.calibration import (
    ECDD_MAX_CHART_STEPS,
    SURVIVOR_FLOOR,
    _bucket,
    _bucket_starts,
    _interval_index,
    _uniform_tree_batch,
)
from driftmon.engine import ecdd_first_exceed
from driftmon.seeding import rng_from

T1_K16_LAM003 = 0.03**2 * (1 - 1 / 16) / (1 / 16)  # lam^2 (1-pi)/pi = 0.0135


def test_first_statistic_is_the_single_atom():
    for seed in range(5):
        traj = stationary_trajectory(256, 16, 0.03, horizon=3, seed=seed)
        assert traj[0] == pytest.approx(0.0135, abs=1e-12)
    assert T1_K16_LAM003 == pytest.approx(0.0135, abs=1e-12)


def test_trajectory_determinism_and_shape():
    a = stationary_trajectory(64, 8, 0.05, horizon=50, seed=123)
    b = stationary_trajectory(64, 8, 0.05, horizon=50, seed=123)
    c = stationary_trajectory(64, 8, 0.05, horizon=50, seed=124)
    assert a.shape == (50,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_statistic_mean_stabilizes_after_memory_horizon():
    # EWMA memory is about 1/lam; past 5/lam the mean statistic plateaus
    lam, horizon = 0.05, 300
    means = np.zeros(horizon)
    for seed in range(300):
        means += stationary_trajectory(64, 8, lam, horizon, seed=seed)
    means /= 300
    plateau_a = means[149:200].mean()
    plateau_b = means[249:300].mean()
    assert plateau_a > 0
    assert abs(plateau_a - plateau_b) / plateau_b < 0.1
    assert means[4] < 0.5 * plateau_b  # still warming up early on


def test_calibrate_preconditions():
    with pytest.raises(ConfigError):
        calibrate_thresholds(64, 16, 0.03, 50.0, t_max=170, replicates=5000)
    with pytest.raises(ConfigError):
        calibrate_thresholds(64, 16, 0.03, 50.0, t_max=100, replicates=10_000)
    with pytest.raises(ConfigError):
        calibrate_thresholds(64, 16, 0.03, 1.5, t_max=170, replicates=10_000)
    with pytest.raises(ConfigError):
        calibrate_thresholds(64, 16, 1.5, 50.0, t_max=170, replicates=10_000)
    with pytest.raises(ConfigError):
        calibrate_thresholds(8, 16, 0.03, 50.0, t_max=170, replicates=10_000)
    with pytest.raises(ConfigError, match="n_bins"):
        calibrate_thresholds(64, 1, 0.03, 50.0, t_max=170, replicates=10_000)


@pytest.mark.parametrize("name,value", [("replicates", 20_000.5), ("t_max", 170.5),
                                        ("train_size", 64.5), ("n_bins", 8.0),
                                        ("replicates", True)])
def test_calibrate_refuses_a_count_that_is_not_an_integer(name, value):
    counts = dict(train_size=64, n_bins=8, t_max=170, replicates=10_000)
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        calibrate_thresholds(lam=0.03, arl0_target=50.0, **{**counts, name: value})


def test_arl0_targets_that_calibration_cannot_resolve_are_refused():
    # NaN raised numpy's ValueError, inf OverflowError or no return, and a
    # target above the replicates peeled none of them; each is refused
    # before a replicate is drawn (NaN first: the others never returned)
    for arl0 in (np.nan, np.inf, 1.5):
        with pytest.raises(ConfigError, match="arl0_target must be finite and >= 2"):
            calibrate_ecdd_limit(0.1, 0.2, arl0)
        with pytest.raises(ConfigError, match="arl0_target must be finite and >= 2"):
            calibrate_thresholds(64, 8, 0.03, arl0, replicates=10_000)
    for arl0 in (10_001.0, 1e300):  # the first returns a table if not refused
        with pytest.raises(ConfigError, match="replicates must be >= arl0_target"):
            calibrate_thresholds(64, 8, 0.03, arl0, replicates=10_000)


def test_survivor_floor_raises():
    # alpha = 0.2 burns 10k replicates below the floor long before t_max,
    # and without a cap long before the 5/lambda steps a table must reach
    with pytest.raises(CalibrationError):
        calibrate_thresholds(64, 16, 0.03, 5.0, t_max=170, replicates=10_000)
    with pytest.raises(CalibrationError, match="of the 167 the table needs"):
        calibrate_thresholds(64, 16, 0.03, 5.0, replicates=10_000)


def test_every_step_rests_on_arl0_target_survivors():
    # alpha * n_t >= 1 at every step: at ARL0 9000 the floor is 9000, not
    # SURVIVOR_FLOOR. Without it the table ran 20 332 steps (2.4 s), most of
    # them on fewer survivors than one firing a step needs
    table = calibrate_thresholds(64, 8, 0.03, 9000.0, replicates=10_000, seed=1)
    assert table.t_max == 943
    _, at_risk = replay_exceedance(table, table.replicates, table.seed, horizon=944)
    assert at_risk[-2] >= 9000 > at_risk[-1]
    with pytest.raises(CalibrationError, match="fewer than 9000, at step 944 "):
        calibrate_thresholds(64, 8, 0.03, 9000.0, t_max=2000, replicates=10_000, seed=1)


def test_default_table_ends_at_the_survivor_floor():
    table = calibrate_thresholds(40, 8, 0.1, 50.0, replicates=10_000, seed=3)
    # the replay repeats calibration's draws, so it shows who was at risk
    # one step past the table's end
    _, at_risk = replay_exceedance(table, table.replicates, table.seed,
                                   horizon=table.t_max + 1)
    assert at_risk[-2] >= SURVIVOR_FLOOR > at_risk[-1]
    # a cap keeps the same draws: a capped table is a prefix of the default
    capped = calibrate_thresholds(40, 8, 0.1, 50.0, t_max=60, replicates=10_000, seed=3)
    assert capped.t_max == 60
    assert np.array_equal(capped.thresholds, table.thresholds[:60])
    assert np.array_equal(capped.gamma, table.gamma[:60])


def test_default_table_meets_the_run_length_target():
    # past a table's end its last (h, gamma) hold while the survivors fire
    # ever less often; a table that ends at the survivor floor leaves few
    # runs out there, so the mean run length meets ARL0. A 500-step table
    # at the same seeds gives 435.5.
    table = calibrate_thresholds(64, 16, 0.03, 375.0, seed=0)
    n, horizon = 60_000, 6000
    exceed, at_risk = replay_exceedance(table, n, seed=1, horizon=horizon)
    t = np.arange(1, horizon + 1, dtype=float)
    censored = at_risk[-1] - exceed[-1]
    mean = at_risk.sum() / n  # mean of min(run length, horizon)
    second = ((exceed * t * t).sum() + censored * float(horizon) ** 2) / n
    se = np.sqrt((second - mean * mean) / n)
    assert abs(mean - 375.0) <= 0.03 * 375.0 + 2 * se


def test_calibration_determinism(small_table):
    again = calibrate_thresholds(
        train_size=64, n_bins=16, lam=0.03, arl0_target=50.0,
        t_max=170, replicates=60_000, seed=7,
    )
    assert np.array_equal(small_table.thresholds, again.thresholds)
    assert np.array_equal(small_table.gamma, again.gamma)


def test_table_metadata(small_table):
    assert small_table.n_bins == 16
    assert small_table.lam == 0.03
    assert small_table.t_max == 170
    assert small_table.thresholds.shape == (170,)
    assert np.all(small_table.thresholds > 0)
    assert small_table.thresholds[0] == pytest.approx(
        0.03**2 * (1 - 1 / 16) / (1 / 16), abs=1e-12
    )


def test_replay_exceedance_tracks_alpha(small_table):
    exceed, at_risk = replay_exceedance(small_table, 20_000, seed=900)
    assert exceed.shape == at_risk.shape == (170,)
    alpha = 1.0 / small_table.arl0_target
    # survivors of step t are exactly the at-risk set of step t+1
    assert at_risk[0] == 20_000
    assert np.array_equal(at_risk[1:], at_risk[:-1] - exceed[:-1])
    # survival to step 170 is (1-alpha)^169 in expectation; its relative
    # spread combines the replay's binomial noise with the calibration
    # error of each h_t (variance alpha(1-alpha)/n_cal_t per step)
    p = (1 - alpha) ** 169
    n_cal = small_table.replicates * (1 - alpha) ** np.arange(169)
    rel_sd = np.sqrt((1 - p) / (20_000 * p) + alpha / (1 - alpha) * (1 / n_cal).sum())
    expected = 20_000 * p
    assert abs(at_risk[-1] / expected - 1) <= 3 * rel_sd
    # conditional exceedance matches alpha at every step, the first
    # (single-atom) step included, within a 1% family-wise band
    z = exceedance_z_scores(small_table, exceed, at_risk)
    assert np.all(np.abs(z) <= family_wise_bound(len(z)))


def test_replay_runs_the_horizon_after_every_replicate_has_fired():
    # h_1 below S_1 = lam^2 (K - 1): every replicate fires at t = 1, and the
    # replay still reports each step of the horizon, with none at risk
    table = ThresholdTable(n_bins=16, lam=0.03, arl0_target=50.0, train_size=64,
                           replicates=10_000, seed=0,
                           thresholds=np.full(3, 0.5 * T1_K16_LAM003), gamma=np.zeros(3))
    exceed, at_risk = replay_exceedance(table, 40, seed=2, horizon=5)
    assert at_risk.tolist() == [40, 0, 0, 0, 0]
    assert exceed.tolist() == [40, 0, 0, 0, 0]


def test_replay_memory_does_not_grow_with_the_replicates():
    # histograms are built TREE_CHUNK = 20k at a time, so 4x the replicates
    # stay under the same bound (sorting 100k x 64 training uniforms in one
    # go would take about 98 MB)
    table = ThresholdTable(n_bins=2, lam=0.03, arl0_target=50.0, train_size=64,
                           replicates=10_000, seed=0, thresholds=np.full(2, 1e6),
                           gamma=np.zeros(2))
    peaks = []
    for replicates in (25_000, 100_000):
        tracemalloc.start()
        try:
            replay_exceedance(table, replicates, seed=1, horizon=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 32 * 2**20


def test_uniform_tree_batch_allocates_exactly():
    # the sorted training row the builder consumed lands the same per-bin
    # allocation as the generic builder gives
    seed, n_train, n_bins = 321, 64, 8
    edges = _uniform_tree_batch(n_train, n_bins, 1, rng_from(seed))
    assert edges.shape == (1, n_bins - 1)
    assert np.all(np.diff(edges[0]) > 0)
    training = rng_from(seed).random((n_train, 1))
    expected = bin_counts(build_quanttree(training, n_bins, seed), training)
    assert tree_batch_training_counts(n_train, n_bins, seed).tolist() == sorted(expected.tolist())


@pytest.mark.parametrize("n_train, n_bins, n_rep, block", [
    (16, 16, 300, None),    # N = K: every bin holds one training point
    (100, 7, 250, None),    # N not divisible by K
    (64, 8, 100, 1000),     # 15 rows a block: the last block is partial
    (4096, 32, 700, None),  # 256 rows a block
])
def test_uniform_tree_batch_matches_the_sorted_matrix(monkeypatch, n_train, n_bins, n_rep,
                                                      block):
    # replaying the training uniforms in blocks gives the edges of sorting
    # the whole matrix first, and leaves the generator where it left it,
    # over two consecutive chunks drawn from one generator
    if block is not None:
        monkeypatch.setattr(calibration, "TREE_BLOCK", block)
    rng, reference = rng_from(50), rng_from(50)
    for _ in range(2):
        assert np.array_equal(_uniform_tree_batch(n_train, n_bins, n_rep, rng),
                              reference_uniform_tree_batch(n_train, n_bins, n_rep, reference))
    assert rng.random() == reference.random()


def test_uniform_tree_batch_memory_is_bounded_by_the_block():
    # the (5000, 4096) training matrix alone would be 164 MB
    tracemalloc.start()
    try:
        _uniform_tree_batch(4096, 32, 5000, rng_from(51))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def _compare_sum(edges, starts, rows, u):
    """The oracle: flat index row * K + the number of the row's edges below u."""
    k = edges.shape[1]
    return rows * k + (u[:, None] > edges[rows, :k - 1]).sum(axis=1)


def test_interval_index_matches_the_compare_sum():
    # the bucketed lookup counts exactly the edges below each draw, for the
    # survivors' rows in any order: draws on an edge, repeated edges, edges
    # and draws on a bucket boundary g/K and one ulp below it, and the
    # largest double below 1, which falls in the last bucket whether K is a
    # power of two or not (K = 257 takes uint16 starts)
    rng = rng_from(30)
    top = 1.0 - 2.0**-53
    for k in (2, 3, 16, 32, 33, 49, 257):
        assert _bucket(np.array([top]), k)[0] == k - 1
        edges = (_uniform_tree_batch(64, k, 400, rng) if k == 16
                 else np.sort(rng.random((400, k - 1)), axis=1))
        edges[::7, k // 2:] = edges[::7, k // 2 - 1:k // 2]  # repeated edges
        bounds = np.arange(1, k) / k
        below = np.nextafter(bounds, 0.0)
        for r in range(3, 400, 11):  # repeated edges on both sides of a boundary
            g = rng.integers(k - 1)
            edges[r, :] = np.sort(np.concatenate(
                [[below[g], below[g], bounds[g], bounds[g]], edges[r, :k - 5]])[:k - 1])
        edges[5::13] = np.sort(np.where(rng.random((len(edges[5::13]), k - 1)) < 0.5,
                                        bounds, below), axis=1)  # every edge on a boundary
        edges[2, -1] = top
        full = np.full((400, k), 2.0)
        full[:, :-1] = edges
        starts = _bucket_starts(edges, k)
        assert starts.dtype == (np.uint8 if k <= 256 else np.uint16)
        rows = np.concatenate((rng.permutation(400)[:300], [2, 399, 5]))
        u = rng.random(rows.size)
        on_edge = rng.random(rows.size) < 0.3
        u[on_edge] = edges[rows[on_edge], rng.integers(k - 1, size=int(on_edge.sum()))]
        pick = rng.integers(k - 1, size=rows.size)
        u[::5] = bounds[pick[::5]]
        u[1::5] = below[pick[1::5]]
        u[-3:] = top
        assert np.array_equal(_interval_index(full, starts, rows, u),
                              _compare_sum(full, starts, rows, u))


def test_tables_and_replay_match_the_compare_sum_lookup(monkeypatch):
    # a table and a replay stay bit for bit the same with the lookup
    # replaced by the plain compare sum
    def run():
        table = calibrate_thresholds(64, 33, 0.05, 100.0, t_max=120, replicates=10_000,
                                     seed=4)
        return table, replay_exceedance(table, 5000, seed=8, horizon=200)

    table, replay = run()
    monkeypatch.setattr(calibration, "_interval_index", _compare_sum)
    oracle_table, oracle_replay = run()
    assert table.thresholds.tobytes() == oracle_table.thresholds.tobytes()
    assert table.gamma.tobytes() == oracle_table.gamma.tobytes()
    for got, expected in zip(replay, oracle_replay):
        assert np.array_equal(got, expected)


def test_calibration_memory_stays_bounded_at_production_size():
    # 100k replicates at K = 32: the edges, the uint8 bucket starts and the
    # weights, plus one TREE_CHUNK of tree-building temporaries
    tracemalloc.start()
    try:
        calibrate_thresholds(512, 32, 0.03, 375.0, t_max=170, replicates=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("horizon", [0, -3, 2.5, True])
def test_replay_refuses_a_horizon_that_is_not_a_count(small_table, horizon):
    with pytest.raises(ConfigError, match="horizon"):
        replay_exceedance(small_table, 100, seed=1, horizon=horizon)


def test_ecdd_limit_monotone_in_target():
    l_small = calibrate_ecdd_limit(0.1, 0.2, 50.0, replicates=3000, seed=5)
    l_large = calibrate_ecdd_limit(0.1, 0.2, 200.0, replicates=3000, seed=5)
    assert l_large > l_small


def test_ecdd_limit_self_validates():
    target = 100.0
    limit = calibrate_ecdd_limit(0.1, 0.2, target, replicates=4000, seed=6)
    errors = (rng_from(99).random((4000, 2000)) < 0.1).astype(np.uint8)
    det = ecdd_first_exceed(errors, np.full(4000, 0.1), 100.0, 0.2, limit)
    times = np.where(det > 0, det, 2000)
    assert abs(times.mean() - target) / target < 0.05


def test_ecdd_limit_memory_does_not_grow_with_the_horizon():
    # only one draw block of ratios and the charts' records are held, so an
    # 8x longer horizon stays under the same bound (a replicates x horizon
    # float32 matrix alone would take 8 MB at 1000 steps and 64 MB at 8000)
    peaks = []
    for horizon in (1000, 8000):
        tracemalloc.start()
        try:
            calibrate_ecdd_limit(0.1, 0.2, 50.0, replicates=2000, seed=2, horizon=horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 12 * 2**20


def test_ecdd_limit_refuses_more_chart_steps_than_its_bound(monkeypatch):
    # 1e300 asked for 200 x 2e301 chart steps and never returned; the bound
    # is checked before any draw, and admits the default 5000 replicates at
    # ARL0 1e4 (20 x 1e4 steps each)
    assert 5000 * int(20 * 1e4) <= ECDD_MAX_CHART_STEPS
    monkeypatch.setattr(calibration, "rng_from", None)  # any draw would fail
    for kwargs in (dict(arl0_target=1e300, replicates=200),
                   dict(arl0_target=100.0, replicates=1000,
                        horizon=ECDD_MAX_CHART_STEPS // 1000 + 1)):
        with pytest.raises(ConfigError, match="chart steps"):
            calibrate_ecdd_limit(0.1, 0.2, **kwargs)


def test_ecdd_limit_refusal_names_the_largest_target_that_fits(monkeypatch):
    # under the default horizon of 20 x the target; an explicit horizon
    # does not depend on the target, so no target is named
    monkeypatch.setattr(calibration, "rng_from", None)  # any draw would fail
    assert ECDD_MAX_CHART_STEPS // (20 * 5000) == 10_000
    with pytest.raises(ConfigError, match="chart steps.*largest target that fits is 10000;"):
        calibrate_ecdd_limit(0.1, 0.2, 20_000.0)
    with pytest.raises(ConfigError, match="largest target that fits is 250000;"):
        calibrate_ecdd_limit(0.1, 0.2, 250_001.0, replicates=200)
    with pytest.raises(ConfigError, match="chart steps") as refused:
        calibrate_ecdd_limit(0.1, 0.2, 100.0, replicates=1000,
                             horizon=ECDD_MAX_CHART_STEPS // 1000 + 1)
    assert "largest target" not in str(refused.value)


def test_ecdd_limit_refusal_names_the_target_not_the_horizon(monkeypatch):
    # the default horizon of 20 x 1e300 steps printed as a 301-digit integer
    monkeypatch.setattr(calibration, "rng_from", None)  # any draw would fail
    for target, replicates in ((1e300, 200), (20_000.0, 5000), (1.5e15, 5000)):
        with pytest.raises(ConfigError) as refused:
            calibrate_ecdd_limit(0.1, 0.2, target, replicates=replicates)
        message = str(refused.value)
        assert f"target ARL0 {target:g} at {replicates} replicates" in message
        assert "1e+09 chart steps" in message and len(message) < 200


def test_ecdd_limit_parameter_errors():
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.0, 0.2, 100.0)
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.1, 1.0, 100.0)
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.1, 0.2, 1.0)
    with pytest.raises(ConfigError, match="replicates"):
        calibrate_ecdd_limit(0.1, 0.2, 100.0, replicates=0)
    with pytest.raises(ConfigError, match="horizon"):
        calibrate_ecdd_limit(0.1, 0.2, 100.0, horizon=0)
    # a NaN or infinite weight gave L = 0, which fires at the first error
    for prior_weight in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="prior_weight"):
            calibrate_ecdd_limit(0.1, 0.2, 375.0, replicates=200, prior_weight=prior_weight)
    # a count that int() would truncate or a bool is refused, not rounded
    for bad in (2.5, 2.7, True, 3.0):
        with pytest.raises(ConfigError, match="replicates must be an integer"):
            calibrate_ecdd_limit(0.1, 0.2, 100.0, replicates=bad)
        with pytest.raises(ConfigError, match="horizon must be an integer"):
            calibrate_ecdd_limit(0.1, 0.2, 100.0, replicates=50, horizon=bad)
    assert calibrate_ecdd_limit(0.1, 0.2, 50.0, replicates=np.int64(50), seed=3,
                                horizon=np.int64(1000)) == \
        calibrate_ecdd_limit(0.1, 0.2, 50.0, replicates=50, seed=3, horizon=1000)


def test_ecdd_limit_at_the_clipped_error_floor():
    # p0 = 1e-3 is where the CLI clips a zero cross-validation error; the
    # chart then meets the target at L = 0, firing at the first error
    limit = calibrate_ecdd_limit(1e-3, 0.2, 375.0, seed=0)
    assert limit >= 0.0
    errors = rng_from(77).random((500, 7500)) < 1e-3
    det = ecdd_first_exceed(errors, np.full(500, 1e-3), 100.0, 0.2, limit)
    assert np.where(det > 0, det, 7500).mean() >= 375.0


def test_ecdd_limit_unreachable_target_raises():
    # horizon shorter than the target caps every mean detection time
    with pytest.raises(CalibrationError):
        calibrate_ecdd_limit(0.1, 0.2, 375.0, replicates=500, seed=1, horizon=50)
