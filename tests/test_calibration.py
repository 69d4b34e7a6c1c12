import tracemalloc

import numpy as np
import pytest
from conftest import exceedance_z_scores, family_wise_bound

from driftmon import (
    CalibrationError,
    ConfigError,
    calibrate_ecdd_limit,
    calibrate_thresholds,
    replay_exceedance,
    simulate_stationary_trajectory,
)
from driftmon.calibration import _uniform_tree_batch
from driftmon.engine import ecdd_first_exceed
from driftmon.quanttree import expected_allocation, uniform_probs
from driftmon.seeding import rng_from

T1_K16_LAM003 = 0.03**2 * (1 - 1 / 16) / (1 / 16)  # lam^2 (1-pi)/pi = 0.0135


def test_first_statistic_is_the_single_atom():
    for seed in range(5):
        traj = simulate_stationary_trajectory(256, 16, 0.03, horizon=3, seed=seed)
        assert traj[0] == pytest.approx(0.0135, abs=1e-12)
    assert T1_K16_LAM003 == pytest.approx(0.0135, abs=1e-12)


def test_trajectory_determinism_and_shape():
    a = simulate_stationary_trajectory(64, 8, 0.05, horizon=50, seed=123)
    b = simulate_stationary_trajectory(64, 8, 0.05, horizon=50, seed=123)
    c = simulate_stationary_trajectory(64, 8, 0.05, horizon=50, seed=124)
    assert a.shape == (50,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_statistic_mean_stabilizes_after_memory_horizon():
    # EWMA memory is about 1/lam; past 5/lam the mean statistic plateaus
    lam, horizon = 0.05, 300
    means = np.zeros(horizon)
    for seed in range(300):
        means += simulate_stationary_trajectory(64, 8, lam, horizon, seed=seed)
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


def test_survivor_floor_raises():
    # alpha = 0.2 burns 10k replicates below the floor long before t_max
    with pytest.raises(CalibrationError):
        calibrate_thresholds(64, 16, 0.03, 5.0, t_max=170, replicates=10_000)


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
    alpha = small_table.alpha
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


def test_uniform_tree_batch_allocates_exactly():
    # regenerate the sorted training row the builder consumed and check
    # that it lands the exact per-bin allocation
    seed, n_train, n_bins = 321, 64, 8
    x = np.sort(rng_from(seed).random((1, n_train)), axis=1)
    edges, perm = _uniform_tree_batch(n_train, n_bins, 1, rng_from(seed))
    assert sorted(perm[0].tolist()) == list(range(n_bins))
    assert np.all(np.diff(edges[0]) > 0)
    idx = (x[0][:, None] > edges[0]).sum(axis=1)
    counts = np.bincount(perm[0][idx], minlength=n_bins)
    assert counts.tolist() == expected_allocation(n_train, uniform_probs(n_bins)).tolist()


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


def test_ecdd_limit_memory_is_bounded_by_the_run_max():
    # the float32 running maximum (replicates x horizon x 4 bytes) is the
    # one large array; no float64 draw matrix or second copy sits beside it
    replicates, horizon = 2000, 1000
    run_max_bytes = replicates * horizon * 4
    tracemalloc.start()
    try:
        calibrate_ecdd_limit(0.1, 0.2, 50.0, replicates=replicates, seed=2,
                             horizon=horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * run_max_bytes


def test_ecdd_limit_parameter_errors():
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.0, 0.2, 100.0)
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.1, 1.0, 100.0)
    with pytest.raises(ConfigError):
        calibrate_ecdd_limit(0.1, 0.2, 1.0)


def test_ecdd_limit_unreachable_target_raises():
    # horizon shorter than the target caps every mean detection time
    with pytest.raises(CalibrationError):
        calibrate_ecdd_limit(0.1, 0.2, 375.0, replicates=500, seed=1, horizon=50)
