from dataclasses import replace

import numpy as np
import pytest

from driftmon import (
    ConfigError,
    InputError,
    QtEwmaDetector,
    ThresholdTable,
    build_quanttree,
    calibrate_thresholds,
)
from driftmon.engine import batch_first_exceed
from driftmon.qt_ewma import SCALE_FLOOR, ewma_step
from driftmon.seeding import rng_from


@pytest.fixture()
def hist():
    training = rng_from(1).standard_normal((64, 2))
    return build_quanttree(training, 16, seed=2)


def test_initial_state(hist, small_table):
    det = QtEwmaDetector(hist, small_table)
    assert np.allclose(det.z, 1 / 16)
    assert det.t == 0
    assert det.last_statistic == 0.0
    assert not det.detected


def test_constructor_validation(hist, small_table):
    # lambda comes from the table, which refuses one outside (0, 1) itself
    assert QtEwmaDetector(hist, small_table).lam == small_table.lam
    bad_bins = ThresholdTable(
        n_bins=32, lam=0.03, arl0_target=50.0, train_size=64,
        replicates=10_000, seed=1, thresholds=np.array([1.0, 1.0, 1.0]), gamma=np.zeros(3),
    )
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, bad_bins)
    bad_train = ThresholdTable(
        n_bins=16, lam=0.03, arl0_target=50.0, train_size=999,
        replicates=10_000, seed=1, thresholds=np.array([1.0, 1.0, 1.0]), gamma=np.zeros(3),
    )
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, bad_train)


def test_first_statistic_is_bin_independent(hist, small_table):
    # T_1 = lam^2 (1-pi)/pi = lam^2 (K-1) for every possible first bin, and
    # it equals the calibrated h_1 bit for bit: the tie rule at the threshold
    # relies on the detector and calibration computing the statistic
    # identically. At K = 49, 49 * (1/49) != 1 in floats.
    hist49 = build_quanttree(rng_from(12).standard_normal((98, 2)), 49, seed=13)
    table49 = calibrate_thresholds(98, 49, 0.1, 50.0, t_max=50, replicates=10_000, seed=14)
    for h, lam, table in ((hist, 0.03, small_table), (hist49, 0.1, table49)):
        k = h.n_bins
        for b in range(k):
            det = QtEwmaDetector(h, table)
            stat, _ = det.update_from_bin(b)
            assert stat == pytest.approx(lam**2 * (1 - 1 / k) / (1 / k), abs=1e-12)
            assert stat == table.thresholds[0]
    # the same tie at h_1 cannot fire under the strict rule (gamma_1 = 0)
    strict = QtEwmaDetector(hist, replace(small_table, gamma=np.zeros(small_table.t_max)))
    assert strict.update_from_bin(0) == (small_table.thresholds[0], False)


def test_statistic_is_invariant_to_bin_relabeling():
    # S is symmetric in the bins, and the tie rule at h_t needs equal
    # statistics to be bit-equal: every relabeling of a bin pattern gives
    # the same S_1, S_2, ... bit for bit, on the detector's 1-D call and on
    # the 2-D call of the batch engine and calibration (one row per labeling)
    rng = rng_from(15)
    for k, lam in ((16, 0.03), (49, 0.1)):
        hist = build_quanttree(rng_from(16).standard_normal((2 * k, 2)), k, seed=17)
        mute = ThresholdTable(n_bins=k, lam=lam, arl0_target=50.0, train_size=2 * k,
                              replicates=10_000, seed=0,
                              thresholds=np.array([1e6]), gamma=np.zeros(1))
        for _ in range(10):
            pattern = rng.integers(rng.integers(2, k + 1), size=300)  # few bins to all
            labelings = np.vstack([np.arange(k)] + [rng.permutation(k) for _ in range(7)])
            one_d = []
            for labels in labelings:
                det = QtEwmaDetector(hist, mute)
                one_d.append([det.update_from_bin(int(b))[0] for b in labels[pattern]])
            w, scale, stat, two_d = (np.full((len(labelings), k), 1 / k), 1.0,
                                     np.zeros(len(labelings)), [])
            for bins in labelings[:, pattern].T:
                stat, scale = ewma_step(w, scale, stat, np.arange(len(labelings)) * k + bins,
                                        lam)
                two_d.append(stat)
            assert all(traj == one_d[0] for traj in one_d)
            assert np.array_equal(np.array(two_d).T, one_d)


def test_update_from_bin_refuses_a_bad_index_before_moving(hist, small_table):
    det = QtEwmaDetector(hist, small_table)
    for b in (3, 3, 7):
        det.update_from_bin(b)
    t, z, stat = det.t, det.z, det.last_statistic
    for bad in (16, -1, 2.0, np.float64(1.0), "3", None):
        with pytest.raises(InputError, match="bin index"):
            det.update_from_bin(bad)
        assert det.t == t and det.last_statistic == stat
        assert np.array_equal(det.z, z)
    det.update_from_bin(np.int64(15))  # numpy integers are bin indices too
    assert det.t == t + 1


def test_lazy_scale_tracks_the_eager_recursion():
    # Z = scale * w against Z <- (1 - lam) Z + lam e_b computed in full at
    # every step, across folds of the scale at lam = 0.5
    rng = rng_from(18)
    for k, lam, steps in ((16, 0.03, 2000), (32, 0.5, 1500)):
        w, scale, stat, eager = np.full(k, 1 / k), 1.0, 0.0, np.full(k, 1 / k)
        for b in rng.integers(k, size=steps):
            stat, scale = ewma_step(w, scale, stat, int(b), lam)
            eager *= 1.0 - lam
            eager[b] += lam
            assert np.abs(w * scale - eager).max() < 1e-12


def test_paths_stay_bit_identical_across_a_fold():
    # at lam = 0.5 the scale passes SCALE_FLOOR within 700 steps and folds
    # into w; the detector, a 2-D ewma_step call (one row per relabeling of
    # the pattern) and batch_first_exceed still give the same S bit for bit
    k, lam, steps = 16, 0.5, 700
    assert (1.0 - lam) ** steps < SCALE_FLOOR
    rng = rng_from(19)
    hist = build_quanttree(rng_from(20).standard_normal((2 * k, 2)), k, seed=21)
    mute = ThresholdTable(n_bins=k, lam=lam, arl0_target=50.0, train_size=2 * k,
                          replicates=10_000, seed=0,
                          thresholds=np.full(steps, 1e6), gamma=np.zeros(steps))
    pattern = rng.integers(k, size=steps)
    labelings = np.vstack([np.arange(k)] + [rng.permutation(k) for _ in range(5)])
    det, one_d, folded = QtEwmaDetector(hist, mute), [], False
    for b in pattern:
        scale = det.scale
        one_d.append(det.update_from_bin(int(b))[0])
        folded |= det.scale > scale
    assert folded
    rows = np.arange(len(labelings))
    w, scale, stat, two_d = np.full((len(labelings), k), 1 / k), 1.0, np.zeros(len(rows)), []
    for bins in labelings[:, pattern].T:
        stat, scale = ewma_step(w, scale, stat, rows * k + bins, lam)
        two_d.append(stat)
    assert np.array_equal(np.array(two_d).T, np.tile(one_d, (len(rows), 1)))
    # batch S_T == detector S_T: a table muted but at T fires every row at T
    # when it fires on ties (gamma 1), and no row when only S_T > h_T fires
    bins = labelings[:, pattern].astype(np.int16)
    lengths = np.full(len(rows), steps)
    for t in (600, 665, 666, steps):
        h = mute.thresholds.copy()
        h[t - 1] = one_d[t - 1]
        for gamma_t, expected in ((1.0, t), (0.0, 0)):
            gamma = np.zeros(steps)
            gamma[t - 1] = gamma_t
            table = replace(mute, thresholds=h, gamma=gamma)
            out = batch_first_exceed(bins, lengths, table, list(range(len(rows))))
            assert np.all(out == expected)


def test_z_conservation(hist, small_table):
    det = QtEwmaDetector(hist, small_table)
    rng = rng_from(3)
    for _ in range(500):
        det.update_from_bin(int(rng.integers(16)))
        assert abs(det.z.sum() - 1.0) < 1e-9
        assert np.all((det.z >= 0) & (det.z <= 1))
        assert det.last_statistic >= 0.0


def test_statistic_depends_only_on_bin_sequence(small_table):
    # two histograms over different data, same K: identical bin index
    # sequences give identical trajectories (compared while neither has
    # fired: the histogram seeds differ, and so do their tie draws)
    h1 = build_quanttree(rng_from(4).standard_normal((64, 2)), 16, seed=5)
    h2 = build_quanttree(rng_from(6).random((64, 5)) * 100, 16, seed=7)
    d1 = QtEwmaDetector(h1, small_table)
    d2 = QtEwmaDetector(h2, small_table)
    seq = rng_from(8).integers(16, size=200)
    for b in seq:
        s1, fired1 = d1.update_from_bin(int(b))
        s2, fired2 = d2.update_from_bin(int(b))
        assert s1 == s2
        if fired1 or fired2:
            break


def test_single_bin_stream_detects(hist, small_table):
    det = QtEwmaDetector(hist, small_table)
    stats = []
    for _ in range(300):
        stat, detected = det.update_from_bin(0)
        stats.append(stat)
        if detected:
            break
    assert det.detected
    assert det.detection_time is not None
    assert all(b > a for a, b in zip(stats, stats[1:]))


def test_detector_freezes_after_detection(hist, small_table):
    det = QtEwmaDetector(hist, small_table)
    while not det.detected:
        det.update_from_bin(0)
    t_at_detection = det.t
    stat_at_detection = det.last_statistic
    stat, detected = det.update_from_bin(5)
    assert detected
    assert stat == stat_at_detection
    assert det.t == t_at_detection
    assert det.detection_time == t_at_detection


def test_empirical_arl0_small_target(small_table):
    # end-to-end sanity at target 50: sequential detectors on fresh
    # stationary streams reproduce the target within Monte Carlo slack
    times = []
    for i in range(400):
        rng = rng_from(1000 + i)
        hist = build_quanttree(rng.random((64, 1)), 16, seed=2000 + i)
        det = QtEwmaDetector(hist, small_table)
        detected = False
        for t in range(1, 1200):
            _, detected = det.update(rng.random(1))
            if detected:
                times.append(t)
                break
        assert detected
    mean = np.mean(times)
    assert abs(mean - 50.0) / 50.0 < 0.15
