import csv
from dataclasses import replace

import numpy as np
import pytest

from driftmon import (
    ConfigError,
    QtEwmaDetector,
    ThresholdTable,
    build_quanttree,
    run_stream,
    uniform_probs,
)
from driftmon.seeding import rng_from


@pytest.fixture()
def hist():
    training = rng_from(1).standard_normal((64, 2))
    return build_quanttree(training, uniform_probs(16), seed=2)


def test_initial_state(hist, small_table):
    det = QtEwmaDetector(hist, 0.03, small_table)
    assert np.allclose(det.z, 1 / 16)
    assert det.t == 0
    assert det.last_statistic == 0.0
    assert not det.detected


def test_constructor_validation(hist, small_table):
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, 0.0, small_table)
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, 1.0, small_table)
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, 0.05, small_table)  # lambda mismatch with table
    bad_bins = ThresholdTable(
        n_bins=32, lam=0.03, arl0_target=50.0, train_size=64, t_max=3,
        replicates=10_000, seed=1, thresholds=np.array([1.0, 1.0, 1.0]),
    )
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, 0.03, bad_bins)
    bad_train = ThresholdTable(
        n_bins=16, lam=0.03, arl0_target=50.0, train_size=999, t_max=3,
        replicates=10_000, seed=1, thresholds=np.array([1.0, 1.0, 1.0]),
    )
    with pytest.raises(ConfigError):
        QtEwmaDetector(hist, 0.03, bad_train)


def test_non_uniform_histogram_is_rejected(small_table):
    # the shared recursion and the calibrated tables assume pi = 1/K
    pi = np.full(16, 0.5 / 15)
    pi[0] = 0.5
    skewed = build_quanttree(rng_from(1).standard_normal((64, 2)), pi, seed=2)
    with pytest.raises(ConfigError, match="uniform"):
        QtEwmaDetector(skewed, 0.03, small_table)


def test_first_statistic_is_bin_independent(hist, small_table):
    # T_1 = lam^2 (1-pi)/pi for every possible first bin, and it equals
    # the calibrated h_1 bit for bit: the tie rule at the threshold relies
    # on the detector and calibration computing the statistic identically
    for k in range(16):
        det = QtEwmaDetector(hist, 0.03, small_table)
        stat, _ = det.update_from_bin(k)
        assert stat == pytest.approx(0.0135, abs=1e-12)
        assert stat == small_table.thresholds[0]


def test_z_conservation(hist, small_table):
    det = QtEwmaDetector(hist, 0.03, small_table)
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
    h1 = build_quanttree(rng_from(4).standard_normal((64, 2)), uniform_probs(16), seed=5)
    h2 = build_quanttree(rng_from(6).random((64, 5)) * 100, uniform_probs(16), seed=7)
    d1 = QtEwmaDetector(h1, 0.03, small_table)
    d2 = QtEwmaDetector(h2, 0.03, small_table)
    seq = rng_from(8).integers(16, size=200)
    for b in seq:
        s1, fired1 = d1.update_from_bin(int(b))
        s2, fired2 = d2.update_from_bin(int(b))
        assert s1 == s2
        if fired1 or fired2:
            break


def test_single_bin_stream_detects(hist, small_table):
    det = QtEwmaDetector(hist, 0.03, small_table)
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
    det = QtEwmaDetector(hist, 0.03, small_table)
    while not det.detected:
        det.update_from_bin(0)
    t_at_detection = det.t
    stat_at_detection = det.last_statistic
    stat, detected = det.update_from_bin(5)
    assert detected
    assert stat == stat_at_detection
    assert det.t == t_at_detection
    assert det.detection_time == t_at_detection


def test_run_stream_with_trace(hist, small_table, tmp_path):
    det = QtEwmaDetector(hist, 0.03, small_table)
    data = rng_from(9).standard_normal((400, 2)) + 40.0  # far off the training mass
    trace = tmp_path / "trace.csv"
    t_star = run_stream(det, data, trace_path=trace)
    assert t_star is not None and t_star >= 1
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "bin", "statistic", "threshold", "detected"]
    assert len(rows) - 1 == t_star
    assert rows[-1][-1] == "1"
    assert float(rows[-1][2]) == pytest.approx(det.last_statistic)


def test_run_stream_without_detection(hist, small_table):
    # with no tie randomization a single sample sits exactly on h_1 and
    # cannot fire, so the stream ends first
    strict = replace(small_table, gamma=np.zeros(small_table.t_max))
    det = QtEwmaDetector(hist, 0.03, strict)
    assert run_stream(det, rng_from(10).standard_normal((1, 2))) is None
    assert det.t == 1


def test_empirical_arl0_small_target(small_table):
    # end-to-end sanity at target 50: sequential detectors on fresh
    # stationary streams reproduce the target within Monte Carlo slack
    times = []
    for i in range(400):
        rng = rng_from(1000 + i)
        hist = build_quanttree(rng.random((64, 1)), uniform_probs(16), seed=2000 + i)
        det = QtEwmaDetector(hist, 0.03, small_table)
        detected = False
        for t in range(1, 1200):
            _, detected = det.update(rng.random(1))
            if detected:
                times.append(t)
                break
        assert detected
    mean = np.mean(times)
    assert abs(mean - 50.0) / 50.0 < 0.15
