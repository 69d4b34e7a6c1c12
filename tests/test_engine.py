from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_ecdd_first_exceed, reference_ecdd_records

from driftmon import (ConfigError, InputError, QtEwmaDetector, ThresholdTable, build_quanttree,
                      calibrate_ecdd_limit)
from driftmon import calibration
from driftmon.calibration import _ecdd_records, _mean_detection_curve
from driftmon.ecdd import ecdd_blocks, ecdd_init, ecdd_update
from driftmon.engine import batch_first_exceed, ecdd_first_exceed
from driftmon.qt_ewma import ewma_step
from driftmon.seeding import rng_from


def test_ewma_step_rows_match_detector(small_table):
    # the 2-D kernel call of the batch engine and calibration reproduces,
    # row by row, the statistics of the 1-D call an online detector makes
    hist = build_quanttree(rng_from(1).standard_normal((64, 2)), 16, seed=2)
    det = QtEwmaDetector(hist, small_table)
    seq = rng_from(3).integers(16, size=150)
    expected = []
    for b in seq:
        stat, _ = det.update_from_bin(int(b))
        expected.append(stat)
        if det.detected:
            break
    w, scale, stat, traj = np.full((3, 16), 1 / 16), 1.0, np.zeros(3), []
    rows = np.arange(3)
    for b in seq[: len(expected)]:
        stat, scale = ewma_step(w, scale, stat, rows * 16 + b, 0.03)
        traj.append(stat)
    traj = np.array(traj)
    for i in range(3):
        assert np.array_equal(traj[:, i], np.array(expected))  # bit-identical


def test_batch_first_exceed_matches_sequential(small_table):
    # one histogram seed per row, so rows draw different tie uniforms; the
    # second table fires on half the ties of the first steps, so the
    # randomized rule at t = 1 is exercised both ways
    train = rng_from(4).standard_normal((64, 2))
    rng = rng_from(6)
    n_rows, t_pad = 60, 400
    hists = [build_quanttree(train, 16, seed=5 + i) for i in range(n_rows)]
    lengths = rng.integers(50, t_pad + 1, size=n_rows)
    bins = rng.integers(16, size=(n_rows, t_pad)).astype(np.int16)
    tie_heavy = replace(small_table, gamma=np.where(np.arange(small_table.t_max) < 3,
                                                    0.5, small_table.gamma))

    for table in (small_table, tie_heavy):
        batch = batch_first_exceed(bins, lengths, table, [h.seed for h in hists])
        for i in range(n_rows):
            det = QtEwmaDetector(hists[i], table)
            found = 0
            for t in range(1, int(lengths[i]) + 1):
                _, detected = det.update_from_bin(int(bins[i, t - 1]))
                if detected:
                    found = t
                    break
            assert batch[i] == found
    assert 0 < int((batch == 1).sum()) < n_rows  # ties at t = 1 fire for some rows only


def test_batch_first_exceed_respects_lengths():
    bins = np.zeros((3, 50), dtype=np.int16)  # constant bin 0 forces detection
    table = ThresholdTable(n_bins=16, lam=0.03, arl0_target=50.0, train_size=64,
                           replicates=10_000, seed=0,
                           thresholds=np.full(50, 0.2), gamma=np.zeros(50))
    seeds = [1, 2, 3]
    out = batch_first_exceed(bins, np.array([50, 50, 0]), table, seeds)
    t_cross = int(out[0])
    assert t_cross > 0
    assert out[2] == 0  # zero-length row never fires
    # a row one step shorter than the crossing time cannot fire
    short = batch_first_exceed(bins, np.array([50, t_cross - 1, 0]), table, seeds)
    assert short[1] == 0


def test_batch_first_exceed_refuses_out_of_range_bins(small_table):
    # with flat (row, bin) indexing, bin K would update the next row
    bins = np.zeros((3, 20), dtype=np.int16)
    for bad in (16, -1):
        bins[1, 4] = bad
        with pytest.raises(InputError, match="bin indices"):
            batch_first_exceed(bins, np.full(3, 20), small_table, [1, 2, 3])


def test_batch_first_exceed_refuses_lengths_that_are_not_one_step_count_per_row(
        small_table):
    # rows step on over their padding and are masked by lengths at the end,
    # so a length must not point past the padded matrix, nor be dropped
    bins = np.zeros((3, 20), dtype=np.int16)
    for bad in (np.full(4, 20), np.full(2, 20), np.array([20, 21, 5]),
                np.array([20, -1, 5]), np.array([20.0, 10.0, 5.0]), np.full((3, 1), 20)):
        with pytest.raises(InputError, match="lengths"):
            batch_first_exceed(bins, bad, small_table, [1, 2, 3])
    assert batch_first_exceed(bins[:0], np.zeros(0, dtype=np.int64), small_table,
                              []).shape == (0,)


def test_ecdd_first_exceed_matches_sequential():
    rng = rng_from(7)
    n_rows, horizon = 40, 600
    errors = (rng.random((n_rows, horizon)) < 0.1).astype(np.uint8)
    p0 = np.full(n_rows, 0.1)
    limit = 2.0
    # prior weight 0: sigma = 0 until the first error, and neither chart fires there
    for prior_weight in (100.0, 0.0):
        batch = ecdd_first_exceed(errors, p0, prior_weight, 0.2, limit)
        for i in range(n_rows):
            state = ecdd_init(0.1, 0.2, limit, prior_weight=prior_weight)
            found = 0
            for t in range(1, horizon + 1):
                _, detected = ecdd_update(state, int(errors[i, t - 1]))
                if detected:
                    found = t
                    break
            assert batch[i] == found


def test_ecdd_limit_calibration_first_exceed_matches_batch():
    # the mean detection time the calibration reads off the charts' records
    # equals the chart's own mean first-exceed time (horizon = never fired)
    # at every limit, a midpoint between two record values included
    rng = rng_from(8)
    errors = (rng.random((30, 400)) < 0.15).astype(np.uint8)
    values, steps, charts = _ecdd_records(ecdd_blocks(
        30, 400, lambda t, steps: errors.T[t:t + steps], 0.15, 100.0, 0.2))
    levels, means = _mean_detection_curve(values, steps, charts, 30, 400)
    assert np.all(np.diff(levels) > 0) and np.all(np.diff(means) >= 0)
    fired_some = False
    for limit in (0.0, 1.0, 2.5, 3.0, 0.5 * float(levels[5] + levels[6]), float(values.max()) + 1):
        direct = ecdd_first_exceed(errors, np.full(30, 0.15), 100.0, 0.2, limit)
        via_records = means[np.searchsorted(levels, limit, side="right") - 1]
        assert via_records == np.where(direct > 0, direct, 400).mean()
        fired_some |= 0 < int((direct > 0).sum()) < 30  # both outcomes occur
    assert fired_some


# (replicates, horizon, p0, r, prior weight): one chart, a horizon of no
# block multiple with sigma = 0 at the start, the monitor and the bench
# calibration shapes, and blocks of a few steps
ECDD_SHAPES = [(1, 1000, 0.1, 0.2, 100.0), (7, 5003, 1e-3, 0.05, 0.0),
               (200, 60_000, 0.19, 0.2, 100.0), (2000, 1000, 0.1, 0.2, 100.0),
               (5000, 7500, 0.13, 0.2, 100.0)]


@pytest.mark.parametrize("replicates,horizon,p0,r,prior_weight", ECDD_SHAPES)
def test_ecdd_blocks_match_the_per_step_loop(monkeypatch, replicates, horizon, p0, r,
                                             prior_weight):
    # the records, the limit and t* are the doubles and steps that one
    # chart step per call gave, the reference drawing its errors in the
    # blocks of 2^18 uniforms the calibration drew before: the uniforms
    # of seed 21 in the order ecdd_blocks and calibrate_ecdd_limit draw them
    def chunks():
        rng = rng_from(21)
        block = max(1, (1 << 18) // replicates)
        return (rng.random((min(block, horizon - start), replicates)) < p0
                for start in range(0, horizon, block))

    rng = rng_from(21)
    got = _ecdd_records(ecdd_blocks(replicates, horizon,
                                    lambda t, steps: rng.random((steps, replicates)) < p0,
                                    p0, prior_weight, r))
    expected = reference_ecdd_records(chunks(), p0, prior_weight, r)
    assert len(expected[0]) > 0
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype and np.array_equal(column, reference)

    def limit():
        return calibrate_ecdd_limit(p0, r, horizon / 20, replicates=replicates, seed=21,
                                    prior_weight=prior_weight, horizon=horizon)

    found = limit()
    monkeypatch.setattr(calibration, "_ecdd_records",
                        lambda blocks: reference_ecdd_records(chunks(), p0, prior_weight, r))
    assert found == limit()

    rng = rng_from(22)
    n_rows = min(replicates, 2000)
    row_p0 = np.minimum(p0 * rng.uniform(0.5, 1.5, n_rows), 1.0)
    errors = (rng.random((n_rows, horizon)) < row_p0[:, None]).astype(np.uint8)
    for p0_arg in (p0, row_p0):
        t_star = ecdd_first_exceed(errors, p0_arg, prior_weight, r, found)
        assert np.array_equal(t_star, reference_ecdd_first_exceed(errors, p0_arg, prior_weight,
                                                                  r, found))
    assert replicates == 1 or t_star.any()


def test_ecdd_first_exceed_checks_its_inputs():
    errors = np.zeros((2, 5), dtype=np.uint8)
    for bad in (np.full((2, 5), 3), np.full((2, 5), -1), np.full((2, 5), 0.5),
                np.full((2, 5), np.nan), np.zeros(5)):
        with pytest.raises(InputError, match="errors"):
            ecdd_first_exceed(bad, 0.1, 100.0, 0.2, 3.0)
    for p0 in (1.5, -0.1, np.nan, [0.1, 0.1, 0.1], [[0.1, 0.1]], [0.1, 1.5]):
        with pytest.raises(ConfigError, match="p0"):
            ecdd_first_exceed(errors, p0, 100.0, 0.2, 3.0)
    for prior_weight, r, limit, name in ((100.0, 0.2, -1.0, "control limit"),
                                         (100.0, 0.0, 3.0, "r must"), (100.0, 1.0, 3.0, "r must"),
                                         (-1.0, 0.2, 3.0, "prior_weight")):
        with pytest.raises(ConfigError, match=name):
            ecdd_first_exceed(errors, 0.1, prior_weight, r, limit)
    # per-row and scalar p0, a zero prior weight, and 0/1 errors of any dtype stay accepted
    for ok in (errors, errors.astype(bool), errors.astype(float), np.ones((2, 5))):
        assert ecdd_first_exceed(ok, [0.1, 0.2], 0.0, 0.2, 3.0).shape == (2,)
    assert ecdd_first_exceed(np.ones((2, 5), dtype=np.int64), 0.1, 100.0, 0.2, 0.0).tolist() \
        == [1, 1]
    # no rows, or no steps: nothing fires
    assert ecdd_first_exceed(errors[:0], 0.1, 100.0, 0.2, 0.0).shape == (0,)
    assert ecdd_first_exceed(errors[:, :0], 0.1, 100.0, 0.2, 0.0).tolist() == [0, 0]


def test_batch_first_exceed_statistic_order_of_operations(small_table):
    # one row, known sequence: the crossing step must match the 1-D
    # kernel call of the online detector exactly, guarding against
    # reordered float operations (strict rule: a gamma = 0 table, so only
    # the statistic decides)
    seq = rng_from(9).integers(16, size=300).astype(np.int16)
    strict = replace(small_table, gamma=np.zeros(small_table.t_max))
    thresholds = np.array([strict.at(t)[0] for t in range(1, 301)])
    batch = batch_first_exceed(seq[None, :], np.array([300]), strict, [0])
    w, scale, stat, traj = np.full(16, 1 / 16), 1.0, 0.0, []
    for b in seq:
        stat, scale = ewma_step(w, scale, stat, int(b), 0.03)
        traj.append(stat)
    traj = np.array(traj)
    crossings = np.flatnonzero(traj > thresholds)
    expected = int(crossings[0] + 1) if crossings.size else 0
    assert expected > 0
    assert batch[0] == expected
