from dataclasses import replace

import numpy as np

from driftmon import QtEwmaDetector, ThresholdTable, build_quanttree, uniform_probs
from driftmon.calibration import _detection_times, _ecdd_run_max
from driftmon.ecdd import ecdd_init, ecdd_update
from driftmon.engine import batch_first_exceed, ecdd_first_exceed
from driftmon.qt_ewma import ewma_step
from driftmon.seeding import rng_from


def test_ewma_step_rows_match_detector(small_table):
    # the 2-D kernel call of the batch engine and calibration reproduces,
    # row by row, the statistics of the 1-D call an online detector makes
    hist = build_quanttree(rng_from(1).standard_normal((64, 2)), uniform_probs(16), seed=2)
    det = QtEwmaDetector(hist, 0.03, small_table)
    seq = rng_from(3).integers(16, size=150)
    expected = []
    for b in seq:
        stat, _ = det.update_from_bin(int(b))
        expected.append(stat)
        if det.detected:
            break
    z = np.full((3, 16), 1 / 16)
    rows = np.arange(3)
    traj = np.array([ewma_step(z, (rows, np.full(3, b)), 0.03)
                     for b in seq[: len(expected)]])
    for i in range(3):
        assert np.array_equal(traj[:, i], np.array(expected))  # bit-identical


def test_batch_first_exceed_matches_sequential(small_table):
    # one histogram seed per row, so rows draw different tie uniforms; the
    # second table fires on half the ties of the first steps, so the
    # randomized rule at t = 1 is exercised both ways
    train = rng_from(4).standard_normal((64, 2))
    rng = rng_from(6)
    n_rows, t_pad = 60, 400
    hists = [build_quanttree(train, uniform_probs(16), seed=5 + i) for i in range(n_rows)]
    lengths = rng.integers(50, t_pad + 1, size=n_rows)
    bins = rng.integers(16, size=(n_rows, t_pad)).astype(np.int16)
    tie_heavy = replace(small_table, gamma=np.where(np.arange(small_table.t_max) < 3,
                                                    0.5, small_table.gamma))

    for table in (small_table, tie_heavy):
        batch = batch_first_exceed(bins, lengths, table, [h.seed for h in hists])
        for i in range(n_rows):
            det = QtEwmaDetector(hists[i], 0.03, table)
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
                           t_max=50, replicates=10_000, seed=0,
                           thresholds=np.full(50, 0.2))
    seeds = [1, 2, 3]
    out = batch_first_exceed(bins, np.array([50, 50, 0]), table, seeds)
    t_cross = int(out[0])
    assert t_cross > 0
    assert out[2] == 0  # zero-length row never fires
    # a row one step shorter than the crossing time cannot fire
    short = batch_first_exceed(bins, np.array([50, t_cross - 1, 0]), table, seeds)
    assert short[1] == 0


def test_ecdd_first_exceed_matches_sequential():
    rng = rng_from(7)
    n_rows, horizon = 40, 600
    errors = (rng.random((n_rows, horizon)) < 0.1).astype(np.uint8)
    p0 = np.full(n_rows, 0.1)
    limit = 2.0
    batch = ecdd_first_exceed(errors, p0, 100.0, 0.2, limit)
    for i in range(n_rows):
        state = ecdd_init(0.1, 0.2, limit, prior_weight=100.0)
        found = 0
        for t in range(1, horizon + 1):
            _, detected = ecdd_update(state, int(errors[i, t - 1]))
            if detected:
                found = t
                break
        assert batch[i] == found


def test_ecdd_limit_calibration_first_exceed_matches_batch():
    # the calibration's running maximum of the required limit gives the
    # same first-exceed times as the chart itself (horizon = never fired)
    rng = rng_from(8)
    errors = (rng.random((30, 400)) < 0.15).astype(np.uint8)
    run_max = _ecdd_run_max(np.ascontiguousarray(errors.T), 0.15, 100.0, 0.2)
    via_run_max = _detection_times(run_max, 2.5)
    direct = ecdd_first_exceed(errors, np.full(30, 0.15), 100.0, 0.2, 2.5)
    assert np.array_equal(via_run_max, np.where(direct > 0, direct, 400))
    assert 0 < int((direct > 0).sum()) < 30  # both outcomes occur


def test_ecdd_run_max_shape_and_monotone_tail():
    errors = np.ones((10, 2), dtype=np.uint8)
    run_max = _ecdd_run_max(errors, 0.3, 50.0, 0.2)
    assert run_max.shape == (10, 2)
    assert run_max.dtype == np.float32
    # all-error streams push the chart statistic monotonically upward
    assert run_max[-1, 0] > run_max[0, 0]
    assert np.all(np.diff(run_max, axis=0) >= 0)


def test_batch_first_exceed_statistic_order_of_operations(small_table):
    # one row, known sequence: the crossing step must match the 1-D
    # kernel call of the online detector exactly, guarding against
    # reordered float operations (strict rule: a gamma = 0 table, so only
    # the statistic decides)
    seq = rng_from(9).integers(16, size=300).astype(np.int16)
    strict = replace(small_table, gamma=np.zeros(small_table.t_max))
    thresholds = strict.head(300)
    batch = batch_first_exceed(seq[None, :], np.array([300]), strict, [0])
    z = uniform_probs(16)
    traj = np.array([ewma_step(z, int(b), 0.03) for b in seq])
    crossings = np.flatnonzero(traj > thresholds)
    expected = int(crossings[0] + 1) if crossings.size else 0
    assert expected > 0
    assert batch[0] == expected
