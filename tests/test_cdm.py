import numpy as np
import pytest

from driftmon import (
    CdmMonitor,
    ConfigError,
    GaussianMixtureConfig,
    InputError,
    QtEwmaDetector,
    bin_counts,
    build_quanttree,
    fit_cdm,
    run_labeled_stream,
    uniform_probs,
)
from driftmon.bench import CdmMethod, estimate_arl0
from driftmon.cdm import class_seed, fit_class_histograms
from driftmon.seeding import rng_from


def make_training(per_class=64, n_classes=2, dim=2, seed=0):
    rng = rng_from(seed)
    xs, ys = [], []
    for m in range(1, n_classes + 1):
        xs.append(rng.standard_normal((per_class, dim)) + 3.0 * m)
        ys.append(np.full(per_class, m))
    return np.vstack(xs), np.concatenate(ys)


def test_fit_builds_one_histogram_per_class(small_table):
    x, y = make_training(per_class=64, n_classes=4)
    monitor = fit_cdm(x, y, small_table, n_bins=16, lam=0.03, seed=10)
    assert monitor.n_classes == 4
    for m, det in monitor.detectors.items():
        counts = bin_counts(det.hist, x[y == m])
        assert counts.tolist() == [4] * 16  # 64 points over 16 bins
        assert det.hist.seed == class_seed(10, m)


def test_class_with_too_few_samples_names_class():
    x, y = make_training(per_class=64, n_classes=2)
    y = y.copy()
    y[y == 2] = 1
    y[:5] = 2  # class 2 keeps only 5 samples
    with pytest.raises(ConfigError, match="class 2"):
        fit_class_histograms(x, y, n_bins=16, seed=0)


def test_labels_must_start_at_one():
    x, _ = make_training()
    with pytest.raises(InputError):
        fit_class_histograms(x, np.zeros(len(x), dtype=int), n_bins=16, seed=0)


def test_m1_reduction_is_bit_identical(small_table):
    # a one-class monitor and a bare detector sharing the histogram seed
    # must agree float-for-float
    for trial in range(5):
        rng = rng_from(500 + trial)
        train = rng.standard_normal((64, 2))
        monitor = fit_cdm(train, np.ones(64, dtype=int), small_table, n_bins=16,
                          lam=0.03, seed=trial)
        hist = build_quanttree(train, uniform_probs(16), class_seed(trial, 1))
        solo = QtEwmaDetector(hist, 0.03, small_table)
        stream = rng.standard_normal((600, 2))
        for t in range(600):
            detection = monitor.process(stream[t], 1)
            _, detected = solo.update(stream[t])
            assert monitor.detectors[1].last_statistic == solo.last_statistic
            if detected:
                assert detection is not None
                assert detection.t_star == solo.detection_time
                break
        else:
            assert monitor.detection is None and not solo.detected


def test_per_class_isolation(small_table):
    # interleaving other-class samples never touches detector m's state
    x, y = make_training(per_class=64, n_classes=2, seed=3)
    stream = rng_from(4).standard_normal((300, 2))
    labels = rng_from(5).integers(1, 3, size=300)

    mon_a = fit_cdm(x, y, small_table, n_bins=16, seed=6)
    for t in range(300):
        mon_a.process(stream[t], int(labels[t]))
        if mon_a.detection:
            break

    # same class-1 subsequence, class-2 samples squeezed out entirely
    mon_b = fit_cdm(x, y, small_table, n_bins=16, seed=6)
    mask = labels == 1
    for xi in stream[mask][: mon_a.detectors[1].t]:
        mon_b.process(xi, 1)
    assert np.array_equal(mon_a.detectors[1].z, mon_b.detectors[1].z)
    assert mon_a.detectors[1].last_statistic == mon_b.detectors[1].last_statistic


def test_thresholds_indexed_by_class_counter(small_table):
    # heavily unbalanced labels: the rarely-seen class compares its
    # statistic against early thresholds even late in the stream
    x, y = make_training(per_class=64, n_classes=2, seed=7)
    monitor = fit_cdm(x, y, small_table, n_bins=16, seed=8)
    rng = rng_from(9)
    for t in range(100):
        label = 2 if t % 50 == 49 else 1
        monitor.process(rng.standard_normal(2) + 3.0 * label, label)
        if monitor.detection:
            break
    counts = monitor.class_counts()
    assert counts[1] + counts[2] == monitor.global_t
    assert counts[2] <= 2
    det2 = monitor.detectors[2]
    assert det2.thresholds.at(det2.t if det2.t else 1) == small_table.at(max(det2.t, 1))


def test_unseen_label_strict_and_lenient(small_table):
    x, y = make_training()
    strict = fit_cdm(x, y, small_table, n_bins=16, seed=11)
    with pytest.raises(InputError):
        strict.process(np.zeros(2), 7)
    lenient = fit_cdm(x, y, small_table, n_bins=16, seed=11, lenient_labels=True)
    assert lenient.process(np.zeros(2), 7) is None
    assert lenient.skipped_unknown == 1
    assert lenient.global_t == 1


def test_rejected_samples_leave_monitor_unchanged(small_table):
    # a NaN sample, a wrong-dimension sample and an unseen label under the
    # strict rule are all rejected before global time or any detector moves
    x, y = make_training()
    monitor = fit_cdm(x, y, small_table, n_bins=16, seed=11)
    assert monitor.process(x[0], 1) is None
    z_before = {m: det.z.copy() for m, det in monitor.detectors.items()}
    for sample, label in [(np.array([np.nan, 0.0]), 1), (np.zeros(3), 2), (x[0], 7)]:
        with pytest.raises(InputError):
            monitor.process(sample, label)
    assert monitor.global_t == 1
    assert monitor.class_counts() == {1: 1, 2: 0}
    for m, det in monitor.detectors.items():
        assert np.array_equal(det.z, z_before[m])
    assert monitor.detection is None and monitor.skipped_unknown == 0


def test_unlabeled_samples_only_advance_global_time(small_table):
    x, y = make_training()
    monitor = fit_cdm(x, y, small_table, n_bins=16, seed=12)
    z_before = {m: d.z.copy() for m, d in monitor.detectors.items()}
    for _ in range(50):
        assert monitor.process_unlabeled(np.zeros(2)) is None
    assert monitor.global_t == 50
    assert monitor.class_counts() == {1: 0, 2: 0}
    for m, d in monitor.detectors.items():
        assert np.array_equal(d.z, z_before[m])
    assert monitor.detection is None


def test_detection_is_idempotent(small_table):
    x, y = make_training(seed=13)
    monitor = fit_cdm(x, y, small_table, n_bins=16, seed=14)
    rng = rng_from(15)
    detection = None
    while detection is None:
        detection = monitor.process(rng.standard_normal(2) + 50.0, 1)
    frozen_t = monitor.global_t
    again = monitor.process(rng.standard_normal(2), 2)
    assert again is detection
    assert monitor.global_t == frozen_t
    report = monitor.report()
    assert report["detected"] and report["t_star"] == detection.t_star
    assert report["m_star"] == detection.m_star == 1


def test_run_labeled_stream_with_unlabeled_gaps(small_table):
    x, y = make_training(seed=16)
    monitor = fit_cdm(x, y, small_table, n_bins=16, seed=17)
    rng = rng_from(18)
    far = rng.standard_normal((400, 2)) + 50.0
    stream = [(far[i], 1 if i % 2 == 0 else None) for i in range(400)]
    detection = run_labeled_stream(monitor, stream)
    assert detection is not None
    assert detection.m_star == 1
    # global time counts the skipped samples too
    assert detection.t_star == 2 * monitor.detectors[1].t - 1


def test_monitor_requires_detectors():
    with pytest.raises(ConfigError):
        CdmMonitor({})


def test_drifted_class_attribution(small_table):
    cfg = GaussianMixtureConfig(
        means=np.array([[0.0, 0.0], [4.0, 0.0]]),
        post_means=np.array([[0.0, 0.0], [4.0, 3.0]]),
        tau=20,
    )
    hits = 0
    detections = 0
    for i in range(30):
        rng = rng_from(700 + i)
        train = np.vstack([rng.standard_normal((64, 2)),
                           rng.standard_normal((64, 2)) + [4.0, 0.0]])
        labels = np.repeat([1, 2], 64)
        monitor = fit_cdm(train, labels, small_table, n_bins=16, seed=800 + i)
        from driftmon import generate_stream

        stream = generate_stream(cfg, 600, seed=900 + i)
        detection = run_labeled_stream(monitor, stream)
        if detection and detection.t_star > cfg.tau:
            detections += 1
            hits += detection.m_star == 2
    # target-50 table: a fair share of runs alarm before tau=20 and are
    # discarded; among valid detections attribution should favor class 2
    assert detections > 15
    assert hits / detections >= 0.8


def test_arl0_preserved_across_label_marginals(small_table):
    # per-class thresholds index class-local time, so the empirical mean
    # detection time barely moves between balanced and 90/10 labels
    method = CdmMethod(table=small_table, n_bins=16, lam=0.03, train_per_class=64)
    means = []
    for priors in ([0.5, 0.5], [0.9, 0.1]):
        cfg = GaussianMixtureConfig(
            means=np.array([[0.0, 0.0], [3.0, 0.0]]), priors=np.array(priors)
        )
        report = estimate_arl0(method, cfg, 400, 500, seed=1234)
        assert report.censored == 0
        means.append(report.mean)
    assert abs(means[0] - means[1]) / means[0] < 0.15
