import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_ecdd_fires, reference_ecdd_step, reference_knn_predict

from driftmon import (ConfigError, EcddMonitor, InputError, cross_val_error, ecdd_init,
                      ecdd_update, fit_classifier, run_labeled_stream)
from driftmon import ecdd
from driftmon.ecdd import KnnClassifier, LdaClassifier
from driftmon.engine import ecdd_first_exceed
from driftmon.seeding import rng_from


def test_init_state():
    state = ecdd_init(0.3, 0.2, 2.0)
    assert state.u == pytest.approx(0.3)
    assert state.n_seen == 0
    assert not state.detected


def test_init_validation():
    with pytest.raises(ConfigError):
        ecdd_init(-0.1, 0.2, 2.0)
    with pytest.raises(ConfigError):
        ecdd_init(0.1, 0.0, 2.0)
    with pytest.raises(ConfigError):
        ecdd_init(0.1, 0.2, -1.0)
    for prior_weight in (-5.0, np.nan, np.inf):  # an infinite weight made p NaN
        with pytest.raises(ConfigError, match="prior_weight"):
            ecdd_init(0.1, 0.2, 2.0, prior_weight=prior_weight)


def test_update_recursion_and_sigma():
    state = ecdd_init(0.5, 0.2, limit=100.0, prior_weight=100.0)
    u, detected = ecdd_update(state, 1)
    assert u == pytest.approx(0.8 * 0.5 + 0.2 * 1.0)
    assert not detected
    # sigma_1 from the chart variance formula at the running estimate
    p = (100.0 * 0.5 + 1) / 101.0
    sigma = math.sqrt(p * (1 - p) * (0.2 / 1.8) * (1 - 0.8**2))
    assert sigma == pytest.approx(0.1, abs=2e-3)
    # boundary check: a limit just below (u-p)/sigma detects, just above does not
    needed = (u - p) / sigma
    s_lo = ecdd_init(0.5, 0.2, limit=needed - 1e-9, prior_weight=100.0)
    s_hi = ecdd_init(0.5, 0.2, limit=needed + 1e-9, prior_weight=100.0)
    assert ecdd_update(s_lo, 1)[1]
    assert not ecdd_update(s_hi, 1)[1]


def test_zero_error_stream_never_detects():
    state = ecdd_init(0.0, 0.2, limit=1.0, prior_weight=0.0)
    for _ in range(500):
        u, detected = ecdd_update(state, 0)
        assert u == 0.0
        assert not detected


def test_zero_sigma_never_fires():
    # with no prior weight a correct first prediction gives p = 0 and
    # sigma = 0 while u = 0.8 p0 > 0: the limit calibration counts such a
    # chart as not firing, and so must the online and the batch chart
    state = ecdd_init(0.1, 0.2, 3.0, prior_weight=0.0)
    u, detected = ecdd_update(state, 0)
    assert u == pytest.approx(0.08)
    assert not detected
    assert ecdd_first_exceed(np.zeros((1, 5), dtype=np.uint8), 0.1, 0.0, 0.2, 3.0)[0] == 0


def test_update_gives_the_doubles_of_the_per_step_reference():
    # u and the error count at every step, and the step the chart fires
    # at, are those of the chart step written as one expression per value
    errors = (rng_from(44).random(3000) < 0.2).astype(int).tolist()
    for r, prior_weight, limit in ((0.2, 100.0, 3.0), (0.05, 0.0, 2.5), (0.2, 100.0, 1e9)):
        state = ecdd_init(0.1, r, limit, prior_weight=prior_weight)
        u, err_sum, fired = 0.1, 0.0, None
        for t, error in enumerate(errors, start=1):
            u, err_sum, p, sigma = reference_ecdd_step(u, err_sum, error, t, 0.1,
                                                       prior_weight, r)
            assert ecdd_update(state, error) == (u, bool(reference_ecdd_fires(u, p, sigma,
                                                                              limit)))
            assert state.err_sum == err_sum
            if state.detected:
                fired = t
                break
        assert (fired is None) == (limit == 1e9)


def test_update_rejects_non_binary():
    state = ecdd_init(0.1, 0.2, 2.0)
    with pytest.raises(InputError):
        ecdd_update(state, 2)


def test_chart_freezes_after_detection():
    state = ecdd_init(0.1, 0.2, limit=0.5)
    while not state.detected:
        ecdd_update(state, 1)
    t_star, u_star = state.detection_time, state.u
    u, detected = ecdd_update(state, 0)
    assert detected and u == u_star
    assert state.detection_time == t_star


def test_one_sided_rule_ignores_error_decrease():
    # error rate drops at tau: detections stay rare within the horizon
    rng = rng_from(42)
    tau, horizon, reps = 100, 1500, 200
    errors = np.empty((reps, horizon), dtype=np.uint8)
    errors[:, :tau] = rng.random((reps, tau)) < 0.1
    errors[:, tau:] = rng.random((reps, horizon - tau)) < 0.05
    det = ecdd_first_exceed(errors, np.full(reps, 0.1), 100.0, 0.2, limit=6.0)
    assert (det > 0).mean() < 0.05


def test_error_increase_detected_quickly():
    rng = rng_from(43)
    tau, horizon, reps = 100, 1500, 200
    errors = np.empty((reps, horizon), dtype=np.uint8)
    errors[:, :tau] = rng.random((reps, tau)) < 0.1
    errors[:, tau:] = rng.random((reps, horizon - tau)) < 0.9
    det = ecdd_first_exceed(errors, np.full(reps, 0.1), 100.0, 0.2, limit=4.0)
    assert np.all(det > 0)  # no run survives the jump undetected
    fired = det[det > tau]
    assert len(fired) >= 0.9 * reps  # the rest are pre-change false alarms
    assert (fired - tau).mean() < 20


# ---------------------------------------------------------------------------
# classifiers


def two_class_data(delta, n=200, seed=0, dim=2):
    rng = rng_from(seed)
    x = np.vstack([rng.standard_normal((n, dim)),
                   rng.standard_normal((n, dim)) + [delta] + [0.0] * (dim - 1)])
    y = np.repeat([1, 2], n)
    return x, y


def test_knn_k1_memorizes_training():
    x, y = two_class_data(4.0, n=50, seed=1)
    clf = fit_classifier("knn", x, y, k=1)
    assert np.array_equal(clf.predict(x), y)


def test_knn_distance_ties_break_by_training_index():
    train_x = np.array([[0.0, 1.0], [0.0, -1.0]])  # equidistant from origin
    train_y = np.array([2, 1])
    clf = KnnClassifier(1).fit(train_x, train_y)
    assert clf.predict(np.zeros((1, 2)))[0] == 2  # earlier row wins


def test_knn_vote_ties_break_to_smallest_label():
    train_x = np.array([[0.0, 1.0], [0.0, -1.0]])
    train_y = np.array([2, 1])
    clf = KnnClassifier(2).fit(train_x, train_y)
    assert clf.predict(np.zeros((1, 2)))[0] == 1


def test_knn_predict_memory_is_bounded_by_the_training_size():
    # the temporaries of one chunk are bounded by n_train x d, not n_train
    # alone: 5k rows against 512 x 8 training (137 MB at a bound of n_train)
    rng = rng_from(4)
    clf = KnnClassifier(5).fit(rng.standard_normal((512, 8)), rng.integers(1, 4, size=512))
    x = rng.standard_normal((5000, 8))
    tracemalloc.start()
    try:
        batch = clf.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # no temporary above KNN_BLOCK = 2^18 elements (2 MB)
    assert np.array_equal(batch, [clf.predict(row[None])[0] for row in x])


def knn_dataset(case, rng):
    """(train_x, train_y, k, queries) of one kind of kNN input.

    The feature count cycles through 1, 8 and 9: numpy's pairwise sum
    takes another path past 8 terms, so each must meet the reference.
    """
    d = int(rng.choice([1, 8, 9]))
    n = int(rng.integers(12, 200))
    k = int(rng.integers(1, 15))
    if case == "continuous":
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        train = rng.standard_normal((n, d)) * scale + rng.uniform(-5.0, 5.0) * scale
        queries = rng.standard_normal((150, d)) * scale + train.mean(axis=0)
    elif case == "grid":  # many rows at equal distances: ties by training index
        train = rng.integers(-2, 3, (n, d)).astype(float)
        queries = rng.integers(-2, 3, (150, d)) + rng.choice([0.0, 0.5], (150, d))
    elif case == "duplicates":  # queries on training rows: distance 0
        train = np.round(rng.standard_normal((n, d)), 1)
        queries = train[rng.integers(0, n, 150)]
        queries[::3] += rng.standard_normal((50, d)) * 1e-9
    elif case == "k-extremes":
        k = 1 if rng.random() < 0.5 else n
        train = rng.standard_normal((n, d))
        train[rng.random(n) < 0.3] = 0.0
        queries = rng.standard_normal((150, d))
    elif case == "near-ties":
        # every row is the centre plus a signed permutation of one offset,
        # all stored exactly: one distance from the centre in exact
        # arithmetic, a few ulps apart as summed, so the k-th place falls
        # in a near-tie, and the screen's rounding error (||x||^2 up to
        # ~1e9) is far larger than the gaps
        centre = rng.integers(-10**4, 10**4, d).astype(float)
        offset = np.round(rng.standard_normal(d) * 2.0**30) / 2.0**30
        signs = rng.choice([-1.0, 1.0], (n, d))
        train = centre + signs * rng.permuted(np.tile(offset, (n, 1)), axis=1)
        queries = np.vstack([np.tile(centre, (50, 1)),
                             centre + rng.standard_normal((50, d)) * 2.0**-20,
                             train[rng.integers(0, n, 50)]])
    else:  # "huge": squared norms near overflow fall back to the full sort
        high = 10.0 ** rng.choice([140.0, 200.0])
        train = rng.standard_normal((n, d)) * high
        queries = np.vstack([rng.standard_normal((50, d)) * 1e200,
                             rng.standard_normal((50, d)) * 1e154,
                             rng.standard_normal((50, d)) * high])
    labels = rng.integers(1, 4, n)
    labels[:2] = [1, 2]
    return train, labels, min(k, n), queries


@pytest.mark.parametrize("case", ["continuous", "grid", "duplicates", "k-extremes", "huge",
                                  "near-ties"])
def test_knn_predict_matches_the_full_sort(case):
    # 6 x 48 = 288 datasets, each predicted in one call and by a full sort
    rng = rng_from(40)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(48):
            train, labels, k, queries = knn_dataset(case, rng)
            clf = KnnClassifier(k).fit(train, labels)
            assert np.array_equal(clf.predict(queries),
                                  reference_knn_predict(train, labels, k, queries))


def perfbench_monitor_training(seed):
    """The training set of perfbench's ``monitor`` workload at ``seed``."""
    here = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", here / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(here))  # workloads.py imports reference.py by name
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(here))
        del sys.modules[spec.name]
    return workloads.ref.monitor_inputs(seed, workloads.MONITOR["full"])[0]


def test_cross_val_error_is_unchanged_on_the_monitor_training_set(monkeypatch):
    x, y = perfbench_monitor_training(1)
    p0 = cross_val_error("knn", x, y, seed=0, k=9)
    monkeypatch.setattr(KnnClassifier, "predict", lambda self, q: reference_knn_predict(
        self.train_x, self.train_y, self.k, q))
    assert p0 == cross_val_error("knn", x, y, seed=0, k=9)


def test_knn_k_too_large():
    x, y = two_class_data(2.0, n=3, seed=2)
    with pytest.raises(ConfigError):
        fit_classifier("knn", x, y, k=100)


@pytest.mark.parametrize("kind", ["knn", "lda"])
def test_classifier_training_refuses_a_non_finite_feature(kind):
    x, y = two_class_data(3.0, n=50, seed=4)
    x[7, 1] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        fit_classifier(kind, x, y)


@pytest.mark.parametrize("kind", ["knn", "lda"])
def test_classifier_training_refuses_a_non_integral_label(kind):
    x, y = two_class_data(3.0, n=50, seed=4)
    labels = np.where(y == 2, 2.7, 1.0)
    with pytest.raises(InputError, match="labels must be integers"):
        fit_classifier(kind, x, labels)
    with pytest.raises(InputError, match="labels must be integers"):
        cross_val_error(kind, x, labels)
    # integral floats are the labels they spell
    assert np.array_equal(fit_classifier(kind, x, y.astype(float)).predict(x),
                          fit_classifier(kind, x, y).predict(x))


def test_classifier_needs_two_classes():
    x = rng_from(3).standard_normal((20, 2))
    with pytest.raises(ConfigError):
        fit_classifier("lda", x, np.ones(20, dtype=int))
    with pytest.raises(ConfigError):
        fit_classifier("tree", *two_class_data(2.0))


def test_predict_rejects_a_width_mismatch():
    x, y = two_class_data(2.0)
    for kind in ("knn", "lda"):
        clf = fit_classifier(kind, x, y)
        for bad in ([1.0], [1.0, 2.0, 3.0], np.zeros((4, 3))):
            with pytest.raises(InputError, match="features"):
                clf.predict(bad)


def test_lda_separates_distant_classes():
    x, y = two_class_data(4.0, n=500, seed=4)
    clf = fit_classifier("lda", x, y)
    assert (clf.predict(x) != y).mean() < 0.05


def test_lda_affine_invariance():
    x, y = two_class_data(2.0, n=300, seed=5)
    test = rng_from(6).standard_normal((200, 2)) + [1.0, 0.0]
    w = np.array([[2.0, 0.5], [-0.3, 1.5]])
    shift = np.array([5.0, -7.0])
    plain = fit_classifier("lda", x, y).predict(test)
    mapped = fit_classifier("lda", x @ w.T + shift, y).predict(test @ w.T + shift)
    assert np.array_equal(plain, mapped)


def test_lda_scores_a_row_alone_as_inside_a_chunk():
    # a one-row product runs as a matrix-vector product: at d = 2, M = 4
    # many rows scored that way differ in the last bit
    rng = rng_from(8)
    means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    y = np.repeat([1, 2, 3, 4], 100)
    clf = fit_classifier("lda", means[y - 1] + rng.standard_normal((400, 2)), y)
    chunk = rng.standard_normal((300, 2)) * 2.0 + 1.5
    scores = clf._scores(chunk)
    for row, expected in zip(chunk, scores):
        assert clf._scores(row).tobytes() == expected.tobytes()
    assert np.array_equal(clf.predict(chunk), [clf.predict(row)[0] for row in chunk])


def test_lda_handles_degenerate_covariance():
    rng = rng_from(7)
    base = rng.standard_normal((100, 1))
    x = np.hstack([base, base])  # rank-1 pooled covariance
    y = (base[:, 0] > 0).astype(int) + 1
    clf = fit_classifier("lda", x, y)
    assert (clf.predict(x) != y).mean() < 0.05


def test_cross_val_error_is_deterministic_and_bounded():
    x, y = two_class_data(2.0, n=100, seed=8)
    a = cross_val_error("lda", x, y, seed=9)
    b = cross_val_error("lda", x, y, seed=9)
    c = cross_val_error("knn", x, y, seed=9, k=9)
    assert a == b
    assert 0.0 <= a <= 1.0 and 0.0 <= c <= 1.0
    # delta=2 overlap: both classifiers land near the Gaussian overlap rate
    assert 0.05 < a < 0.3 and 0.05 < c < 0.3


def reference_cross_val_error(kind, x, y, seed, k=9):
    """Stratified folds as ``cross_val_error`` draws them, each fold fitted
    through ``fit_classifier`` and all of its checks."""
    rng = rng_from(seed)
    folds = np.empty(len(y), dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        folds[idx] = np.arange(len(idx)) % 5
    errors = 0
    for f in range(5):
        test = folds == f
        clf = fit_classifier(kind, x[~test], y[~test], k=k)
        errors += int((clf.predict(x[test]) != y[test]).sum())
    return errors / len(y)


@pytest.mark.parametrize("kind", ["knn", "lda"])
def test_cross_val_error_checks_once_and_matches_fold_by_fold_fits(kind, monkeypatch):
    rng = rng_from(12)
    x = rng.standard_normal((203, 3)) + np.repeat([[0.0, 0, 0], [1.5, 0, 0], [0, 1.5, 0]],
                                                   [90, 70, 43], axis=0)
    y = np.repeat([1, 2, 3], [90, 70, 43])
    expected = [reference_cross_val_error(kind, x, y, seed) for seed in range(4)]
    checks = []
    original = ecdd._training_set
    monkeypatch.setattr(ecdd, "_training_set", lambda *a: checks.append(1) or original(*a))
    assert [cross_val_error(kind, x, y, seed=seed) for seed in range(4)] == expected
    assert len(checks) == 4  # once a call, not once a fold


@pytest.mark.parametrize("kind", ["knn", "lda"])
def test_cross_val_error_refuses_a_fold_left_with_one_class(kind):
    # class 2 has a single row, which lies in fold 0: that fold's training
    # set holds class 1 alone, as fit_classifier on it would refuse
    x, y = two_class_data(2.0, n=40, seed=3)
    keep = np.flatnonzero(y == 1).tolist() + [int(np.flatnonzero(y == 2)[0])]
    x, y = x[keep], y[keep]
    with pytest.raises(ConfigError, match="at least 2 classes"):
        cross_val_error(kind, x, y, k=1)
    # with a third class of two rows, every fold's training set has two
    x3 = np.vstack([x, [[5.0, 5.0], [5.0, 6.0]]])
    y3 = np.concatenate([y, [3, 3]])
    assert cross_val_error(kind, x3, y3, k=1) == reference_cross_val_error(kind, x3, y3, 0, k=1)


def test_monitor_stream_skips_unlabeled_and_reports_global_time():
    x, y = two_class_data(4.0, n=100, seed=10)
    clf = fit_classifier("lda", x, y)
    rng = rng_from(11)
    # labeled samples deliberately mislabeled so every one is an error
    stream = []
    for i in range(200):
        xi = rng.standard_normal(2)
        stream.append((xi, 2 if i % 2 == 0 else None))
    monitor = EcddMonitor(clf, ecdd_init(0.05, 0.2, limit=1.0))
    run_labeled_stream(monitor, iter(stream))
    report = monitor.report()
    assert report["detected"]
    assert report["m_star"] is None
    assert report["t_star"] == 2 * report["n_labeled"] - 1  # unlabeled gaps counted


def test_perfect_classifier_never_detects():
    x, y = two_class_data(6.0, n=100, seed=12)
    clf = fit_classifier("lda", x, y)
    stream = [(x[i], int(y[i])) for i in range(len(x))]
    monitor = EcddMonitor(clf, ecdd_init(0.0, 0.2, limit=2.0, prior_weight=0.0))
    run_labeled_stream(monitor, iter(stream))
    report = monitor.report()
    assert not report["detected"]
    assert report["n_labeled"] == len(x)


@pytest.mark.parametrize("kind", ["knn", "lda"])
def test_rejected_sample_leaves_the_monitor_unchanged(kind):
    x, y = two_class_data(2.0, n=100, seed=14)
    monitor = EcddMonitor(fit_classifier(kind, x, y), ecdd_init(0.1, 0.2, limit=2.0))
    assert monitor.process(x[0], int(y[0])) is None
    monitor.process_unlabeled(x[1])
    before = (monitor.global_t, vars(monitor.state).copy())
    with pytest.raises(InputError, match="expected 2 features"):
        monitor.process(np.zeros(3), 1)
    assert (monitor.global_t, vars(monitor.state)) == before
    assert before[0] == 2 and before[1]["n_seen"] == 1
    assert monitor.detection is None


@pytest.mark.parametrize("kind", ["knn", "lda"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_leaves_the_monitor_unchanged(kind, bad):
    x, y = two_class_data(2.0, n=100, seed=15)
    clf = fit_classifier(kind, x, y)
    with pytest.raises(InputError, match="non-finite"):
        clf.predict(np.array([[bad, 0.0]]))
    monitor = EcddMonitor(clf, ecdd_init(0.1, 0.2, limit=2.0))
    monitor.process(x[0], int(y[0]))
    monitor.process_unlabeled(x[1])
    before = (monitor.global_t, vars(monitor.state).copy())
    with pytest.raises(InputError, match="non-finite"):
        monitor.process(np.array([bad, 0.0]), 1)
    assert (monitor.global_t, vars(monitor.state)) == before
    with pytest.raises(InputError, match="non-finite"):
        monitor.process_batch(np.array([[bad, 0.0], [0.0, 0.0]]), [1, 1], [True, True])
    assert (monitor.global_t, vars(monitor.state)) == before
    assert before[0] == 2 and before[1]["n_seen"] == 1 and monitor.detection is None


class ConstantClassifier:
    def predict(self, x):
        return np.ones(len(np.atleast_2d(x)), dtype=np.int64)


def test_constant_classifier_error_rate_is_half():
    from conftest import two_gaussian_config

    from driftmon.bench import estimate_error_rate

    rate = estimate_error_rate(ConstantClassifier(), two_gaussian_config(2.0), 50_000, seed=13)
    assert rate == pytest.approx(0.5, abs=0.01)
