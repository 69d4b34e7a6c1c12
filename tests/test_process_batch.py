"""``process_batch`` against the per-row path, chunk size by chunk size.

Every stream runs once row by row through ``conftest.reference_process``
(the routing before chunks) and ``process_unlabeled``, and once through
``process_batch`` in chunks of 1, 7, 64 rows and the whole stream. Both
must leave the monitor in the same state and raise at the same row.
"""

import numpy as np
import pytest
from conftest import reference_process

from driftmon import (CdmMonitor, EcddMonitor, InputError, calibrate_thresholds, ecdd_init,
                      fit_cdm, fit_classifier, run_labeled_stream)
from driftmon.cdm import CHUNK_ROWS
from driftmon.seeding import rng_from

CHUNKS = [1, 7, 64, None]  # None: the whole stream in one call
METHODS = ["cdm", "qtewma", "knn", "lda"]
MEANS = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])


def make_monitor(method, small_table, seed, lenient=False):
    rng = rng_from(seed)
    y = np.repeat([1, 2, 3], 64)
    x = MEANS[y - 1] + rng.standard_normal((len(y), 2))
    if method == "cdm":
        return fit_cdm(x, y, small_table, seed=seed, lenient_labels=lenient)
    if method == "qtewma":  # pooled: one detector on 64 rows, all labeled 1
        return fit_cdm(x[::3], np.ones(64, dtype=int), small_table, seed=seed,
                       lenient_labels=lenient)
    return EcddMonitor(fit_classifier(method, x, y, k=5), ecdd_init(0.2, 0.2, limit=3.0))


def make_stream(method, seed, length=300, drift_at=120):
    """A 3-class stream with unlabeled rows whose class 2 moves after ``drift_at``."""
    rng = rng_from(seed)
    y = rng.integers(1, 4, length)
    x = MEANS[y - 1] + rng.standard_normal((length, 2))
    x[(np.arange(length) >= drift_at) & (y == 2)] += [-3.0, 2.5]
    if method == "qtewma":
        y[:] = 1
    labeled = rng.random(length) >= 0.2
    return x, y, labeled


def state(monitor):
    """Everything the oracle compares: the report, the counters and each
    detector's EWMA frequencies (CDM) or the whole chart (ECDD)."""
    if isinstance(monitor, CdmMonitor):
        inner = {m: (d.t, d.z.tolist(), d.detected, d.detection_time)
                 for m, d in monitor.detectors.items()}
    else:
        inner = dict(vars(monitor.state))
    return monitor.report(), monitor.global_t, monitor.detection, inner


def run_rows(monitor, x, y, labeled):
    """Per-row processing; the InputError raised, if any, is returned."""
    try:
        for i in range(len(x)):
            if labeled[i]:
                reference_process(monitor, x[i], int(y[i]))
            else:
                monitor.process_unlabeled(x[i])
    except InputError as exc:
        return type(exc), str(exc)
    return None


def run_chunks(monitor, x, y, labeled, size):
    size = size or len(x)
    try:
        for start in range(0, len(x), size):
            end = start + size
            monitor.process_batch(x[start:end], y[start:end], labeled[start:end])
    except InputError as exc:
        return type(exc), str(exc)
    return None


def assert_chunks_match_rows(method, small_table, seed, x, y, labeled, lenient=False):
    rows = make_monitor(method, small_table, seed, lenient)
    expected = run_rows(rows, x, y, labeled)
    for size in CHUNKS:
        chunked = make_monitor(method, small_table, seed, lenient)
        assert run_chunks(chunked, x, y, labeled, size) == expected, size
        assert state(chunked) == state(rows), size
    return rows, expected


@pytest.mark.parametrize("method", METHODS)
def test_chunks_match_rows_on_clean_streams(method, small_table):
    detected = 0
    for seed in range(6):
        x, y, labeled = make_stream(method, 100 + seed)
        rows, error = assert_chunks_match_rows(method, small_table, seed, x, y, labeled)
        assert error is None
        detected += rows.detection is not None
    assert detected > 0  # the streams reach a detection mid-chunk


@pytest.mark.parametrize("method", METHODS)
def test_chunks_match_rows_with_lenient_unknown_labels(method, small_table):
    x, y, labeled = make_stream(method, 120)
    y[np.random.default_rng(0).random(len(y)) < 0.1] = 7  # no class 7 in training
    rows, error = assert_chunks_match_rows(method, small_table, 3, x, y, labeled, lenient=True)
    assert error is None
    if method in ("cdm", "qtewma"):
        assert rows.skipped_unknown > 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fault", ["nan", "inf", "unseen-label"])
def test_a_rejected_row_raises_at_its_own_row(method, fault, small_table):
    # the stream stops at row 12 (labeled), mid-chunk for 7 and 64; rows
    # before it are processed, so the monitor stands as after row 11
    x, y, labeled = make_stream(method, 130, drift_at=10**6)
    labeled[12] = True
    if fault == "unseen-label":
        y[12] = 7
    else:
        x[12, 1] = np.nan if fault == "nan" else -np.inf
    rows, error = assert_chunks_match_rows(method, small_table, 4, x, y, labeled)
    if fault == "unseen-label" and method in ("knn", "lda"):
        assert error is None  # the chart counts an unknown label as an error
    else:
        assert error is not None and error[0] is InputError
        assert rows.global_t == 12 and rows.detection is None


@pytest.mark.parametrize("method", METHODS)
def test_a_labeled_row_of_another_width_is_refused_at_its_own_row(method, small_table):
    # a chunk 3 wide: the unlabeled rows before the first labeled one pass
    x, y, labeled = make_stream(method, 135, length=20, drift_at=10**6)
    x = np.hstack([x, np.zeros((20, 1))])
    labeled[:5] = [False, False, True, False, True]
    rows, error = assert_chunks_match_rows(method, small_table, 4, x, y, labeled)
    assert error is not None and "3" in error[1]
    assert rows.global_t == 2 and rows.detection is None


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("label", [2.7, 1.9, np.nan, np.inf])
def test_a_label_that_is_not_an_integer_is_rejected_at_its_row(method, label, small_table):
    # labeled row 12 is refused as class_labels refuses its label (it was
    # cast: 2.7 ran as class 2, NaN raised numpy's ValueError); the y of an
    # unlabeled row stays unread, NaN included
    x, y, labeled = make_stream(method, 130, drift_at=10**6)
    y = y.astype(float)
    y[5], labeled[5] = np.nan, False
    y[12], labeled[12] = label, True
    rows = make_monitor(method, small_table, 4)
    assert run_rows(rows, x[:12], y[:12], labeled[:12]) is None and rows.detection is None
    for size in CHUNKS:
        chunked = make_monitor(method, small_table, 4)
        assert run_chunks(chunked, x, y, labeled, size) == (
            InputError, "class labels must be integers"), size
        assert state(chunked) == state(rows), size
    one, fresh = make_monitor(method, small_table, 4), make_monitor(method, small_table, 4)
    with pytest.raises(InputError, match="class labels must be integers"):
        one.process(x[12], label)
    assert state(one) == state(fresh)
    if method in ("cdm", "qtewma"):  # lenient: skipped and counted as an unseen label
        unseen = y.copy()
        unseen[12] = 7
        expected = make_monitor(method, small_table, 4, lenient=True)
        assert run_chunks(expected, x, unseen, labeled, None) is None
        for size in CHUNKS:
            chunked = make_monitor(method, small_table, 4, lenient=True)
            assert run_chunks(chunked, x, y, labeled, size) is None, size
            assert state(chunked) == state(expected), size


@pytest.mark.parametrize("method", METHODS)
def test_rows_after_a_detection_are_not_rejected(method, small_table):
    x, y, labeled = make_stream(method, 140, drift_at=0)
    rows = make_monitor(method, small_table, 5)
    assert run_rows(rows, x, y, labeled) is None and rows.detection is not None
    t_star = rows.detection.t_star
    assert t_star < len(x) - 2
    x[t_star, 0] = np.nan  # the rows after the detection row are all bad
    labeled[t_star:] = True
    y[t_star + 1:] = 7
    for size in CHUNKS:
        chunked = make_monitor(method, small_table, 5)
        assert run_chunks(chunked, x, y, labeled, size) is None, size
        assert state(chunked) == state(rows), size


def test_process_is_a_one_row_batch(small_table):
    x, y, labeled = make_stream("cdm", 150)
    one, batch = make_monitor("cdm", small_table, 6), make_monitor("cdm", small_table, 6)
    for i in range(len(x)):
        if labeled[i]:
            one.process(x[i], int(y[i]))
        else:
            one.process_unlabeled(x[i])
        batch.process_batch(x[i:i + 1], y[i:i + 1], labeled[i:i + 1])
        assert state(one) == state(batch)


class FailingRows:
    """Yields ``rows``, then raises the way a malformed CSV row does."""

    def __init__(self, rows):
        self.rows = rows

    def __iter__(self):
        yield from self.rows
        raise InputError("row 999: malformed")


@pytest.mark.parametrize("method", ["cdm", "knn"])
def test_run_labeled_stream_defers_a_stream_error_past_the_detection(method, small_table):
    x, y, labeled = make_stream(method, 160, drift_at=0)
    pairs = [(x[i], int(y[i]) if labeled[i] else None) for i in range(len(x))]
    rows = make_monitor(method, small_table, 7)
    run_rows(rows, x, y, labeled)
    t_star = rows.detection.t_star
    # the stream fails one row after the detection, within the same chunk
    after = make_monitor(method, small_table, 7)
    assert run_labeled_stream(after, FailingRows(pairs[:t_star + 1])) == rows.detection
    assert state(after) == state(rows)
    # ... and one row before it: the rows read so far are processed first
    before = make_monitor(method, small_table, 7)
    with pytest.raises(InputError, match="row 999"):
        run_labeled_stream(before, FailingRows(pairs[:t_star - 1]))
    assert before.global_t == t_star - 1 and before.detection is None


def test_run_labeled_stream_starts_a_chunk_at_a_width_change(small_table):
    # unlabeled rows of another width pass, as they pass process_unlabeled;
    # a labeled one raises at its row
    x, y, labeled = make_stream("cdm", 170, drift_at=10**6)
    pairs = [(x[i], int(y[i])) for i in range(10)]
    pairs[4] = (np.zeros(3), None)
    monitor = make_monitor("cdm", small_table, 8)
    assert run_labeled_stream(monitor, pairs) is None
    assert monitor.global_t == 10
    pairs[6] = (np.zeros(3), int(y[6]))
    monitor = make_monitor("cdm", small_table, 8)
    with pytest.raises(InputError, match="expected a vector of length 2"):
        run_labeled_stream(monitor, pairs)
    assert monitor.global_t == 6


@pytest.fixture(scope="module")
def quiet_table():
    """A K=16, N=64 table at ARL0 1000: the undrifted 300-row streams below
    reach the rows under test with no false alarm (checked in each test)."""
    return calibrate_thresholds(64, 16, 0.03, 1000.0, t_max=170, replicates=10_000, seed=7)


def by_rows(method, table, seed, pairs):
    """A monitor fed ``pairs`` one by one: ``reference_process`` or
    ``process_unlabeled`` per row."""
    monitor = make_monitor(method, table, seed)
    for x, y in pairs:
        if y is None:
            monitor.process_unlabeled(x)
        else:
            reference_process(monitor, np.asarray(x, dtype=float), y)
    return monitor


def stream_pairs(method, length=300):
    """(x, label) pairs of a stream with no drift; None marks an unlabeled row."""
    x, y, labeled = make_stream(method, 180, length=length, drift_at=10**6)
    return [(x[i], int(y[i]) if labeled[i] else None) for i in range(length)]


@pytest.mark.parametrize("method", ["cdm", "knn"])
def test_run_labeled_stream_splits_a_width_change_across_the_chunk_boundary(
        method, quiet_table):
    # unlabeled rows 127 and 128 are 3 wide: the last row of the first pass
    # and the first of the second
    pairs = stream_pairs(method)
    assert CHUNK_ROWS == 128
    pairs[127] = (np.zeros(3), None)
    pairs[128] = (np.ones(3), None)
    monitor = make_monitor(method, quiet_table, 9)
    assert run_labeled_stream(monitor, pairs) is None
    assert monitor.global_t == 300
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs))
    pairs[128] = (np.ones(3), 1)  # labeled, it raises at its own row
    monitor = make_monitor(method, quiet_table, 9)
    with pytest.raises(InputError, match="got 3"):
        run_labeled_stream(monitor, pairs)
    assert monitor.global_t == 128
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs[:128]))


@pytest.mark.parametrize("method", ["cdm", "knn"])
@pytest.mark.parametrize("passes", [1, 2])
def test_run_labeled_stream_on_whole_chunks(method, passes, quiet_table):
    pairs = stream_pairs(method, length=passes * CHUNK_ROWS)
    monitor = make_monitor(method, quiet_table, 9)
    assert run_labeled_stream(monitor, iter(pairs)) is None
    assert monitor.global_t == passes * CHUNK_ROWS
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs))


def test_run_labeled_stream_passes_a_zero_width_unlabeled_row(quiet_table):
    pairs = stream_pairs("cdm")
    pairs[20] = (np.zeros(0), None)
    monitor = make_monitor("cdm", quiet_table, 9)
    assert run_labeled_stream(monitor, pairs) is None
    assert state(monitor) == state(by_rows("cdm", quiet_table, 9, pairs))


@pytest.mark.parametrize("method,message", [("cdm", "expected a vector of length 2, got 0"),
                                            ("knn", "expected 2 features, got 0")])
def test_run_labeled_stream_rejects_a_zero_width_labeled_row(method, message, quiet_table):
    pairs = stream_pairs(method)
    pairs[20] = (np.zeros(0), 1)
    monitor = make_monitor(method, quiet_table, 9)
    with pytest.raises(InputError, match=message):
        run_labeled_stream(monitor, pairs)
    assert monitor.global_t == 20
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs[:20]))


@pytest.mark.parametrize("method", ["cdm", "knn"])
@pytest.mark.parametrize("row,error", [(("abc", 1), "could not convert string to float"),
                                       ((np.zeros(2), 1, 0), "too many values to unpack"),
                                       ((np.zeros(2),), "not enough values to unpack")])
def test_run_labeled_stream_defers_a_row_it_cannot_read(method, row, error, quiet_table):
    # a row that is not floats, or not a pair, fails as a stream error does:
    # after the 50 rows before it are processed
    pairs = stream_pairs(method)
    pairs[50] = row
    monitor = make_monitor(method, quiet_table, 9)
    with pytest.raises(ValueError, match=error):
        run_labeled_stream(monitor, pairs)
    assert monitor.global_t == 50
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs[:50]))


@pytest.mark.parametrize("method", ["cdm", "knn"])
def test_run_labeled_stream_processes_every_width_before_a_stream_error(method, quiet_table):
    # the pass that reads the stream error holds three runs of one width
    pairs = stream_pairs(method)[:CHUNK_ROWS + 100]
    pairs[CHUNK_ROWS + 40] = (np.zeros(3), None)
    monitor = make_monitor(method, quiet_table, 9)
    with pytest.raises(InputError, match="row 999"):
        run_labeled_stream(monitor, FailingRows(pairs))
    assert monitor.global_t == len(pairs)
    assert state(monitor) == state(by_rows(method, quiet_table, 9, pairs))
