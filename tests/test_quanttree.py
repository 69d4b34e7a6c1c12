import numpy as np
import pytest
from conftest import bin_counts, reference_quanttree_splits, tree_batch_training_counts

from driftmon import (
    ConfigError,
    InputError,
    build_quanttree,
    locate_bin,
    locate_bins,
)
from driftmon.quanttree import uniform_probs
from driftmon.seeding import rng_from


def test_uniform_probs_sums_to_one():
    pi = uniform_probs(16)
    assert pi.shape == (16,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_allocation_256_16():
    training = rng_from(2).random((256, 1))
    hist = build_quanttree(training, 16, seed=4)
    assert bin_counts(hist, training).tolist() == [16] * 16


def test_training_counts_match_allocation():
    # the generic builder and calibration's vectorized 1-D builder hold
    # the same bin counts, N/K rounded (sorted: the 1-D builder numbers
    # its bins by interval, not by split)
    rng = rng_from(3)
    for n_train, n_bins in [(256, 16), (100, 7), (64, 3), (50, 16), (1000, 32)]:
        training = rng.standard_normal((n_train, 2))
        counts = bin_counts(build_quanttree(training, n_bins, seed=5), training)
        assert sorted(counts.tolist()) == tree_batch_training_counts(n_train, n_bins, 6).tolist()
        assert counts.sum() == n_train
        assert set(counts.tolist()) <= {n_train // n_bins, -(-n_train // n_bins)}


def test_half_integer_allocation():
    # the second bin's share 7 * (1/3) / (2/3) evaluates to 3.4999999999999996
    # in floats and rounds to 3; an exact 7 / 2 would round to 4: 3, 4, 3
    training = rng_from(7).standard_normal((10, 2))
    hist = build_quanttree(training, 3, seed=8)
    assert bin_counts(hist, training).tolist() == [3, 3, 4]
    assert tree_batch_training_counts(10, 3, 9).tolist() == [3, 3, 4]  # sorted


@pytest.mark.parametrize("kind", ["continuous", "rounded", "poisson", "binary-column"])
def test_splits_match_the_per_split_sort(kind):
    # one stable sort per used column, filtered as rows leave, gives the
    # splits of sorting the remaining rows afresh at every split, ties
    # between equal values broken by row in both
    rng = rng_from(40)
    for i in range(60):
        n, d = int(rng.integers(16, 300)), (1, 2, 8)[i % 3]
        n_bins = int(rng.choice([2, 3, 8, 16]))
        x = rng.standard_normal((n, d))
        if kind == "rounded":
            x = np.round(x, 1)
        elif kind == "poisson":
            x = rng.poisson(2.0, (n, d)).astype(float)
        elif kind == "binary-column":
            x[:, 0] = rng.integers(0, 2, n)
        assert build_quanttree(x, n_bins, seed=i).splits == reference_quanttree_splits(x, n_bins, i)


def test_one_dimensional_hand_trace():
    # seed 2 draws direction "lower" on the first split
    training = np.array([1.0, 2.0, 3.0, 4.0])
    hist = build_quanttree(training, 2, seed=2)
    assert hist.n_bins == 2
    split = hist.splits[0]
    assert split.dim == 0
    assert split.direction == "lower"
    assert split.threshold == pytest.approx(2.5)
    assert locate_bin(hist, [1.5]) == 0
    assert locate_bin(hist, [10.0]) == 1
    assert bin_counts(hist, training).tolist() == [2, 2]


def test_duplicate_values_fall_back_to_shared_threshold():
    training = np.array([1.0, 2.0, 2.0, 3.0])
    hist = build_quanttree(training, 2, seed=2)  # direction lower
    assert hist.splits[0].threshold == pytest.approx(2.0)
    # "<=" semantics: the shared value goes to the lower bin
    assert locate_bin(hist, [2.0]) == 0


def test_locate_bins_matches_locate_bin():
    rng = rng_from(11)
    training = rng.standard_normal((128, 3))
    hist = build_quanttree(training, 8, seed=13)
    points = rng.standard_normal((500, 3))
    for k, s in enumerate(hist.splits):  # rows on a threshold: "<=" puts them below
        points[k, s.dim] = s.threshold
    vec = locate_bins(hist, points)
    assert vec.shape == (500,)
    assert vec.tolist() == [locate_bin(hist, p) for p in points]


def test_partition_totality():
    rng = rng_from(21)
    training = rng.standard_normal((64, 2))
    hist = build_quanttree(training, 16, seed=23)
    points = rng.standard_normal((10_000, 2)) * 5
    bins = locate_bins(hist, points)
    assert np.all((0 <= bins) & (bins < 16))


def test_bin_frequencies_track_target_probs():
    rng = rng_from(31)
    training = rng.standard_normal((256, 2))
    hist = build_quanttree(training, 16, seed=33)
    sample = rng.standard_normal((100_000, 2))
    counts = bin_counts(hist, sample)
    assert counts.sum() == 100_000
    pi = 1.0 / 16
    se = np.sqrt(pi * (1 - pi) / 100_000)
    # training is finite, so realized bin probabilities sit a little off
    # pi; allow the binomial band plus that estimation slack
    slack = 3 * np.sqrt(pi * (1 - pi) / 256)
    assert np.all(np.abs(counts / 100_000 - pi) < 3 * se + slack)


def test_monotone_map_invariance_on_training():
    # strictly increasing per-coordinate maps preserve order statistics,
    # so the same seed yields the same tree shape and the same training
    # bin assignments (midpoint thresholds shift, so arbitrary test
    # points are only invariant in distribution, not pointwise)
    rng = rng_from(41)
    training = rng.standard_normal((96, 2))

    def transform(a):
        out = a.copy()
        out[:, 0] = np.exp(a[:, 0])
        out[:, 1] = a[:, 1] ** 3
        return out

    hist = build_quanttree(training, 8, seed=43)
    hist_t = build_quanttree(transform(training), 8, seed=43)
    for s, s_t in zip(hist.splits, hist_t.splits):
        assert s.dim == s_t.dim
        assert s.direction == s_t.direction
    assert np.array_equal(locate_bins(hist, training),
                          locate_bins(hist_t, transform(training)))
    assert np.array_equal(bin_counts(hist, training),
                          bin_counts(hist_t, transform(training)))


def test_determinism():
    rng = rng_from(51)
    training = rng.standard_normal((64, 4))
    a = build_quanttree(training, 8, seed=53)
    b = build_quanttree(training, 8, seed=53)
    assert a.splits == b.splits


def test_empty_dataset_counts():
    training = rng_from(61).standard_normal((32, 2))
    hist = build_quanttree(training, 4, seed=63)
    assert bin_counts(hist, np.empty((0, 2))).tolist() == [0, 0, 0, 0]


def test_build_validation_errors():
    training = rng_from(71).standard_normal((8, 2))
    with pytest.raises(ConfigError):
        build_quanttree(training, 16, seed=1)  # N < K
    with pytest.raises(ConfigError):
        build_quanttree(training, 1, seed=1)  # fewer than 2 bins
    with pytest.raises(ConfigError, match="n_bins must be an integer"):
        build_quanttree(training, 4.0, seed=1)
    assert build_quanttree(training, np.int64(4), seed=1) == build_quanttree(training, 4, seed=1)
    bad = training.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InputError):
        build_quanttree(bad, 4, seed=1)


def test_locate_validation_errors():
    training = rng_from(81).standard_normal((16, 2))
    hist = build_quanttree(training, 4, seed=83)
    with pytest.raises(InputError):
        locate_bin(hist, [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        locate_bin(hist, [np.inf, 0.0])
    with pytest.raises(InputError):
        locate_bins(hist, np.zeros((5, 3)))
