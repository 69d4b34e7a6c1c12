import numpy as np
import pytest
from conftest import two_gaussian_config, write_csv_stream

from driftmon import (
    ConfigError,
    FormatError,
    GaussianMixtureConfig,
    InputError,
    LabeledStream,
    generate_stream,
    iter_csv_stream,
    read_csv_stream,
    sample_training,
    skl_gaussian,
)
from driftmon.seeding import rng_from


def test_stream_matches_a_factorization_per_draw():
    # the factors computed once per config give the draws of factorizing
    # each class's covariance at every draw, bit for bit
    cfg = GaussianMixtureConfig(
        means=[[0.0, 0.0], [2.0, 1.0]], covs=[[[2.0, 0.5], [0.5, 1.0]], [[1.0, -0.3], [-0.3, 0.5]]],
        post_means=[[0.0, 1.0], [2.0, 1.0]], post_covs=[[[1.0, 0.0], [0.0, 3.0]], np.eye(2)],
        tau=40,
    )
    stream = generate_stream(cfg, 100, seed=4)
    rng = rng_from(4)
    labels = rng.choice(2, size=100, p=cfg.priors) + 1
    post = np.arange(1, 101) > cfg.tau
    z = rng.standard_normal((100, 2))
    expected = np.empty_like(z)
    for m in (1, 2):
        for is_post in (False, True):
            mask = (labels == m) & (post == is_post)
            mean = (cfg.post_means if is_post else cfg.means)[m - 1]
            cov = (cfg.post_covs if is_post else cfg.covs)[m - 1]
            expected[mask] = mean + z[mask] @ np.linalg.cholesky(cov).T
    assert np.array_equal(stream.y, labels)
    assert np.array_equal(stream.x, expected)


def test_default_two_class_geometry():
    cfg = two_gaussian_config(delta=2.0)
    assert np.array_equal(cfg.means, [[0.0, 0.0], [2.0, 0.0]])
    assert np.allclose(cfg.priors, [0.5, 0.5])
    assert np.array_equal(cfg.covs[0], np.eye(2))


def test_config_validation():
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)), priors=np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)), priors=np.array([-0.2, 1.2]))
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)),
                              covs=np.stack([np.eye(2), -np.eye(2)]))
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)), post_means=np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)), tau=-1)


def test_generate_stream_is_deterministic():
    cfg = two_gaussian_config(delta=2.0, class2_shift=(0.0, 1.0), tau=50)
    a = generate_stream(cfg, 200, seed=1)
    b = generate_stream(cfg, 200, seed=1)
    c = generate_stream(cfg, 200, seed=2)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_generate_stream_validation():
    cfg = two_gaussian_config(tau=100)
    with pytest.raises(ConfigError):
        generate_stream(cfg, 50, seed=1)
    with pytest.raises(ConfigError):
        generate_stream(two_gaussian_config(), 0, seed=1)


def test_class_frequencies_follow_priors():
    cfg = GaussianMixtureConfig(means=np.zeros((3, 2)),
                                priors=np.array([0.5, 0.3, 0.2]))
    stream = generate_stream(cfg, 100_000, seed=3)
    for m, p in zip([1, 2, 3], [0.5, 0.3, 0.2]):
        freq = (stream.y == m).mean()
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / 100_000)


def test_post_change_applies_only_after_tau_and_only_to_drifted_class():
    cfg = two_gaussian_config(delta=2.0, class2_shift=(0.0, 3.0), tau=5000)
    stream = generate_stream(cfg, 10_000, seed=4)
    t = np.arange(1, 10_001)
    pre2 = stream.x[(stream.y == 2) & (t <= 5000)]
    post2 = stream.x[(stream.y == 2) & (t > 5000)]
    assert abs(pre2[:, 1].mean()) < 0.1
    assert abs(post2[:, 1].mean() - 3.0) < 0.1
    # drift locality: class 1 is identically distributed before and after
    pre1 = stream.x[(stream.y == 1) & (t <= 5000)]
    post1 = stream.x[(stream.y == 1) & (t > 5000)]
    pooled_se = np.sqrt(1 / len(pre1) + 1 / len(post1))
    assert np.all(np.abs(pre1.mean(axis=0) - post1.mean(axis=0)) < 4 * pooled_se)


def test_tau_equal_length_is_fully_stationary():
    cfg = two_gaussian_config(delta=2.0, class2_shift=(100.0, 0.0), tau=300)
    stream = generate_stream(cfg, 300, seed=5)
    assert np.all(np.abs(stream.x) < 50)  # post-change shift never applied


def test_sample_training_exact_counts():
    cfg = two_gaussian_config(delta=2.0)
    x, y = sample_training(cfg, 256, seed=6)
    assert x.shape == (512, 2)
    assert (y == 1).sum() == 256 and (y == 2).sum() == 256
    assert abs(x[y == 2, 0].mean() - 2.0) < 0.3


def test_skl_symmetry_and_closed_form():
    mu0, mu1 = np.array([0.0, 0.0]), np.array([1.0, 0.5])
    eye = np.eye(2)
    ab = skl_gaussian(mu0, eye, mu1, eye)
    ba = skl_gaussian(mu1, eye, mu0, eye)
    assert ab == pytest.approx(ba)
    # identity covariances: half the squared mean distance
    assert ab == pytest.approx(0.5 * np.sum((mu1 - mu0) ** 2))
    assert skl_gaussian(mu0, eye, mu0, eye) == pytest.approx(0.0, abs=1e-12)
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert skl_gaussian(mu0, cov, mu1, eye) == pytest.approx(
        skl_gaussian(mu1, eye, mu0, cov)
    )
    with pytest.raises(InputError):
        skl_gaussian(mu0, -eye, mu1, eye)


def test_labeled_stream_iteration():
    stream = LabeledStream(
        x=np.arange(6, dtype=float).reshape(3, 2),
        y=np.array([1, 2, 1]),
        labeled=np.array([True, False, True]),
    )
    pairs = list(stream)
    assert pairs[0][1] == 1
    assert pairs[1][1] is None
    assert pairs[2][1] == 1
    with pytest.raises(InputError):
        LabeledStream(x=np.zeros((3, 2)), y=np.zeros(2), labeled=np.ones(3, bool))


# ---------------------------------------------------------------------------
# CSV round trips


def test_csv_round_trip_with_unlabeled_rows(tmp_path):
    stream = LabeledStream(
        x=np.array([[1.5, -2.25], [0.125, 3.0], [9.0, 0.5]]),
        y=np.array([1, 0, 2]),
        labeled=np.array([True, False, True]),
    )
    path = tmp_path / "stream.csv"
    write_csv_stream(stream, path)
    back = read_csv_stream(path)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.labeled, stream.labeled)
    assert back.y[0] == 1 and back.y[2] == 2


def test_csv_header_auto_detection(tmp_path):
    path = tmp_path / "headered.csv"
    path.write_text("f1,f2,label\n0.5,1.5,1\n2.5,3.5,2\n")
    rows = list(iter_csv_stream(path))
    assert len(rows) == 2
    assert np.array_equal(rows[0][0], [0.5, 1.5])
    assert rows[1][1] == 2


def test_csv_malformed_row_reports_number(tmp_path):
    # every row keeps the first data row's width and finite features
    path = tmp_path / "bad.csv"
    for bad, message in [("2.5,oops,2", "oops"),
                         ("1.0,2.0,3.0,1", "expected 3 columns, got 4"),
                         ("nan,2.0,1", "non-finite"),
                         ("1.0,inf,1", "non-finite")]:
        path.write_text(f"f1,f2,label\n0.5,1.5,1\n{bad}\n")
        with pytest.raises(FormatError, match=f"row 3: .*{message}"):
            list(iter_csv_stream(path))
    path.write_text("1.0\n")
    with pytest.raises(FormatError, match="row 1"):
        list(iter_csv_stream(path))


def test_csv_short_row_reports_number(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("0.5,1.5,1\n2.5\n")
    with pytest.raises(FormatError, match="row 2: expected 3 columns, got 1"):
        list(iter_csv_stream(path))


def test_csv_label_map_and_lenient_mode(tmp_path):
    # labels are integers as written: a token is not mapped, so it is an
    # error, or an unlabeled sample under the lenient rule
    path = tmp_path / "tokens.csv"
    path.write_text("0.5,1.5,1\n2.5,3.5,bee\n4.5,5.5,2\n")
    with pytest.raises(FormatError, match="row 2.*bee"):
        list(iter_csv_stream(path))
    rows = list(iter_csv_stream(path, lenient=True))
    assert [label for _, label in rows] == [1, None, 2]


def test_csv_missing_and_empty_files(tmp_path):
    with pytest.raises(OSError):
        list(iter_csv_stream(tmp_path / "missing.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        read_csv_stream(empty)
