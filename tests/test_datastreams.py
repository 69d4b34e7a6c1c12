import hashlib
import itertools

import numpy as np
import pytest
from conftest import (cli_streams, reference_iter_csv_stream, two_gaussian_config,
                      write_csv_stream)

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
from driftmon import datastreams
from driftmon.datastreams import BLOCK_BYTES
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


def correlated_config(tau: int) -> GaussianMixtureConfig:
    """Three 8-D classes with correlated covariances, skewed priors and a
    change in class 2's mean and in the covariances of classes 2 and 3."""
    d = 8
    idx = np.arange(d)
    ar = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    means = np.stack([np.zeros(d), np.linspace(0.0, 2.0, d), -np.ones(d)])
    post = means.copy()
    post[1] += 0.75
    return GaussianMixtureConfig(
        means=means, covs=np.stack([ar, 2.0 * ar + np.eye(d), np.diag(1.0 + idx / 4.0)]),
        priors=[0.7, 0.25, 0.05], post_means=post,
        post_covs=np.stack([ar, np.eye(d), 0.5 * ar + 0.5 * np.eye(d)]), tau=tau)


PREFIX_CASES = {  # (config, stream length)
    "correlated-8d": (correlated_config(tau=120), 300),
    "tau-0": (two_gaussian_config(delta=2.0, class2_shift=(0.0, 1.0), tau=0), 300),
    "tau-length": (correlated_config(tau=300), 300),
    "tau-one-short": (two_gaussian_config(delta=2.0, class2_shift=(1.0, 0.0), tau=299), 300),
    "length-1": (correlated_config(tau=0), 1),
}


@pytest.mark.parametrize("case", PREFIX_CASES)
@pytest.mark.parametrize("seed", [0, 31])
def test_take_matches_generate_stream_over_any_increasing_prefixes(case, seed):
    # every row, however the prefixes fall, is the double the whole draw
    # gives, including a lone row of a class in a pass
    cfg, length = PREFIX_CASES[case]
    full = generate_stream(cfg, length, seed)
    rng = rng_from(seed + 1)
    sequences = [range(1, length + 1), [length],
                 [n for n in (1, 2, 3, 5, 64, 256, 257, length) if n <= length],
                 np.unique(rng.integers(1, length + 1, size=12)).tolist() + [length]]
    for ns in sequences:
        draw = datastreams.StreamDraw(cfg, length, seed)
        for n in ns:
            for _ in range(2):  # a prefix taken again is the same prefix
                stream = draw.take(n)
                assert np.array_equal(stream.x, full.x[:n]), (list(ns), n)
                assert np.array_equal(stream.y, full.y[:n])
                assert stream.labeled.all() and len(stream) == n
            assert len(draw.x) == n  # nothing past n was drawn


def test_take_refuses_a_prefix_outside_the_stream():
    draw = datastreams.StreamDraw(two_gaussian_config(), 10, seed=1)
    for n in (0, 11):
        with pytest.raises(ConfigError, match="can take 1..10 rows"):
            draw.take(n)


def test_priors_that_are_nan_are_refused():
    with pytest.raises(ConfigError):
        GaussianMixtureConfig(means=np.zeros((2, 2)), priors=np.array([np.nan, np.nan]))


def draw_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8")
                 .tobytes())
    return h.hexdigest()


# SHA-256 of generate_stream and sample_training outputs for fixed seeds
# (numpy 2.4.6 with OpenBLAS). They pin the draws: a change to numpy or to
# the draw that moves one bit of one row fails here.
GOLDEN_DRAWS = {
    ("stream", "correlated-8d"):
        "8701571299d6e56c0c02e7f886a4f7ce37be4078f0c889bb2738dd02b32838ed",
    ("stream", "two-class"):
        "b5a27d5537a9edb8dcae86f1fa8c4badad36fffee63586b3283a6a73fbd49aa2",
    ("stream", "lone-post-row"):
        "1209b39677bf8ff98b88972292d9177b0d61f8458aeb43cf5838d83ec7e7f7ae",
    ("training", "correlated-8d"):
        "42a68b36d569c397cea965707efe6342e23496ce50281deb9fa40d90f006ab9b",
    ("training", "one-per-class"):
        "cfe34d3f7181636ea0fba4ca5bd1d99c9ca4200a58552794e1147a62322bd9ef",
}


def golden_draws():
    two = two_gaussian_config(delta=2.0, class2_shift=(0.0, 1.5), tau=150)
    seeds = (0, 7, 2**63 + 5)
    yield ("stream", "correlated-8d"), [
        generate_stream(correlated_config(tau=300), 777, s) for s in seeds]
    yield ("stream", "two-class"), [generate_stream(two, 777, s) for s in seeds]
    yield ("stream", "lone-post-row"), [  # each class has at most one post-change row
        generate_stream(correlated_config(tau=776), 777, s) for s in seeds]
    yield ("training", "correlated-8d"), [
        sample_training(correlated_config(tau=0), 97, s) for s in seeds]
    yield ("training", "one-per-class"), [
        sample_training(correlated_config(tau=0), 1, s) for s in seeds]


def test_draws_match_their_golden_digests():
    for key, draws in golden_draws():
        arrays = [a for d in draws for a in ((d.x, d.y) if hasattr(d, "x") else d)]
        assert draw_digest(*arrays) == GOLDEN_DRAWS[key], key


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


def test_labeled_stream_refuses_labels_that_are_not_integers():
    # labels are read as training labels are: 2.7 is refused, not truncated
    with pytest.raises(InputError, match="integers"):
        LabeledStream(x=np.zeros((2, 1)), y=[1.0, 2.7], labeled=[True, True])
    with pytest.raises(InputError, match="integers"):
        LabeledStream(x=np.zeros((2, 1)), y=[1.0, np.nan], labeled=[True, False])
    stream = LabeledStream(x=np.zeros((2, 1)), y=[1.0, 2.0], labeled=[True, True])
    assert stream.y.dtype == np.int64 and stream.y.tolist() == [1, 2]
    stream = LabeledStream(x=np.zeros((2, 1)), y=np.array([3, 1], dtype=np.int32),
                           labeled=[True, False])
    assert stream.y.dtype == np.int64 and stream.y.tolist() == [3, 1]


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


# ---------------------------------------------------------------------------
# The block reader against the per-row reader


def outcome(reader, path, lenient=False):
    """Every row bit for bit, then the error's type and message, if any."""
    rows = []
    try:
        for x, label in reader(path, lenient):
            rows.append((x.dtype.str, x.shape, x.tobytes(), type(label), label))
    except Exception as exc:  # the type and message are compared
        return rows, (type(exc), str(exc))
    return rows, None


def assert_reads_as_per_row(path, lenient=False):
    got = outcome(iter_csv_stream, path, lenient)
    assert got == outcome(reference_iter_csv_stream, path, lenient)
    return got


def write_lines(path, lines, end="\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(line + end for line in lines))


def block_ends(path) -> list[int]:
    """The number of the last line of each block the reader reads."""
    ends = []
    with open(path, newline="", encoding="utf-8") as fh:
        while lines := fh.readlines(BLOCK_BYTES):
            ends.append((ends[-1] if ends else 0) + len(lines))
    return ends


def data_lines(n_rows, seed, d=8):
    """``n_rows`` lines of ``d`` repr features and a label, one in ten unlabeled."""
    rng = rng_from(seed)
    x = rng.standard_normal((n_rows, d)) * 10.0 ** rng.uniform(-3, 3, (n_rows, 1))
    labels = rng.integers(1, 5, n_rows)
    return [",".join([*map(repr, row.tolist()), "" if rng.random() < 0.1 else str(label)])
            for row, label in zip(x, labels)]


@pytest.fixture
def per_row(monkeypatch):
    """The csv rows the reader parses by the per-row rules, in order."""
    seen = []
    parse_rows = datastreams._parse_rows

    def counted(rows):
        for row in rows:
            seen.append(row)
            yield row

    def counting(rows, row_number, width, lenient):
        return (yield from parse_rows(counted(rows), row_number, width, lenient))

    monkeypatch.setattr(datastreams, "_parse_rows", counting)
    return seen


def test_block_reader_matches_on_the_cli_test_csvs(tmp_path):
    # the CSVs the CLI tests monitor (CRLF, by csv.writer), their malformed
    # second rows, and a non-numeric row inserted before every stream row
    path = tmp_path / "cli.csv"
    for stream in cli_streams().values():
        write_csv_stream(stream, path)
        for lenient in (False, True):
            rows, error = assert_reads_as_per_row(path, lenient)
            assert len(rows) == len(stream) and error is None
    for row in ["x,y,1", "1.0,1", "1.0,2.0,3.0,1", "nan,2.0,1"]:
        path.write_text(f"0.5,1.5,1\n{row}\n")
        assert "row 2" in assert_reads_as_per_row(path)[1][1]
    write_csv_stream(cli_streams()["stream"], path)
    lines = path.read_text().splitlines()
    for t in range(len(lines) + 1):
        path.write_text("\n".join(lines[:t] + ["x,1.0,1"] + lines[t:]) + "\n")
        rows, error = assert_reads_as_per_row(path)
        if t == 0:  # a non-numeric first row is a header
            assert len(rows) == len(lines) and error is None
        else:
            assert len(rows) == t and error[1].startswith(f"row {t + 1}:")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("header", [[], ["f1,f2,f3,f4,f5,f6,f7,f8,label"]],
                         ids=["data", "header"])
def test_clean_blocks_skip_the_per_row_rules(tmp_path, per_row, end, header):
    # only a header and the first data row are parsed row by row, in a
    # file of five blocks
    path = tmp_path / "clean.csv"
    write_lines(path, header + data_lines(3000, seed=1), end)
    assert len(block_ends(path)) >= 5
    rows, error = assert_reads_as_per_row(path)
    assert len(rows) == 3000 and error is None
    assert len(per_row) == 1 + len(header)


@pytest.mark.parametrize("bad", ["", ",", ",1", "5", " ", "1,", "1,2,3"])
def test_block_reader_matches_with_one_feature(tmp_path, bad):
    # a width of 2 leaves np.loadtxt one column to read: an empty feature
    # field or a line without a comma must still fail as the csv module does
    path = tmp_path / "narrow.csv"
    values = rng_from(7).standard_normal(9000).tolist()
    lines = [f"{v!r},{i % 3 + 1}" for i, v in enumerate(values)]
    write_lines(path, lines)
    assert [x[0] for x, _ in iter_csv_stream(path)] == values
    row = block_ends(path)[0] + 2
    for edited in (lines[:row] + [bad] + lines[row:], lines[:row] + [bad] * 3 + lines[row:],
                   lines[:row] + [bad]):
        write_lines(path, edited)
        for lenient in (False, True):
            assert_reads_as_per_row(path, lenient)


def test_a_blank_line_leaves_its_block_on_the_block_path(tmp_path, per_row):
    path = tmp_path / "blank.csv"
    lines = data_lines(1500, seed=2)
    write_lines(path, lines)
    first = block_ends(path)[0]
    write_lines(path, lines[:first + 5] + [""] + lines[first + 5:])
    assert len(list(iter_csv_stream(path))) == 1500
    assert len(per_row) == 1  # the first data row alone


@pytest.mark.parametrize("blank", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_blank_lines_match_the_per_row_reader(tmp_path, per_row, end, blank):
    # runs of lines that are only a line ending across both sides of a
    # block end, one inside a block, and one ending the file: the rows of
    # the per-row reader, with no block parsed row by row
    path = tmp_path / "blanks.csv"
    lines = [line + end for line in data_lines(1500, seed=8)]
    path.write_text("".join(lines), newline="")
    first, second = block_ends(path)[:2]
    edited = (lines[:first - 1] + [blank] * 200 + lines[first - 1:second - 9] + [blank]
              + lines[second - 9:] + [blank])
    path.write_text("".join(edited), newline="")
    with open(path, newline="", encoding="utf-8") as fh:
        blocks = list(iter(lambda: fh.readlines(BLOCK_BYTES), []))
    assert blocks[0][-1] in ("\n", "\r\n", "\r") and blocks[1][0] in ("\n", "\r\n", "\r")
    rows, error = assert_reads_as_per_row(path)
    assert len(rows) == 1500 and error is None
    assert len(per_row) == 1
    # a line of spaces is no blank line: it fails as the per-row rules fail
    edited[first + 3] = " " + blank
    path.write_text("".join(edited), newline="")
    assert "expected 9 columns, got 1" in assert_reads_as_per_row(path)[1][1]


def test_bytes_that_are_not_utf8_raise_at_their_row(tmp_path):
    path = tmp_path / "latin1.csv"
    lines = [line.encode() for line in data_lines(1000, seed=9)]
    path.write_bytes(b"\n".join(lines) + b"\n")
    for row in (1, 2, block_ends(path)[0] + 4):
        for bad in (b"\xff" + lines[row - 1], lines[row - 1] + b"\xe9"):
            path.write_bytes(b"\n".join(lines[:row - 1] + [bad] + lines[row:]) + b"\n")
            rows = iter_csv_stream(path)
            assert len(list(itertools.islice(rows, row - 1))) == row - 1
            message = f"row {row}: bytes that are not valid UTF-8"
            with pytest.raises(FormatError, match=message):
                next(rows)
            with pytest.raises(FormatError, match=message):
                read_csv_stream(path)
    # UTF-8 text that is not ASCII reads as before, here a header
    path.write_bytes("f1,f2,f3,f4,f5,f6,f7,f8,étiquette\n".encode() + b"\n".join(lines))
    assert len(list(iter_csv_stream(path))) == 1000


def test_a_quote_sends_the_rest_of_the_file_to_the_csv_module(tmp_path, per_row):
    # a quoted field may span lines, so every row from that block on is
    # parsed by the per-row rules, and the rows come out the same
    path = tmp_path / "quoted.csv"
    lines = data_lines(1500, seed=3)
    write_lines(path, lines)
    first = block_ends(path)[0]
    head, tail = lines[first + 3].split(",", 1)
    quoted = lines[:first + 3] + [f'"{head}",{tail}'] + lines[first + 4:]
    write_lines(path, quoted)
    rows, error = assert_reads_as_per_row(path)
    assert len(rows) == 1500 and error is None
    per_row.clear()
    list(iter_csv_stream(path))
    assert len(per_row) == 1 + 1500 - first
    # a quoted field that holds a line break reads as one field
    write_lines(path, lines[:first + 3] + [f'"{head}\n{head}",{tail}'] + lines[first + 4:])
    rows, error = assert_reads_as_per_row(path)
    assert len(rows) == first + 3 and error[1].startswith(f"row {first + 4}:")


# (name, edit of one data line) at a row on either side of a block boundary
LINE_EDITS = {
    "blank": lambda line: "",
    "quoted-label": lambda line: line.rsplit(",", 1)[0] + ',"2"',
    "wide": lambda line: "0.5," + line,
    "narrow": lambda line: line.split(",", 1)[1],
    "no-comma": lambda line: "5",
    "word": lambda line: "x," + line.split(",", 1)[1],
    "empty-feature": lambda line: "," + line.split(",", 1)[1],
    "nan": lambda line: "nan," + line.split(",", 1)[1],
    "inf": lambda line: "-inf," + line.split(",", 1)[1],
    "overflow": lambda line: "1e400," + line.split(",", 1)[1],
    "underscore": lambda line: "1_0," + line.split(",", 1)[1],
    "arabic-digit": lambda line: "\u0661," + line.split(",", 1)[1],
    "spaces": lambda line: " 1.5 ,\t-2e-3\t," + line.split(",", 2)[2],
    "unicode-space": lambda line: "\u20031.5\u00a0," + line.split(",", 1)[1],
    "separator-space": lambda line: "\x1c1.5\x1f," + line.split(",", 1)[1],
    "lone-cr": lambda line: line + "\r" + line,
    "cr-blank": lambda line: line + "\r\r",
    "label-word": lambda line: line.rsplit(",", 1)[0] + ",bee",
    "label-float": lambda line: line.rsplit(",", 1)[0] + ",2.0",
    "label-spaces": lambda line: line.rsplit(",", 1)[0] + ", 3 ",
    "label-underscore": lambda line: line.rsplit(",", 1)[0] + ",1_0",
    "label-arabic-digit": lambda line: line.rsplit(",", 1)[0] + ",\u0662",
    "label-separator-space": lambda line: line.rsplit(",", 1)[0] + ",3\x1c",
}


@pytest.mark.parametrize("edit", list(LINE_EDITS))
def test_block_reader_matches_around_block_boundaries(tmp_path, edit):
    path = tmp_path / "edited.csv"
    lines = data_lines(1000, seed=4)
    write_lines(path, lines)
    ends = block_ends(path)
    assert len(ends) >= 3
    for row in sorted({1, 2, ends[0] - 1, ends[0], ends[0] + 1, ends[1] + 1, len(lines)}):
        edited = lines[:row - 1] + [LINE_EDITS[edit](lines[row - 1])] + lines[row:]
        for header in ([], ["f1,f2,f3,f4,f5,f6,f7,f8,label"]):
            write_lines(path, header + edited)
            for lenient in (False, True):
                assert_reads_as_per_row(path, lenient)


def test_an_error_is_raised_only_when_its_row_is_reached(tmp_path):
    # the reader runs a block ahead, but a bad row is reported only when
    # the rows before it have been yielded
    path = tmp_path / "late.csv"
    lines = data_lines(1000, seed=5)
    write_lines(path, lines)
    row = block_ends(path)[0] + 7
    write_lines(path, lines[:row - 1] + ["1.0,2.0"] + lines[row:])
    rows = iter_csv_stream(path)
    assert len(list(itertools.islice(rows, row - 1))) == row - 1
    with pytest.raises(FormatError, match=f"row {row}: expected 9 columns, got 2"):
        next(rows)


def test_numbers_read_as_float_reads_them(tmp_path, per_row):
    # 600k tokens (repr, %.17g and %.5e, magnitudes 1e-300 to 1e300) all
    # on the block path give the doubles float() gives
    rng = rng_from(6)
    values = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-300, 300, 200_000)
    tokens = [f(v) for v in values.tolist() for f in (repr, "%.17g".__mod__, "%.5e".__mod__)]
    path = tmp_path / "tokens.csv"
    write_lines(path, [",".join(tokens[i:i + 10]) + ",1" for i in range(0, len(tokens), 10)])
    got = np.array([x for x, _ in iter_csv_stream(path)])
    assert len(per_row) == 1
    expected = np.array([float(t) for t in tokens]).reshape(-1, 10)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
