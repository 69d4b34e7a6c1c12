import json
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import two_gaussian_config, write_csv_stream

from driftmon import (
    CdmMethod,
    ConfigError,
    EcddMethod,
    GaussianMixtureConfig,
    LabeledStream,
    calibrate_thresholds,
    estimate_arl0,
    estimate_delay,
    generate_stream,
    grid_cells,
    run_grid_experiment,
    sample_training,
    save_table,
    skl_gaussian,
)
from driftmon import bench
from driftmon.bench import FIRST_ROWS, config_hash
from driftmon.cli import EXIT_OK, main
from driftmon.datastreams import StreamDraw
from driftmon.ecdd import LdaClassifier
from driftmon.seeding import derive_seed
from driftmon.thresholds import ThresholdTable


@pytest.fixture()
def cfg0():
    return GaussianMixtureConfig(means=np.array([[0.0, 0.0], [3.0, 0.0]]))


def test_arl0_report_is_deterministic(small_table, cfg0):
    method = CdmMethod(table=small_table, train_per_class=64)
    a = estimate_arl0(method, cfg0, 100, 500, seed=1)
    b = estimate_arl0(method, cfg0, 100, 500, seed=1)
    assert a.mean == b.mean
    assert a.config_hash == b.config_hash
    assert np.array_equal(a.t_star, b.t_star)
    assert a.metric == "arl0"
    assert a.detections + a.censored == 100


def test_arl0_horizon_precondition(small_table, cfg0):
    method = CdmMethod(table=small_table, train_per_class=64)
    with pytest.raises(ConfigError):
        estimate_arl0(method, cfg0, 10, 400, seed=1)  # < 10x target 50


def test_batch_equals_sequential_cdm(small_table, cfg0):
    method = CdmMethod(table=small_table, train_per_class=64)
    batch = estimate_arl0(method, cfg0, 30, 500, seed=2, engine="batch")
    seq = estimate_arl0(method, cfg0, 30, 500, seed=2, engine="sequential")
    assert np.array_equal(batch.t_star, seq.t_star)
    assert np.array_equal(batch.m_star, seq.m_star)


def test_batch_equals_sequential_pooled(small_table, cfg0):
    method = CdmMethod(table=small_table, train_per_class=32, pooled=True)
    batch = estimate_arl0(method, cfg0, 30, 500, seed=3, engine="batch")
    seq = estimate_arl0(method, cfg0, 30, 500, seed=3, engine="sequential")
    assert np.array_equal(batch.t_star, seq.t_star)


def test_batch_equals_sequential_ecdd(cfg0):
    method = EcddMethod(limit=2.0, classifier="lda", train_per_class=64)
    cfg = GaussianMixtureConfig(
        means=cfg0.means, post_means=np.array([[0.0, 0.0], [1.0, 0.0]]), tau=50
    )
    batch = estimate_delay(method, cfg, 10, seed=4, post_length=400, engine="batch")
    seq = estimate_delay(method, cfg, 10, seed=4, post_length=400, engine="sequential")
    assert np.array_equal(batch.t_star, seq.t_star)


@pytest.mark.parametrize("engine", ["batch", "sequential"])
@pytest.mark.parametrize("fields", [{"limit": -1.0}, {"limit": 2.0, "r": 1.5},
                                    {"limit": 2.0, "prior_weight": -1.0}],
                         ids=["limit", "r", "prior_weight"])
def test_engines_refuse_the_same_ecdd_methods(cfg0, engine, fields):
    method = EcddMethod(classifier="lda", train_per_class=64, **fields)
    cfg = replace(cfg0, tau=20)
    with pytest.raises(ConfigError):
        estimate_delay(method, cfg, 2, seed=1, post_length=50, engine=engine)


@pytest.mark.parametrize("kind", ["cdm", "qtewma", "ecdd"])
def test_sequential_engine_runs_what_the_cli_runs(small_table, tmp_path, capsys, kind):
    """One replicate's training set and stream, written to CSV, give the
    CLI's monitor the sequential engine's t* and m*."""
    cfg = GaussianMixtureConfig(means=np.array([[0.0, 0.0], [3.0, 0.0]]),
                                post_means=np.array([[0.0, 0.0], [1.0, 1.0]]), tau=50)
    method = {"cdm": CdmMethod(table=small_table, train_per_class=64),
              "qtewma": CdmMethod(table=small_table, train_per_class=32, pooled=True),
              "ecdd": EcddMethod(limit=2.0, classifier="lda", train_per_class=64)}[kind]
    seed, i = 11, 1
    seq = estimate_delay(method, cfg, i + 1, seed, post_length=400, engine="sequential")
    assert seq.t_star[i] > 0

    rep_seed = derive_seed(seed, i)
    tx, ty = sample_training(cfg, method.train_per_class, derive_seed(rep_seed, 0))
    write_csv_stream(LabeledStream(x=tx, y=ty, labeled=np.ones(len(ty), bool)),
                     tmp_path / "train.csv")
    write_csv_stream(generate_stream(cfg, seq.horizon, derive_seed(rep_seed, 2)),
                     tmp_path / "stream.csv")
    save_table(small_table, tmp_path / "table.json")
    argv = ["monitor", "--method", kind, "--train", str(tmp_path / "train.csv"),
            "--stream", str(tmp_path / "stream.csv"), "--seed", str(derive_seed(rep_seed, 1))]
    argv += (["--classifier", "lda", "--ecdd-limit", "2.0"] if kind == "ecdd"
             else ["--thresholds", str(tmp_path / "table.json")])
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["t_star"] == seq.t_star[i]
    assert report["m_star"] == (None if seq.m_star is None else seq.m_star[i])


@pytest.fixture()
def drawn(monkeypatch):
    """Rows drawn of each replicate's stream, in the order the replicates are fitted."""
    rows = []

    class CountingDraw(StreamDraw):
        def __init__(self, *args):
            super().__init__(*args)
            self.slot = len(rows)
            rows.append(0)

        def take(self, n):
            stream = super().take(n)
            rows[self.slot] = len(self.x)
            return stream

    monkeypatch.setattr(bench, "StreamDraw", CountingDraw)
    return rows


def engines_agree(estimate, drawn, *args, **kwargs):
    """Run both engines; check they agree and draw only the rows they read.

    A replicate that detects at t* has at most max(FIRST_ROWS, 2 t*) rows
    drawn, one that never detects its whole horizon.
    """
    reports = []
    for engine in ("batch", "sequential"):
        drawn.clear()
        report = estimate(*args, **kwargs, engine=engine)
        assert len(drawn) == report.replicates
        for rows, t in zip(drawn, report.t_star.tolist()):
            assert rows <= max(FIRST_ROWS, 2 * t) if t else rows == report.horizon
        reports.append(report)
    batch, seq = reports
    assert np.array_equal(batch.t_star, seq.t_star)
    assert (batch.m_star is None) == (seq.m_star is None)
    if batch.m_star is not None:
        assert np.array_equal(batch.m_star, seq.m_star)
    return batch


@pytest.fixture(scope="module")
def quiet_table():
    """K=16, N=64 at ARL0 1000: runs alarm past the first pass, or never."""
    return calibrate_thresholds(64, 16, 0.03, 1000.0, t_max=170, replicates=10_000, seed=7)


def quiet_method(kind, table):
    """``kind`` on ``table``; the ECDD limit is as quiet as the table."""
    return {"cdm": CdmMethod(table=table, train_per_class=64),
            "qtewma": CdmMethod(table=table, train_per_class=32, pooled=True, name="qtewma"),
            "ecdd": EcddMethod(limit=4.0, classifier="lda", train_per_class=64)}[kind]


@pytest.mark.parametrize("kind", ["cdm", "qtewma", "ecdd"])
def test_engines_agree_at_tau_0_and_draw_only_what_they_read(quiet_table, cfg0, drawn, kind):
    report = engines_agree(estimate_arl0, drawn, quiet_method(kind, quiet_table), cfg0,
                           12, 10_000, seed=8)
    assert report.tau == 0 and (report.t_star > 2 * FIRST_ROWS).any()


@pytest.mark.parametrize("kind", ["cdm", "qtewma", "ecdd"])
def test_batch_engine_bins_or_classifies_each_drawn_row_once(quiet_table, cfg0, drawn,
                                                             monkeypatch, kind):
    seen = []
    if kind == "ecdd":
        predict = LdaClassifier.predict
        monkeypatch.setattr(LdaClassifier, "predict",
                            lambda self, x: seen.append(len(x)) or predict(self, x))
    else:
        locate = bench.locate_bins
        monkeypatch.setattr(bench, "locate_bins",
                            lambda hist, x: seen.append(len(x)) or locate(hist, x))
    report = estimate_arl0(quiet_method(kind, quiet_table), cfg0, 12, 10_000, seed=8)
    assert (report.t_star > 2 * FIRST_ROWS).any()
    # ECDD's cross-validation classifies each of the 2 x 64 training rows once
    assert sum(seen) == sum(drawn) + (kind == "ecdd") * 12 * 128


@pytest.mark.parametrize("kind", ["cdm", "qtewma", "ecdd"])
def test_engines_agree_on_replicates_that_never_detect(quiet_table, cfg0, drawn, kind):
    # no drift after tau, so alarms are rare: the censored runs go through
    # every pass (256, 512, 1024 and 1200 rows) to the horizon
    report = engines_agree(estimate_delay, drawn, quiet_method(kind, quiet_table),
                           replace(cfg0, tau=100), 10, seed=12, post_length=1100)
    assert report.horizon == 1200 and report.censored > 0
    assert 0 < report.detections + report.false_alarms


def test_delay_excludes_false_alarms(small_table):
    cfg = GaussianMixtureConfig(
        means=np.array([[0.0, 0.0], [3.0, 0.0]]),
        post_means=np.array([[0.0, 0.0], [30.0, 0.0]]),
        tau=60,
    )
    method = CdmMethod(table=small_table, train_per_class=64)
    report = estimate_delay(method, cfg, 200, seed=5, post_length=400)
    # target-50 table: many runs alarm before tau=60 and must be excluded
    assert report.false_alarms > 0
    assert report.detections + report.false_alarms + report.censored == 200
    valid = report.t_star[report.t_star > cfg.tau]
    assert report.mean == pytest.approx((valid - cfg.tau).mean())
    assert report.mean < 50  # the planted shift is blatant


def test_delay_requires_change_point(small_table, cfg0):
    method = CdmMethod(table=small_table, train_per_class=64)
    with pytest.raises(ConfigError):
        estimate_delay(method, cfg0, 10, seed=6)


def test_delay_degenerate_when_no_valid_detection(small_table):
    # unreachable thresholds: nothing ever fires, so no valid delays
    mute = ThresholdTable(
        n_bins=16, lam=0.03, arl0_target=50.0, train_size=64,
        replicates=10_000, seed=0, thresholds=np.array([1e6, 1e6]), gamma=np.zeros(2),
    )
    cfg = GaussianMixtureConfig(means=np.array([[0.0, 0.0], [3.0, 0.0]]), tau=60)
    method = CdmMethod(table=mute, train_per_class=64)
    report = estimate_delay(method, cfg, 15, seed=7, post_length=100)
    assert report.degenerate
    assert report.mean is None
    assert report.censored == 15


def test_grid_cells_lattice():
    cells = grid_cells((2.0, 0.0))
    assert len(cells) == 81
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    assert xs[0] == pytest.approx(0.5) and xs[-1] == pytest.approx(2.5)
    assert ys[0] == pytest.approx(-1.0) and ys[-1] == pytest.approx(1.0)
    assert (2.0, 0.0) in cells
    assert (1.0, 0.0) in cells
    assert (2.0, 1.0) in cells


@pytest.mark.parametrize("nx, ny", [(-1, 9), (9, 0)])
def test_grid_cells_refuse_a_size_below_one(nx, ny):
    with pytest.raises(ConfigError, match="nx >= 1 and ny >= 1"):
        grid_cells((0.0, 0.0), nx=nx, ny=ny)


def test_run_grid_experiment_small(small_table):
    cfg = two_gaussian_config(delta=3.0, tau=30)
    methods = {"cdm": CdmMethod(table=small_table, train_per_class=64)}
    cells = [(3.0, 0.0), (1.0, 0.0)]
    rows = run_grid_experiment(cfg, methods, replicates=40, seed=8, cells=cells,
                               post_length=300)
    assert len(rows) == 2
    by_cell = {(r["mu_x"], r["mu_y"]): r for r in rows}
    drifted = by_cell[(1.0, 0.0)]
    unchanged = by_cell[(3.0, 0.0)]
    assert drifted["failed"] == "" and unchanged["failed"] == ""
    assert drifted["skl"] == pytest.approx(2.0)       # half squared distance
    assert unchanged["skl"] == pytest.approx(0.0)
    assert drifted["p1_minus_p0"] > 0.05              # moved toward class 1
    assert abs(unchanged["p1_minus_p0"]) < 0.01
    assert drifted["mean_delay"] < unchanged["mean_delay"]  # no-change cell idles


def test_grid_marks_failed_cells(small_table):
    cfg = two_gaussian_config(delta=3.0, tau=30)
    # train_per_class mismatching the table's train_size breaks per cell
    bad = CdmMethod(table=small_table, train_per_class=100)
    rows = run_grid_experiment(cfg, {"bad": bad}, replicates=5, seed=9,
                               cells=[(3.0, 0.0)], post_length=100)
    assert rows[0]["failed"] != ""
    assert rows[0]["mean_delay"] is None


def test_grid_requires_cells_and_tau(small_table):
    method = CdmMethod(table=small_table, train_per_class=64)
    with pytest.raises(ConfigError):
        run_grid_experiment(two_gaussian_config(tau=30), {"m": method}, 5, 0, cells=[])
    with pytest.raises(ConfigError, match="drift_class"):
        run_grid_experiment(two_gaussian_config(tau=30), {"m": method}, 5, 0, drift_class=0)
    with pytest.raises(ConfigError):
        run_grid_experiment(two_gaussian_config(), {"m": method}, 5, 0)


def test_grid_skl_reads_the_post_change_covariance(small_table):
    eye = np.eye(2)
    cfg = GaussianMixtureConfig(means=np.array([[0.0, 0.0], [3.0, 0.0]]),
                                post_covs=np.stack([eye, 4.0 * eye]), tau=30)
    method = EcddMethod(limit=3.0, train_per_class=64)
    rows = run_grid_experiment(cfg, {"ecdd": method}, replicates=2, seed=3,
                               cells=[(3.0, 0.0)], post_length=50)
    # the mean stays put and the covariance grows: sKL(N(m, I), N(m, 4I))
    assert rows[0]["skl"] == pytest.approx(1.125)
    assert rows[0]["skl"] == pytest.approx(skl_gaussian(cfg.means[1], eye, (3.0, 0.0), 4 * eye))


@pytest.mark.parametrize("estimate", [
    lambda method, cfg: estimate_arl0(method, cfg, 5, 500, seed=0, engine="bathc"),
    lambda method, cfg: estimate_delay(method, replace(cfg, tau=10), 5, seed=0,
                                       post_length=50, engine="bathc"),
], ids=["arl0", "delay"])
def test_an_unknown_engine_is_refused(small_table, cfg0, estimate):
    with pytest.raises(ConfigError, match="'batch' or 'sequential'"):
        estimate(CdmMethod(table=small_table, train_per_class=64), cfg0)


def test_config_hash_is_stable():
    table = ThresholdTable(
        n_bins=4, lam=0.1, arl0_target=20.0, train_size=8,
        replicates=10_000, seed=0, thresholds=np.array([0.5, 0.5]), gamma=np.zeros(2),
    )
    payload = {"table": table, "arr": np.arange(3), "x": 1.5}
    assert config_hash(payload) == config_hash(dict(reversed(list(payload.items()))))
    assert config_hash(payload) != config_hash({**payload, "x": 2.5})
    # tables that share (K, lambda, ARL0, train_size, seed) but not their
    # thresholds, length or replicate count are different configurations
    for other in (replace(table, thresholds=np.array([0.5, 0.6])),
                  replace(table, thresholds=np.full(3, 0.5), gamma=np.zeros(3)),
                  replace(table, replicates=20_000)):
        assert config_hash({**payload, "table": other}) != config_hash(payload)


def test_config_hash_reads_the_fields_a_user_sets():
    # a mixture keeps its Cholesky factors beside its fields; the hash
    # covers the fields alone, so caching the factors moved no hash
    cfg = GaussianMixtureConfig(means=np.array([[0.0, 0.0], [3.0, 0.0]]), tau=5)
    generate_stream(cfg, 10, seed=0)
    as_set = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    assert config_hash({"cfg": cfg}) == config_hash({"cfg": as_set})
    assert config_hash({"cfg": cfg}) != config_hash({"cfg": replace(cfg, tau=6)})
