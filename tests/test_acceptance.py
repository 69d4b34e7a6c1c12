"""End-to-end statistical acceptance suite.

Each test exercises one numbered guarantee of the toolkit at desk scale
and prints a single PASS/FAIL line through the conftest reporter. The
full suite takes several minutes: it calibrates two production-size
threshold tables and runs Monte Carlo experiments with thousands of
replicates. All runs are seeded and deterministic.

Criterion 3 checks the per-step false-alarm rate from the very first
step. The monitored statistic takes a single value at t=1 and only a
handful of values for the next few steps, so a strict threshold cannot
realize the target rate there; the randomized rule at the threshold
(fire on a tie with the calibrated probability gamma_t) does.
"""

import json

import numpy as np
import pytest
from conftest import exceedance_z_scores, family_wise_bound, record_criterion

from driftmon import (
    GaussianMixtureConfig,
    LabeledStream,
    QtEwmaDetector,
    build_quanttree,
    calibrate_ecdd_limit,
    calibrate_thresholds,
    fit_cdm,
    replay_exceedance,
    save_table,
    two_gaussian_config,
    uniform_probs,
    write_csv_stream,
)
from driftmon.bench import (
    CdmMethod,
    EcddMethod,
    estimate_arl0,
    estimate_delay,
    estimate_error_rate,
    run_grid_experiment,
)
from driftmon.cdm import class_seed
from driftmon.cli import EXIT_OK, main
from driftmon.ecdd import fit_classifier
from driftmon.engine import ecdd_first_exceed
from driftmon.seeding import rng_from

TARGET = 375.0
PHI_MINUS_1 = 0.15865525393145707  # standard normal CDF at -1


@pytest.fixture(scope="module")
def tab16():
    return calibrate_thresholds(train_size=256, n_bins=16, lam=0.03,
                                arl0_target=TARGET, t_max=1500,
                                replicates=100_000, seed=11)


@pytest.fixture(scope="module")
def tab32():
    return calibrate_thresholds(train_size=512, n_bins=32, lam=0.03,
                                arl0_target=TARGET, t_max=1500,
                                replicates=100_000, seed=11)


@pytest.fixture(scope="module")
def ecdd_limit_bernoulli():
    return calibrate_ecdd_limit(0.1, 0.2, TARGET, replicates=5000, seed=42)


@pytest.fixture(scope="module")
def arl0_single(tab16):
    """Criterion 1 run, shared with criterion 2's coupling check."""
    method = CdmMethod(table=tab16, n_bins=16, train_per_class=128,
                       pooled=True, name="qtewma")
    cfg = two_gaussian_config(delta=2.0)
    return estimate_arl0(method, cfg, 5000, 8000, seed=303)


@pytest.fixture(scope="module")
def delay_runs(tab16, tab32):
    """Criterion 6 runs, shared with criterion 7's attribution check."""
    cfg = two_gaussian_config(delta=2.0, class2_shift=(0.0, 1.0), tau=160)
    cdm = CdmMethod(table=tab16, n_bins=16, train_per_class=256, name="cdm")
    pooled = CdmMethod(table=tab32, n_bins=32, train_per_class=256,
                       pooled=True, name="pooled")
    return {
        "cdm": estimate_delay(cdm, cfg, 1000, seed=31, post_length=7000),
        "pooled": estimate_delay(pooled, cfg, 1000, seed=31, post_length=7000),
        "cdm_arl0": estimate_arl0(cdm, two_gaussian_config(delta=2.0),
                                  5000, 8000, seed=21),
        "pooled_arl0": estimate_arl0(pooled, two_gaussian_config(delta=2.0),
                                     5000, 8000, seed=21),
    }


def test_criterion_01_arl0_single_detector(arl0_single):
    mean = arl0_single.mean
    ok = abs(mean - TARGET) / TARGET <= 0.05
    record_criterion(1, ok, f"single-detector ARL0 {mean:.2f} "
                            f"(target {TARGET:.0f} +/- 5%)")
    assert ok


def test_criterion_02_arl0_per_class_monitor(tab16, arl0_single):
    means4 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    method = CdmMethod(table=tab16, n_bins=16, train_per_class=256, name="cdm")
    details = []
    ok = True
    for label, priors in [("uniform", None),
                          ("skewed", np.array([0.7, 0.1, 0.1, 0.1]))]:
        cfg = GaussianMixtureConfig(means=means4, priors=priors)
        rep = estimate_arl0(method, cfg, 5000, 8000, seed=303)
        within_target = abs(rep.mean - TARGET) / TARGET <= 0.05
        within_single = abs(rep.mean - arl0_single.mean) / arl0_single.mean <= 0.03
        ok = ok and within_target and within_single
        details.append(f"{label} {rep.mean:.2f}")
    record_criterion(2, ok, f"4-class ARL0 {', '.join(details)} "
                            f"(target +/- 5%, single-run {arl0_single.mean:.2f} +/- 3%)")
    assert ok


def test_criterion_03_conditional_exceedance(tab16):
    horizon = 200
    exceed, at_risk = replay_exceedance(tab16, 20_000, seed=911, horizon=horizon)
    z = exceedance_z_scores(tab16, exceed, at_risk)
    bound = family_wise_bound(horizon)
    bad = np.flatnonzero(np.abs(z) > bound) + 1
    ok = bad.size == 0
    detail = (f"per-step exceedance within |z| <= {bound:.2f} of 1/375 for all "
              f"t <= {horizon} (max |z| {np.abs(z).max():.2f})"
              if ok else
              f"steps {bad.tolist()} outside |z| <= {bound:.2f} "
              f"(z = {np.round(z[bad - 1], 2).tolist()}): the per-step "
              f"false-alarm rate is not 1/375 there")
    record_criterion(3, ok, detail)
    assert ok


def test_criterion_04_first_step_statistic():
    k, lam = 16, 0.03
    expected = lam**2 * (1 - 1 / k) / (1 / k)
    ok = abs(expected - 0.0135) <= 1e-12
    record_criterion(4, ok, f"T_1 = {expected!r} (analytic 0.0135 +/- 1e-12)")
    assert ok


def test_criterion_05_single_class_reduction(small_table):
    streams = 0
    for trial in range(100):
        rng = rng_from(5000 + trial)
        train = rng.standard_normal((64, 2))
        monitor = fit_cdm(train, np.ones(64, dtype=int), small_table,
                          n_bins=16, lam=0.03, seed=trial)
        hist = build_quanttree(train, uniform_probs(16), class_seed(trial, 1))
        solo = QtEwmaDetector(hist, 0.03, small_table)
        stream = rng.standard_normal((400, 2))
        identical = True
        for t in range(400):
            detection = monitor.process(stream[t], 1)
            _, detected = solo.update(stream[t])
            if monitor.detectors[1].last_statistic != solo.last_statistic:
                identical = False
                break
            if detected != (detection is not None):
                identical = False
                break
            if detected:
                identical = detection.t_star == solo.detection_time
                break
        if identical:
            streams += 1
    ok = streams == 100
    record_criterion(5, ok, f"{streams}/100 streams bit-identical between the "
                            f"one-class monitor and a bare detector")
    assert ok


def test_criterion_06_subset_drift_advantage(delay_runs):
    cdm_arl0 = delay_runs["cdm_arl0"].mean
    pooled_arl0 = delay_runs["pooled_arl0"].mean
    tuned = (abs(cdm_arl0 - TARGET) / TARGET <= 0.05
             and abs(pooled_arl0 - TARGET) / TARGET <= 0.05)
    cdm, pooled = delay_runs["cdm"], delay_runs["pooled"]
    cdm_hi = cdm.mean + 1.96 * cdm.stderr
    pooled_lo = pooled.mean - 1.96 * pooled.stderr
    ok = tuned and cdm.mean < pooled.mean and cdm_hi < pooled_lo
    record_criterion(6, ok, f"per-class delay {cdm.mean:.1f} (CI high {cdm_hi:.1f}) "
                            f"< pooled delay {pooled.mean:.1f} (CI low {pooled_lo:.1f}); "
                            f"ARL0 {cdm_arl0:.1f} / {pooled_arl0:.1f}")
    assert ok


def test_criterion_07_attribution(delay_runs):
    rep = delay_runs["cdm"]
    valid = rep.t_star > 160
    frac = float((rep.m_star[valid] == 2).mean())
    ok = frac >= 0.90
    record_criterion(7, ok, f"drifted class attributed correctly in "
                            f"{frac:.2%} of detections (>= 90%)")
    assert ok


def test_criterion_08_virtual_drift_contrast(tab16):
    cfg = two_gaussian_config(delta=2.0, tau=160)
    limit = calibrate_ecdd_limit(PHI_MINUS_1, 0.2, TARGET, replicates=5000, seed=42)
    methods = {
        "cdm": CdmMethod(table=tab16, n_bins=16, train_per_class=256, name="cdm"),
        "ecdd": EcddMethod(limit=limit, classifier="lda", train_per_class=256,
                           name="ecdd"),
    }
    rows = run_grid_experiment(cfg, methods, replicates=500, seed=55,
                               post_length=7000)
    by_key = {(r["mu_x"], r["mu_y"], r["method"]): r for r in rows}
    horizontal, vertical = (1.0, 0.0), (2.0, 1.0)  # same sKL = 0.5
    e_h = by_key[(*horizontal, "ecdd")]["mean_delay"]
    e_v = by_key[(*vertical, "ecdd")]["mean_delay"]
    c_h = by_key[(*horizontal, "cdm")]["mean_delay"]
    c_v = by_key[(*vertical, "cdm")]["mean_delay"]
    ratio = e_v / e_h
    rel = abs(c_v - c_h) / c_h
    ok = ratio >= 5.0 and rel <= 0.15
    record_criterion(8, ok, f"error-chart delay ratio vertical/horizontal "
                            f"{ratio:.1f}x (>= 5x); per-class delays differ "
                            f"{rel:.1%} (<= 15%)")
    assert ok


def test_criterion_09_one_sided_chart(ecdd_limit_bernoulli):
    reps, horizon, tau = 5000, 8000, 160
    limit = ecdd_limit_bernoulli
    rng = rng_from(4545)
    drop = np.empty((reps, horizon), dtype=np.uint8)
    drop[:, :tau] = rng.random((reps, tau)) < 0.1
    drop[:, tau:] = rng.random((reps, horizon - tau)) < 0.05
    flat = (rng_from(4646).random((reps, horizon)) < 0.1).astype(np.uint8)
    p0 = np.full(reps, 0.1)
    det_drop = ecdd_first_exceed(drop, p0, 100.0, 0.2, limit)
    det_flat = ecdd_first_exceed(flat, p0, 100.0, 0.2, limit)
    f_drop = float((det_drop > tau).mean())
    f_flat = float((det_flat > tau).mean())
    se = np.sqrt(f_flat * (1 - f_flat) / reps + f_drop * (1 - f_drop) / reps)
    z = (f_drop - f_flat) / se
    ok = z <= 3.0
    record_criterion(9, ok, f"post-drop alarm rate {f_drop:.3f} vs stationary "
                            f"{f_flat:.3f} (z = {z:.2f} <= 3): the error "
                            f"decrease is invisible to the one-sided chart")
    assert ok


def test_criterion_10_error_chart_arl0(ecdd_limit_bernoulli):
    reps, horizon = 20_000, 8000
    limit = ecdd_limit_bernoulli
    errors = (rng_from(4343).random((reps, horizon)) < 0.1).astype(np.uint8)
    det = ecdd_first_exceed(errors, np.full(reps, 0.1), 100.0, 0.2, limit)
    arl0 = float(det[det > 0].mean())
    ok = det.min() > 0 and abs(arl0 - TARGET) / TARGET <= 0.10
    record_criterion(10, ok, f"error-chart ARL0 {arl0:.1f} with calibrated "
                             f"L = {limit:.4f} (target {TARGET:.0f} +/- 10%)")
    assert ok


def test_criterion_11_lda_error_oracle():
    cfg = two_gaussian_config(delta=2.0)
    rng = rng_from(77)
    x = np.vstack([rng.standard_normal((4096, 2)),
                   rng.standard_normal((4096, 2)) + [2.0, 0.0]])
    y = np.repeat([1, 2], 4096)
    clf = fit_classifier("lda", x, y)
    rate = estimate_error_rate(clf, cfg, 200_000, seed=78)
    ok = abs(rate - PHI_MINUS_1) <= 0.01
    record_criterion(11, ok, f"LDA error rate {rate:.5f} vs closed form "
                             f"{PHI_MINUS_1:.5f} (+/- 0.01)")
    assert ok


def test_criterion_12_csv_harness_end_to_end(tab16, tmp_path, capsys):
    # 33 features, 6 classes, occasional unlabeled rows: the shape of a
    # real insect-sensor stream. Exact published figures on the original
    # dataset are out of scope (private resampling of external data); the
    # pipeline itself must run end to end on the format.
    dim, n_classes, per_class = 33, 6, tab16.train_size
    rng = rng_from(1212)
    centers = rng.standard_normal((n_classes, dim)) * 2.0
    train_x = np.vstack([centers[m] + rng.standard_normal((per_class, dim))
                         for m in range(n_classes)])
    train_y = np.repeat(np.arange(1, n_classes + 1), per_class)
    train = LabeledStream(x=train_x, y=train_y,
                          labeled=np.ones(len(train_y), bool))

    n_stream, tau = 4000, 1000
    labels = rng.integers(1, n_classes + 1, size=n_stream)
    x = centers[labels - 1] + rng.standard_normal((n_stream, dim))
    drifted = (np.arange(n_stream) >= tau) & (labels == 2)
    x[drifted] += 3.0  # class-2 shift after the change point
    labeled = rng.random(n_stream) > 0.1  # ~10% unlabeled
    stream = LabeledStream(x=x, y=labels, labeled=labeled)

    table_path = tmp_path / "table.json"
    train_path = tmp_path / "train.csv"
    stream_path = tmp_path / "stream.csv"
    save_table(tab16, table_path)
    write_csv_stream(train, train_path)
    write_csv_stream(stream, stream_path)

    code = main(["monitor", "--method", "cdm", "--train", str(train_path),
                 "--stream", str(stream_path),
                 "--thresholds", str(table_path), "--k", "16"])
    out = capsys.readouterr().out
    report = json.loads(out) if code == EXIT_OK else {}
    ok = code == EXIT_OK and "detected" in report
    record_criterion(12, ok, f"CSV pipeline ran end to end on a 33-feature "
                             f"6-class stream (exit {code}, detected="
                             f"{report.get('detected')}, m*={report.get('m_star')}); "
                             f"published benchmark figures are out of scope")
    assert ok
