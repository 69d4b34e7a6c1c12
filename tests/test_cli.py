import csv
import inspect
import json
from dataclasses import fields

import numpy as np
import pytest
from conftest import cli_streams, write_csv_stream

from driftmon import GaussianMixtureConfig, bench, load_table, save_table
from driftmon.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_table_k8):
    """Training/stream CSVs and a matching threshold table on disk."""
    root = tmp_path_factory.mktemp("cli")
    table_path = root / "table.json"
    save_table(small_table_k8, table_path)

    streams = cli_streams()
    train_path = root / "train.csv"
    write_csv_stream(streams["train"], train_path)
    stream_path = root / "stream.csv"
    write_csv_stream(streams["stream"], stream_path)

    return {"root": root, "table": table_path, "train": train_path,
            "stream": stream_path}


def test_calibrate_writes_loadable_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["calibrate", "--k", "8", "--lambda", "0.03", "--arl0", "50",
                 "--train-size", "40", "--t-max", "170",
                 "--replicates", "60000", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    table = load_table(out)
    assert table.n_bins == 8
    assert table.train_size == 40
    assert table.arl0_target == 50.0
    assert json.loads(out.read_text())["format_version"] == 2
    # every replicate ties at the single atom of t = 1, so gamma_1 = alpha
    assert table.gamma[0] == pytest.approx(1 / 50)
    assert "table" in capsys.readouterr().out


def test_calibrate_refuses_one_bin(tmp_path, capsys):
    code = main(["calibrate", "--k", "1", "--train-size", "40", "--t-max", "170",
                 "--replicates", "10000", "--out", str(tmp_path / "table.json")])
    assert code == EXIT_CONFIG
    assert "n_bins must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "table.json").exists()


def test_calibrate_refuses_a_target_it_cannot_resolve(tmp_path, capsys):
    # NaN ended in a traceback, inf and 1e300 never returned (NaN runs first)
    for arl0, message in (("nan", "arl0_target must be finite"),
                          ("inf", "arl0_target must be finite"),
                          ("1e300", "replicates must be >= arl0_target")):
        code = main(["calibrate", "--k", "8", "--train-size", "64", "--replicates", "10000",
                     "--arl0", arl0, "--out", str(tmp_path / "table.json")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "table.json").exists()


def test_monitor_cdm_detects_planted_class2_drift(workdir, capsys):
    code = main(["monitor", "--method", "cdm", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]),
                 "--thresholds", str(workdir["table"]), "--k", "8"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "cdm"
    assert report["detected"]
    assert report["m_star"] == 2
    assert report["t_star"] > 20


def test_monitor_is_deterministic(workdir, capsys):
    argv = ["monitor", "--method", "cdm", "--train", str(workdir["train"]),
            "--stream", str(workdir["stream"]),
            "--thresholds", str(workdir["table"]), "--k", "8"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_monitor_reads_k_and_lambda_from_the_table(workdir, capsys):
    argv = ["monitor", "--method", "cdm", "--train", str(workdir["train"]),
            "--stream", str(workdir["stream"]), "--thresholds", str(workdir["table"])]
    assert main(argv + ["--k", "8", "--lambda", "0.03"]) == EXIT_OK
    given = capsys.readouterr().out
    assert main(argv) == EXIT_OK  # the K = 8 table fixes K and lambda
    assert capsys.readouterr().out == given
    for mismatch in (["--k", "16"], ["--lambda", "0.05"]):
        assert main(argv + mismatch) == EXIT_CONFIG
        assert "does not match the threshold table" in capsys.readouterr().err


def test_monitor_qtewma_ignores_labels(workdir, capsys):
    # pooled training: 80 samples, so the table must match train size 80
    from driftmon import calibrate_thresholds

    table = calibrate_thresholds(train_size=80, n_bins=8, lam=0.03,
                                 arl0_target=50.0, t_max=170,
                                 replicates=60_000, seed=7)
    path = workdir["root"] / "table80.json"
    save_table(table, path)
    code = main(["monitor", "--method", "qtewma", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]),
                 "--thresholds", str(path), "--k", "8"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "qtewma"
    assert report["m_star"] in (1, None)  # single pooled pseudo-class


def test_monitor_ecdd_with_fixed_limit(workdir, capsys):
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]),
                 "--classifier", "lda", "--ecdd-limit", "2.0"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "ecdd"
    assert report["m_star"] is None
    assert "p0_estimate" in report and "limit" in report


def test_monitor_ecdd_calibrates_at_zero_training_error(workdir, tmp_path, capsys):
    # kNN classifies a well-separated training set without error, so the
    # limit is calibrated at the clipped p0 = 1e-3 and must still resolve
    train_path = tmp_path / "separable.csv"
    write_csv_stream(cli_streams()["separable"], train_path)
    code = main(["monitor", "--method", "ecdd", "--train", str(train_path),
                 "--stream", str(workdir["stream"]), "--classifier", "knn",
                 "--arl0", "375"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["p0_estimate"] == 0.0
    assert report["limit"] >= 0.0


def test_monitor_requires_thresholds_for_cdm(workdir, capsys):
    code = main(["monitor", "--method", "cdm", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"])])
    assert code == EXIT_CONFIG
    assert "thresholds" in capsys.readouterr().err


def test_monitor_ecdd_requires_limit_or_target(workdir, capsys):
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"])])
    assert code == EXIT_CONFIG


def test_monitor_ecdd_refuses_a_nan_target(workdir, capsys):
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]), "--arl0", "nan"])
    assert code == EXIT_CONFIG
    assert "arl0_target must be finite" in capsys.readouterr().err


def test_monitor_ecdd_refuses_a_target_beyond_the_chart_step_bound(workdir, capsys):
    # the default horizon of 20 x ARL0 steps made 1e300 run without end
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]), "--arl0", "1e300"])
    assert code == EXIT_CONFIG == 1
    assert "chart steps" in capsys.readouterr().err


def test_monitor_ecdd_refusal_names_the_largest_target_that_fits(workdir, capsys):
    # the CLI calibrates at the library's 5000 replicates, so the user can
    # act only on the target: 20000 is refused, and 10000 is named
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]), "--arl0", "20000"])
    assert code == EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert "chart steps" in err and "largest target that fits is 10000;" in err


def test_monitor_ecdd_refusal_names_the_target_not_the_horizon(workdir, capsys):
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]), "--arl0", "1e300"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert "target ARL0 1e+300 at 5000 replicates" in err and len(err) < 200


def test_unknown_method_is_config_error(workdir, capsys):
    code = main(["monitor", "--method", "nope", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"])])
    assert code == EXIT_CONFIG


def test_missing_stream_file_is_io_error(workdir, capsys):
    code = main(["monitor", "--method", "cdm", "--train", str(workdir["train"]),
                 "--stream", str(workdir["root"] / "nope.csv"),
                 "--thresholds", str(workdir["table"]), "--k", "8"])
    assert code == EXIT_IO


def test_malformed_csv_row_reports_number(workdir, capsys, tmp_path):
    # the training CSV has 2 features: a non-numeric feature, a short row,
    # a long row and a NaN on row 2 stop every method with its number
    methods = {
        "cdm": ["--method", "cdm", "--thresholds", str(workdir["table"]), "--k", "8"],
        "ecdd-knn": ["--method", "ecdd", "--classifier", "knn", "--ecdd-limit", "2.0"],
        "ecdd-lda": ["--method", "ecdd", "--classifier", "lda", "--ecdd-limit", "2.0"],
    }
    bad = tmp_path / "bad.csv"
    for name, method in methods.items():
        for row in ["x,y,1", "1.0,1", "1.0,2.0,3.0,1", "nan,2.0,1"]:
            bad.write_text(f"0.5,1.5,1\n{row}\n")
            code = main(["monitor", *method, "--train", str(workdir["train"]),
                         "--stream", str(bad)])
            err = capsys.readouterr().err
            assert code == EXIT_IO and "row 2" in err, (name, row, code, err)


def test_a_csv_that_is_not_utf8_reports_its_row(workdir, capsys, tmp_path):
    # a byte that is not UTF-8 on row 2 of the stream or the training file
    # stops the run as a malformed row does, with its number
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"0.5,1.5,1\n2.5,\xff3.5,2\n")
    for train, stream in ((workdir["train"], bad), (bad, workdir["stream"])):
        code = main(["monitor", "--method", "ecdd", "--classifier", "lda",
                     "--ecdd-limit", "2.0", "--train", str(train), "--stream", str(stream)])
        err = capsys.readouterr().err
        assert code == EXIT_IO and "row 2: bytes that are not valid UTF-8" in err, err


def test_a_malformed_row_after_the_detection_is_never_reported(workdir, capsys, tmp_path):
    # the stream is read in chunks, but a bad row after the detection row
    # leaves the report as it was; one before it still stops the run
    argv = ["monitor", "--method", "cdm", "--thresholds", str(workdir["table"]), "--k", "8",
            "--train", str(workdir["train"]), "--stream"]
    assert main([*argv, str(workdir["stream"])]) == EXIT_OK
    report = capsys.readouterr().out
    t_star = json.loads(report)["t_star"]
    lines = workdir["stream"].read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:t_star] + ["x,1.0,1"] + lines[t_star:]) + "\n")
    assert main([*argv, str(bad)]) == EXIT_OK
    assert capsys.readouterr().out == report
    bad.write_text("\n".join(lines[:t_star - 1] + ["x,1.0,1"] + lines[t_star - 1:]) + "\n")
    assert main([*argv, str(bad)]) == EXIT_IO
    assert f"row {t_star}:" in capsys.readouterr().err


def bench_config(workdir, **overrides):
    cfg = {
        "format_version": 1,
        "seed": 3,
        "replicates": 60,
        "horizon": 500,
        "post_length": 150,
        "mixture": {
            "means": [[0.0, 0.0], [4.0, 0.0]],
            "post_means": [[0.0, 0.0], [4.0, 20.0]],
            "tau": 40,
        },
        "methods": [
            {"kind": "cdm", "table": str(workdir["table"]), "k": 8,
             "bins": 8, "train_per_class": 40, "name": "cdm"},
        ],
    }
    cfg.update(overrides)
    return cfg


def test_bench_arl0_writes_csv(workdir, tmp_path, capsys):
    cfg = bench_config(workdir)
    cfg["mixture"]["tau"] = 0
    cfg["mixture"]["post_means"] = None
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "arl0.csv"
    assert main(["bench", "arl0", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["method"] == "cdm"
    assert rows[0]["metric"] == "arl0"
    assert 25 < float(rows[0]["mean"]) < 100


def test_bench_delay_with_two_methods(workdir, tmp_path):
    cfg = bench_config(workdir)
    cfg["methods"].append({"kind": "ecdd", "limit": 2.0, "classifier": "lda",
                           "train_per_class": 40, "name": "ecdd"})
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "delay.csv"
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"cdm", "ecdd"}
    assert rows["cdm"]["metric"] == "delay"


def test_bench_grid(workdir, tmp_path):
    cfg = bench_config(workdir, replicates=20)
    cfg["grid"] = {"nx": 2, "ny": 1, "x_offsets": [-2.0, 0.0], "y_offsets": [0.0, 0.0]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "grid.csv"
    assert main(["bench", "grid", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"mu_x", "mu_y", "method", "skl", "p1_minus_p0", "mean_delay"} <= set(rows[0])


def test_bench_refuses_a_repeated_method_name(workdir, tmp_path, capsys):
    # two ecdd entries without a name would both be "ecdd", and only the
    # last would run
    cfg = bench_config(workdir)
    cfg["methods"] = [{"kind": "ecdd", "limit": 3.0, "classifier": "lda"},
                      {"kind": "ecdd", "limit": 1.0, "classifier": "lda"}]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "delay.csv"
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "'ecdd' is repeated" in capsys.readouterr().err
    assert not out.exists()
    cfg["methods"][1]["name"] = "ecdd-low"
    config.write_text(json.dumps(cfg | {"replicates": 5}))
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["ecdd", "ecdd-low"]


def test_bench_rejects_bad_format_version(workdir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bench_config(workdir, format_version=9)))
    out = tmp_path / "out.csv"
    assert main(["bench", "arl0", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "format_version" in capsys.readouterr().err


def test_bench_rejects_corrupt_config(workdir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{ nope")
    out = tmp_path / "out.csv"
    assert main(["bench", "arl0", "--config", str(config), "--out", str(out)]) == EXIT_IO


def test_bench_requires_methods(workdir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bench_config(workdir, methods=[])))
    out = tmp_path / "out.csv"
    assert main(["bench", "arl0", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "methods" in capsys.readouterr().err


def test_bench_grid_writes_a_failed_first_row(workdir, tmp_path):
    # method "a" sorts first and fails: 32 training rows a class against a
    # table calibrated for 40; its row still carries every column, empty
    cfg = bench_config(workdir, replicates=5)
    cfg["methods"] = [
        {"kind": "cdm", "table": str(workdir["table"]), "train_per_class": 32, "name": "a"},
        {"kind": "ecdd", "limit": 2.0, "train_per_class": 40, "name": "b"},
    ]
    cfg["grid"] = {"nx": 1, "ny": 1, "x_offsets": [0.0, 0.0], "y_offsets": [0.0, 0.0]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "grid.csv"
    assert main(["bench", "grid", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["a", "b"]
    assert "train_size" in rows[0]["failed"] and rows[1]["failed"] == ""
    assert all(rows[0][k] == "" for k in ("mean_delay", "stderr", "detections",
                                          "false_alarms", "censored"))
    assert int(rows[1]["detections"]) + int(rows[1]["censored"]) <= 5


@pytest.mark.parametrize("field, edit", [
    ("must be a JSON object", lambda cfg: [cfg]),
    ("'replicates'", lambda cfg: {**cfg, "replicates": "ten"}),
    ("'means'", lambda cfg: {**cfg, "mixture": {**cfg["mixture"], "means": "abc"}}),
    ("'classifier'", lambda cfg: {**cfg, "methods": [{"kind": "ecdd", "limit": 2.0,
                                                       "classifier": "svm"}]}),
], ids=["top-level-list", "replicates", "means", "classifier"])
def test_bench_refuses_a_field_of_the_wrong_type(workdir, tmp_path, capsys, field, edit):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(edit(bench_config(workdir))))
    out = tmp_path / "out.csv"
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("drift_class", [5, 0])
def test_bench_grid_refuses_a_drift_class_outside_the_labels(workdir, tmp_path, capsys,
                                                              drift_class):
    cfg = bench_config(workdir, replicates=5)
    cfg["mixture"] = {"means": [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], "tau": 40}
    cfg["grid"] = {"nx": 1, "ny": 1, "drift_class": drift_class}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "grid.csv"
    assert main(["bench", "grid", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "drift_class" in err
    assert not out.exists()



def _grid_config(workdir, tmp_path, grid=(), **overrides):
    cfg = bench_config(workdir, **{"replicates": 5, **overrides})
    cfg["grid"] = {"nx": 1, "ny": 1, "x_offsets": [0.0, 0.0], "y_offsets": [0.0, 0.0],
                   **dict(grid)}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    return config


@pytest.mark.parametrize("field, edit", [
    ("drift_class", {"grid": {"drift_class": 2.7}}),
    ("replicates", {"replicates": 10.9}),
    ("nx", {"grid": {"nx": True}}),
], ids=["drift_class", "replicates", "nx"])
def test_bench_refuses_an_integer_field_it_would_truncate(workdir, tmp_path, capsys,
                                                          field, edit):
    config = _grid_config(workdir, tmp_path, **edit)
    out = tmp_path / "grid.csv"
    assert main(["bench", "grid", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err
    assert not out.exists()


def test_bench_reads_an_integral_float_as_the_integer(workdir, tmp_path):
    outputs = []
    for number in (int, float):
        config = _grid_config(workdir, tmp_path, grid={"drift_class": number(2)},
                              replicates=number(5))
        outputs.append(tmp_path / f"grid-{number.__name__}.csv")
        assert main(["bench", "grid", "--config", str(config), "--out",
                     str(outputs[-1])]) == EXIT_OK
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


@pytest.mark.parametrize("knn_k", ["0", "-2"])
def test_monitor_refuses_a_knn_k_below_one(workdir, capsys, knn_k):
    code = main(["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
                 "--stream", str(workdir["stream"]), "--ecdd-limit", "2.0",
                 "--knn-k", knn_k])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k must be >= 1" in err


def test_bench_delay_refuses_a_knn_k_below_one(workdir, tmp_path, capsys):
    cfg = bench_config(workdir, replicates=5)
    cfg["methods"] = [{"kind": "ecdd", "limit": 2.0, "classifier": "knn", "knn_k": 0,
                       "train_per_class": 40}]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "delay.csv"
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "monitor"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_flags_refuse_what_is_not_a_non_negative_integer(workdir, tmp_path, capsys,
                                                              command, seed):
    out = tmp_path / "table.json"
    argv = (["calibrate", "--train-size", "40", "--t-max", "170", "--out", str(out)]
            if command == "calibrate" else
            ["monitor", "--method", "ecdd", "--train", str(workdir["train"]),
             "--stream", str(workdir["stream"]), "--arl0", "50"])
    assert main([*argv, "--seed", seed]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --seed: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_bench_refuses_a_seed_that_is_not_a_non_negative_integer(workdir, tmp_path, capsys,
                                                                 seed):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bench_config(workdir, seed=seed)))
    out = tmp_path / "delay.csv"
    assert main(["bench", "delay", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'seed': ")
    assert not out.exists()


def _record(monkeypatch, name, result):
    """Replace ``bench.<name>`` by a stub that records the arguments passed."""
    signature, calls = inspect.signature(getattr(bench, name)), []

    def stub(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return result

    monkeypatch.setattr(bench, name, stub)
    return calls


class _Report:
    def to_dict(self):
        return {"method": "stub"}


def test_a_config_of_its_required_fields_takes_the_library_defaults(workdir, tmp_path,
                                                                     monkeypatch):
    means = [[0.0, 0.0], [4.0, 0.0]]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "format_version": 1, "mixture": {"means": means},
        "methods": [{"kind": "cdm", "table": str(workdir["table"])},
                    {"kind": "ecdd", "limit": 2.0}],
    }))
    delays = _record(monkeypatch, "estimate_delay", _Report())
    grids = _record(monkeypatch, "run_grid_experiment", [{"row": 1}])
    for experiment in ("delay", "grid"):
        assert main(["bench", experiment, "--config", str(config),
                     "--out", str(tmp_path / f"{experiment}.csv")]) == EXIT_OK

    cdm, ecdd = (call["method"] for call in delays)
    assert vars(cdm) == vars(bench.CdmMethod(cdm.table))
    assert vars(ecdd) == vars(bench.EcddMethod(2.0))
    expected = GaussianMixtureConfig(means=np.array(means))
    for call in [*delays, *grids]:
        mixture = call["cfg"] if "cfg" in call else call["cfg_base"]
        for f in fields(GaussianMixtureConfig):
            assert np.array_equal(getattr(mixture, f.name), getattr(expected, f.name))
        assert "post_length" not in call  # left to the library's default
    (grid,) = grids
    assert grid["drift_class"] == bench.DEFAULT_DRIFT_CLASS
    assert grid["cells"] == bench.grid_cells(means[bench.DEFAULT_DRIFT_CLASS - 1])
    assert len(grid["cells"]) == 81
