import json

import numpy as np
import pytest

from driftmon import FormatError, InputError, ThresholdTable, load_table, save_table
from driftmon.thresholds import table_from_dict, table_to_dict


def make_table(**overrides):
    kwargs = dict(
        n_bins=16, lam=0.03, arl0_target=375.0, train_size=256,
        replicates=10_000, seed=1, thresholds=np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        gamma=np.array([1.0, 0.25, 0.0, 0.5, 0.75]),
    )
    kwargs.update(overrides)
    return ThresholdTable(**kwargs)


def test_at_is_one_based_with_constant_tail():
    table = make_table()
    assert table.at(1) == (0.1, 1.0)
    assert table.at(5) == (0.5, 0.75)
    assert table.at(6) == (0.5, 0.75)
    assert table.at(10_000) == (0.5, 0.75)
    with pytest.raises(InputError):
        table.at(0)


def test_construction_validation():
    assert make_table().t_max == 5  # the length of the arrays
    with pytest.raises(FormatError):
        make_table(thresholds=np.array([0.1, 0.2]))  # wrong length
    with pytest.raises(FormatError):
        make_table(thresholds=np.array([]), gamma=np.array([]))
    with pytest.raises(FormatError):
        make_table(thresholds=np.full((5, 1), 0.1), gamma=np.zeros((5, 1)))
    for lam in (0.0, 1.0, 1.5, -0.1, np.nan):
        with pytest.raises(FormatError, match="lambda"):
            make_table(lam=lam)
    with pytest.raises(FormatError, match="n_bins"):
        make_table(n_bins=1, train_size=8)
    with pytest.raises(FormatError, match="train_size"):
        make_table(train_size=15)
    for arl0 in (1.5, np.nan, np.inf):
        with pytest.raises(FormatError, match="arl0_target"):
            make_table(arl0_target=arl0)
    with pytest.raises(FormatError):
        make_table(thresholds=np.array([0.1, 0.2, -0.3, 0.4, 0.5]))
    with pytest.raises(FormatError):
        make_table(gamma=np.array([0.1, 0.2]))  # wrong length
    with pytest.raises(FormatError):
        make_table(gamma=np.array([0.1, 0.2, 1.5, 0.4, 0.5]))
    with pytest.raises(FormatError):
        make_table(gamma=np.array([0.1, -0.2, 0.3, 0.4, 0.5]))
    with pytest.raises(FormatError):
        make_table(gamma=np.array([0.1, np.nan, 0.3, 0.4, 0.5]))


def test_round_trip_is_byte_identical(tmp_path):
    table = make_table(gamma=np.array([1 / 3, 0.0, 0.1, 1.0, 2 / 7]))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_table(table, first)
    loaded = load_table(first)
    save_table(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.n_bins == table.n_bins
    assert loaded.lam == table.lam
    assert np.array_equal(loaded.thresholds, table.thresholds)
    assert np.array_equal(loaded.gamma, table.gamma)
    assert json.loads(first.read_text())["format_version"] == 2


def test_load_errors_are_distinguishable(tmp_path):
    with pytest.raises(OSError):
        load_table(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(FormatError):
        load_table(bad)


def test_format_version_and_field_checks():
    payload = table_to_dict(make_table())
    payload["format_version"] = 3
    with pytest.raises(FormatError):
        table_from_dict(payload)
    payload["format_version"] = 2
    del payload["gamma"]
    with pytest.raises(FormatError):
        table_from_dict(payload)  # version 2 requires gamma
    payload = table_to_dict(make_table())
    del payload["thresholds"]
    with pytest.raises(FormatError):
        table_from_dict(payload)
    payload = table_to_dict(make_table())
    assert payload["t_max"] == 5
    payload["t_max"] = 6
    with pytest.raises(FormatError, match="t_max"):
        table_from_dict(payload)  # t_max is the arrays' length, not a setting
    payload = table_to_dict(make_table())
    payload["lambda"] = 1.5  # would fire every row at t = 1 in the batch engine
    with pytest.raises(FormatError, match="lambda"):
        table_from_dict(payload)
    payload = table_to_dict(make_table())
    assert payload["tail_rule"] == "constant"
    payload["tail_rule"] = "polynomial"
    with pytest.raises(FormatError, match="tail rule"):
        table_from_dict(payload)


def test_version_1_table_is_refused(tmp_path):
    # a version 1 table was calibrated for the strict rule alone, which
    # misses alpha at the first steps: it must be recalibrated, not loaded
    payload = table_to_dict(make_table())
    payload["format_version"] = 1
    del payload["gamma"]
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="recalibrate"):
        load_table(path)
