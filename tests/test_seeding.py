import numpy as np
import pytest
from conftest import two_gaussian_config

from driftmon import ConfigError, build_quanttree, calibrate_thresholds, sample_training
from driftmon.seeding import check_seed, derive_seed, rng_from


@pytest.mark.parametrize("call", [
    lambda: build_quanttree(rng_from(0).standard_normal((40, 2)), 8, seed=-3),
    lambda: calibrate_thresholds(40, 8, 0.03, 50.0, t_max=170, replicates=10000, seed=-1),
    lambda: sample_training(two_gaussian_config(), 10, -5),
], ids=["build_quanttree", "calibrate_thresholds", "sample_training"])
def test_a_negative_seed_is_a_config_error(call):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        call()


@pytest.mark.parametrize("seed", [-1, True, 2.5, 3.0, "3"])
def test_seed_rule_refuses_what_is_not_a_non_negative_integer(seed):
    for draw in (check_seed, rng_from, derive_seed):
        with pytest.raises(ConfigError, match=repr(seed).replace(".", r"\.")):
            draw(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7)],
                         ids=["int64", "uint64", "int32"])
def test_numpy_integer_seeds_draw_as_their_value(seed):
    assert check_seed(seed) == 7 and type(check_seed(seed)) is int
    assert rng_from(seed).random() == rng_from(7).random()
    assert derive_seed(seed, 1) == derive_seed(7, 1)
