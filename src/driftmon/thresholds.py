"""Calibrated threshold tables for the EWMA bin-frequency detector.

A table holds the time-varying detection thresholds h_1..h_t_max, the
tie probabilities gamma_1..gamma_t_max and the metadata identifying the
Monte Carlo simulation that produced them; t_max is the length of the
arrays, and beyond it the last entries are held constant. The table
fixes K and lambda: detectors and monitors read both from it.

The detection rule is randomized at the atoms of the statistic: step t
fires when S_t > h_t, or when S_t == h_t and an independent uniform U_t
falls below gamma_t. This realizes the exceedance probability
alpha = 1 / ARL0 exactly even where the statistic takes few distinct
values (a single one at t = 1). Format version 1 tables, calibrated for
the strict rule alone, are refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .seeding import RNG_ALGORITHM

TABLE_FORMAT_VERSION = 2
TAIL_CONSTANT = "constant"


def check_arl0(arl0_target, error=ConfigError) -> None:
    """Raise ``error`` unless the ARL0 target is finite and >= 2.

    Calibration cannot resolve a smaller, NaN or infinite target.
    """
    if not 2.0 <= arl0_target < np.inf:
        raise error(f"arl0_target must be finite and >= 2, got {arl0_target}")


@dataclass(frozen=True)
class ThresholdTable:
    n_bins: int
    lam: float
    arl0_target: float
    train_size: int
    replicates: int
    seed: int
    thresholds: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise FormatError(f"table lambda must be in (0, 1), got {self.lam}")
        if self.n_bins < 2:
            raise FormatError(f"table n_bins must be >= 2, got {self.n_bins}")
        if self.train_size < self.n_bins:
            raise FormatError(f"table train_size {self.train_size} < n_bins {self.n_bins}")
        check_arl0(self.arl0_target, FormatError)
        h = np.asarray(self.thresholds, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        if h.ndim != 1 or h.size == 0 or g.shape != h.shape:
            raise FormatError(f"thresholds {h.shape} and gamma {g.shape} must be "
                              f"non-empty vectors of one length")
        if not np.all(h > 0.0):
            raise FormatError("thresholds must be strictly positive")
        if not np.all((g >= 0.0) & (g <= 1.0)):
            raise FormatError("gamma must lie in [0, 1]")
        object.__setattr__(self, "thresholds", h)
        object.__setattr__(self, "gamma", g)

    @property
    def t_max(self) -> int:
        """Steps calibrated; the table holds its last entries beyond them."""
        return len(self.thresholds)

    def require(self, n_bins: int | None = None, lam: float | None = None) -> None:
        """Refuse a K or lambda given besides the table that differs from its own."""
        for name, given, own in (("n_bins", n_bins, self.n_bins), ("lambda", lam, self.lam)):
            if given is not None and given != own:
                raise ConfigError(f"{name}={given} does not match the threshold "
                                  f"table's {name}={own}")

    def at(self, t: int) -> tuple[float, float]:
        """(h_t, gamma_t) for the t-th sample (1-based); constant beyond t_max."""
        if t < 1:
            raise InputError(f"threshold index must be >= 1, got {t}")
        i = min(t, len(self.thresholds)) - 1
        return float(self.thresholds[i]), float(self.gamma[i])


def table_to_dict(table: ThresholdTable) -> dict:
    return {
        "format_version": TABLE_FORMAT_VERSION,
        "kind": "qt-ewma-thresholds",
        "rng": RNG_ALGORITHM,
        "n_bins": table.n_bins,
        "lambda": table.lam,
        "arl0_target": table.arl0_target,
        "train_size": table.train_size,
        "t_max": table.t_max,
        "replicates": table.replicates,
        "seed": table.seed,
        "tail_rule": TAIL_CONSTANT,
        "thresholds": [float(h) for h in table.thresholds],
        "gamma": [float(g) for g in table.gamma],
    }


def table_from_dict(payload: dict) -> ThresholdTable:
    try:
        version = payload["format_version"]
        if version == 1:
            raise FormatError("table format_version 1 predates the randomized tie "
                              "rule and misses alpha at the first steps; recalibrate it")
        if version != TABLE_FORMAT_VERSION:
            raise FormatError(f"unsupported table format_version {version!r}")
        if payload["tail_rule"] != TAIL_CONSTANT:
            raise FormatError(f"unknown tail rule {payload['tail_rule']!r}")
        table = ThresholdTable(
            n_bins=int(payload["n_bins"]),
            lam=float(payload["lambda"]),
            arl0_target=float(payload["arl0_target"]),
            train_size=int(payload["train_size"]),
            replicates=int(payload["replicates"]),
            seed=int(payload["seed"]),
            thresholds=np.asarray(payload["thresholds"], dtype=float),
            gamma=np.asarray(payload["gamma"], dtype=float),
        )
        if int(payload["t_max"]) != table.t_max:
            raise FormatError(f"table t_max {payload['t_max']} does not match "
                              f"its {table.t_max} thresholds")
        return table
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed threshold table: {exc}") from exc


def save_table(table: ThresholdTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_dict(table), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_table(path) -> ThresholdTable:
    # missing file raises OSError, distinct from FormatError on bad content
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"corrupt threshold table {path}: {exc}") from exc
    return table_from_dict(payload)
