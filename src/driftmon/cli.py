"""Command-line interface: calibrate, monitor, bench.

All outputs are JSON (single detection reports) or CSV (benchmark rows).
Exit codes: 0 success, 1 configuration/calibration error, 2 I/O or
format error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bench
from .calibration import DEFAULT_REPLICATES, calibrate_ecdd_limit, calibrate_thresholds
from .cdm import fit_cdm, run_labeled_stream
from .datastreams import GaussianMixtureConfig, iter_csv_stream, read_csv_stream
from .ecdd import (CLASSIFIERS, DEFAULT_KNN_K, DEFAULT_PRIOR_WEIGHT, DEFAULT_R,
                   EcddMonitor, cross_val_error, ecdd_init, fit_classifier)
from .errors import ConfigError, DriftmonError, FormatError
from .qt_ewma import DEFAULT_LAMBDA
from .seeding import check_seed
from .thresholds import load_table, save_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftmon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="calibrate a threshold table")
    cal.add_argument("--k", dest="bins", type=int, default=16, help="histogram bins K")
    cal.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    cal.add_argument("--arl0", type=float, default=375.0)
    cal.add_argument("--train-size", type=int, required=True)
    cal.add_argument("--t-max", type=int,
                     help="cap on the table length (default: calibrate every step "
                          "that keeps enough replicates at risk)")
    cal.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    cal.add_argument("--seed", type=_seed, default=0)
    cal.add_argument("--out", required=True)

    mon = sub.add_parser("monitor", help="monitor a CSV stream, print a JSON report")
    mon.add_argument("--method", choices=["cdm", "qtewma", "ecdd"], required=True)
    mon.add_argument("--train", required=True, help="labeled training CSV")
    mon.add_argument("--stream", required=True, help="stream CSV (labels optional)")
    mon.add_argument("--thresholds", help="threshold table (cdm/qtewma)")
    mon.add_argument("--k", dest="bins", type=int,
                     help="histogram bins K (default: the table's; must match it)")
    mon.add_argument("--lambda", dest="lam", type=float,
                     help="EWMA lambda (default: the table's; must match it)")
    mon.add_argument("--seed", type=_seed, default=0)
    mon.add_argument("--lenient-labels", action="store_true")
    mon.add_argument("--classifier", choices=list(CLASSIFIERS), default="knn")
    mon.add_argument("--knn-k", type=int, default=DEFAULT_KNN_K)
    mon.add_argument("--ecdd-r", type=float, default=DEFAULT_R)
    mon.add_argument("--ecdd-limit", type=float, help="control limit L (ecdd)")
    mon.add_argument("--arl0", type=float, help="calibrate the ecdd limit for this target")
    mon.add_argument("--prior-weight", type=float, default=DEFAULT_PRIOR_WEIGHT)

    ben = sub.add_parser("bench", help="run a benchmark experiment from a config file")
    ben.add_argument("experiment", choices=["arl0", "delay", "grid"])
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", required=True)

    return parser


def cmd_calibrate(args) -> int:
    table = calibrate_thresholds(
        train_size=args.train_size, n_bins=args.bins, lam=args.lam,
        arl0_target=args.arl0, t_max=args.t_max, replicates=args.replicates,
        seed=args.seed,
    )
    save_table(table, args.out)
    print(f"wrote threshold table: {args.out}")
    return EXIT_OK


def cmd_monitor(args) -> int:
    """Fit a monitor on --train and run it over --stream, read in chunks.

    The JSON report is the one per-row processing would give; a malformed
    row after the detection is not reached by that processing, and is
    not reported.
    """
    train = read_csv_stream(args.train, args.lenient_labels)
    if not train.labeled.all():
        raise ConfigError(f"--train {args.train}: every training row needs a label")
    stream = iter_csv_stream(args.stream, args.lenient_labels)

    if args.method in ("cdm", "qtewma"):
        if not args.thresholds:
            raise ConfigError("--thresholds is required for cdm/qtewma")
        table = load_table(args.thresholds)
        train_y = train.y if args.method == "cdm" else np.ones_like(train.y)
        monitor = fit_cdm(train.x, train_y, table, n_bins=args.bins, lam=args.lam,
                          seed=args.seed, lenient_labels=args.lenient_labels)
        if args.method == "qtewma":
            stream = ((x, 1) for x, _y in stream)  # pooled: labels ignored
        extra = {"method": args.method}
    else:
        clf = fit_classifier(args.classifier, train.x, train.y, k=args.knn_k)
        p0 = cross_val_error(args.classifier, train.x, train.y, seed=args.seed,
                             k=args.knn_k)
        limit = args.ecdd_limit
        if limit is None:
            if args.arl0 is None:
                raise ConfigError("ecdd needs --ecdd-limit or --arl0")
            p0_sim = min(max(p0, 1e-3), 1.0 - 1e-3)
            limit = calibrate_ecdd_limit(p0_sim, args.ecdd_r, args.arl0,
                                         seed=args.seed,
                                         prior_weight=args.prior_weight)
        monitor = EcddMonitor(clf, ecdd_init(p0, args.ecdd_r, limit,
                                             prior_weight=args.prior_weight))
        extra = {"method": "ecdd", "p0_estimate": p0, "limit": limit}

    run_labeled_stream(monitor, stream)
    report = {**monitor.report(), **extra}
    # numpy scalars are the only values the json module cannot write
    json.dump(report, sys.stdout, indent=2, default=lambda obj: obj.item())
    print()
    return EXIT_OK


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path}: {exc}") from exc
    _require_object(cfg, f"config {path}")
    if cfg.get("format_version") != 1:
        raise ConfigError(f"config {path}: unsupported format_version "
                          f"{cfg.get('format_version')!r}")
    return cfg


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _field(raw: dict, name: str, convert, default=None):
    """``convert(raw[name])``, or ``default`` if the field is absent or null.

    A value ``convert`` refuses raises ConfigError naming the field.
    """
    value = raw.get(name)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"config field {name!r}: {exc}") from exc


def _given(raw: dict, **converters) -> dict:
    """The fields of ``raw`` that are set, each read by ``_field``.

    Pass the result as keyword arguments: an absent field then takes the
    library's own default.
    """
    return {name: _field(raw, name, convert) for name, convert in converters.items()
            if raw.get(name) is not None}


def _integer(value) -> int:
    """``int(value)``, refusing what it would truncate: booleans and fractions."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """A seed, from a flag's string or a config's number: a non-negative integer."""
    try:
        return check_seed(_integer(value))
    except (TypeError, ValueError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _pair(value) -> tuple[float, float]:
    low, high = map(float, value)
    return low, high


def _classifier(value) -> str:
    if value not in CLASSIFIERS:
        raise ValueError(f"unknown kind {value!r}, choose from {', '.join(CLASSIFIERS)}")
    return value


def _mixture_from_config(raw: dict) -> GaussianMixtureConfig:
    _require_object(raw, "config field 'mixture'")
    if raw.get("means") is None:
        raise ConfigError("mixture config is missing field 'means'")
    return GaussianMixtureConfig(**_given(raw, means=_floats, covs=_floats, priors=_floats,
                                          post_means=_floats, post_covs=_floats,
                                          tau=_integer))


def _method_from_config(raw: dict, seed: int):
    _require_object(raw, "each of the config's 'methods'")
    kind = raw.get("kind")
    if kind in ("cdm", "qtewma"):
        if raw.get("table") is None:
            raise ConfigError(f"method {kind}: missing 'table' path")
        table = load_table(_field(raw, "table", str))
        table.require(n_bins=raw.get("bins"), lam=raw.get("lambda"))
        return bench.CdmMethod(table=table, pooled=(kind == "qtewma"),
                               name=_field(raw, "name", str, kind),
                               **_given(raw, train_per_class=_integer))
    if kind == "ecdd":
        method = bench.EcddMethod(
            limit=_field(raw, "limit", float),
            **_given(raw, classifier=_classifier, knn_k=_integer, r=float,
                     prior_weight=float, train_per_class=_integer, name=str),
        )
        if method.limit is None:
            if raw.get("arl0") is None or raw.get("p0") is None:
                raise ConfigError("method ecdd: provide 'limit' or both 'arl0' and 'p0'")
            method.limit = calibrate_ecdd_limit(
                _field(raw, "p0", float), method.r, _field(raw, "arl0", float),
                seed=seed, prior_weight=method.prior_weight,
            )
        return method
    raise ConfigError(f"unknown method kind {kind!r}")


def _write_rows(rows: list[dict], path) -> None:
    if not rows:
        raise ConfigError("nothing to write: no result rows")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    mixture = _mixture_from_config(cfg.get("mixture") or {})
    seed = _field(cfg, "seed", _seed, 0)
    replicates = _field(cfg, "replicates", _integer, 1000)
    post_length = _given(cfg, post_length=_integer)
    raw_methods = cfg.get("methods")
    if not raw_methods or not isinstance(raw_methods, list):
        raise ConfigError("config: 'methods' must be a non-empty list")
    methods = {}
    for method in [_method_from_config(raw, seed) for raw in raw_methods]:
        if method.name in methods:
            raise ConfigError(f"config: method name {method.name!r} is repeated; "
                              "give each method its own 'name'")
        methods[method.name] = method

    if args.experiment == "grid":
        grid_raw = _require_object(cfg.get("grid") or {}, "config field 'grid'")
        drift_class = _field(grid_raw, "drift_class", _integer, bench.DEFAULT_DRIFT_CLASS)
        cells = bench.grid_cells(
            bench.drift_class_mean(mixture, drift_class),
            **_given(grid_raw, x_offsets=_pair, y_offsets=_pair, nx=_integer, ny=_integer),
        )
        rows = bench.run_grid_experiment(mixture, methods, replicates, seed, cells=cells,
                                         drift_class=drift_class, **post_length)
    elif args.experiment == "arl0":
        horizon = _field(cfg, "horizon", _integer, 8000)
        rows = [bench.estimate_arl0(methods[name], mixture, replicates, horizon,
                                    seed).to_dict() for name in sorted(methods)]
    else:
        rows = [bench.estimate_delay(methods[name], mixture, replicates, seed,
                                     **post_length).to_dict() for name in sorted(methods)]
    _write_rows(rows, args.out)
    kind = "grid" if args.experiment == "grid" else "report"
    print(f"wrote {len(rows)} {kind} rows: {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"calibrate": cmd_calibrate, "monitor": cmd_monitor, "bench": cmd_bench}
        return commands[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DriftmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
