"""driftmon: class-conditional concept-drift detection for labeled streams.

Monitors each class of a labeled datastream with its own histogram-based
EWMA change detector, controlling the expected time to false alarm, and
ships an error-rate chart baseline plus a reproducible benchmark harness.
"""

from .bench import (
    CdmMethod,
    EcddMethod,
    ExperimentReport,
    average_ranks,
    estimate_arl0,
    estimate_delay,
    estimate_error_rate,
    grid_cells,
    run_grid_experiment,
)
from .calibration import (
    calibrate_ecdd_limit,
    calibrate_thresholds,
    replay_exceedance,
    simulate_stationary_trajectory,
)
from .cdm import CdmMonitor, Detection, fit_cdm, run_labeled_stream
from .datastreams import (
    CsvSchema,
    GaussianMixtureConfig,
    LabeledStream,
    generate_stream,
    iter_csv_stream,
    read_csv_stream,
    sample_mixture,
    sample_training,
    skl_gaussian,
    splice_streams,
    subsample_without_replacement,
    two_gaussian_config,
    write_csv_stream,
)
from .ecdd import (
    EcddState,
    cross_val_error,
    ecdd_init,
    ecdd_monitor_stream,
    ecdd_update,
    fit_classifier,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DriftmonError,
    FormatError,
    InputError,
    NumericError,
)
from .qt_ewma import QtEwmaDetector, run_stream
from .quanttree import (
    QuantTreeHistogram,
    bin_counts,
    build_quanttree,
    expected_allocation,
    load_histogram,
    locate_bin,
    locate_bins,
    save_histogram,
    uniform_probs,
)
from .thresholds import ThresholdTable, load_table, save_table

__version__ = "0.1.0"
