"""driftmon: class-conditional concept-drift detection for labeled streams.

Monitors each class of a labeled datastream with its own histogram-based
EWMA change detector, controlling the expected time to false alarm, and
ships an error-rate chart baseline plus a reproducible benchmark harness.
"""

from .bench import (
    CdmMethod,
    EcddMethod,
    ExperimentReport,
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
)
from .cdm import CdmMonitor, Detection, fit_cdm, run_labeled_stream
from .datastreams import (
    GaussianMixtureConfig,
    LabeledStream,
    generate_stream,
    iter_csv_stream,
    read_csv_stream,
    sample_training,
    skl_gaussian,
)
from .ecdd import (
    EcddMonitor,
    EcddState,
    cross_val_error,
    ecdd_init,
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
from .qt_ewma import QtEwmaDetector
from .quanttree import (
    QuantTreeHistogram,
    build_quanttree,
    locate_bin,
    locate_bins,
)
from .thresholds import ThresholdTable, load_table, save_table

__version__ = "0.1.0"
