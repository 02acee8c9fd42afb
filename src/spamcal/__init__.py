"""Correlated multiqubit readout-error calibration, estimation, and correction.

Estimates the full 2^n x 2^n readout transition matrix from a polynomial
number of measured distributions, validates against a built-in exhaustive
oracle, and corrects raw measured distributions with it.
"""

from .backends import (
    Counts,
    Dataset,
    ExactBackend,
    ReplayBackend,
    SampledBackend,
    ingest_dataset,
    measure_full_matrix,
    record_dataset,
)
from .bits import BitString
from .characterize import (
    Average,
    CorrelatorReport,
    SingleQubitT,
    Uniform,
    correlator_report,
    measure_single_qubit_T,
    t_prod,
    total_spam_error,
)
from .correct import (
    CorrectionResult,
    compare_matrices,
    correct_constrained,
    correct_direct_inverse,
)
from .errors import (
    ConvergenceError,
    MissingDataError,
    NumericalError,
    SpamcalError,
    ValidationError,
)
from .estimate import (
    CalibrationTables,
    assemble_t_mean,
    assemble_t_pair,
    choose_neighborhood_size,
    circuit_budget,
    estimate_transition_matrix,
)
from .geometry import Neighborhood, RegisterGeometry, moore_neighborhood
from .model import NoiseModel, PRESETS, identity_model, melbourne_c4, melbourne_c8
from .norms import (
    MatrixNorm,
    asymptotic_frobenius_error,
    norm_distance,
    single_qubit_spam_error,
)
from .tmatrix import TransitionMatrix

__version__ = "0.1.0"
