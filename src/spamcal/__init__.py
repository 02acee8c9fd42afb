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
    record_dataset,
)
from .bits import bitstring, parse_bitstring
from .characterize import (
    Average,
    CorrelatorReport,
    Uniform,
    collect,
    correlator_report,
    measure_full_matrix,
    single_qubit_matrices,
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
    choose_neighborhood_size,
    circuit_budget,
    estimate_transition_matrix,
)
from .geometry import RegisterGeometry, chebyshev_mask
from .model import NoiseModel, PRESETS, identity_model, melbourne_c4, melbourne_c8
from .norms import (
    MatrixNorm,
    asymptotic_frobenius_error,
    norm_distance,
    single_qubit_spam_error,
)
from .tmatrix import TransitionMatrix

__version__ = "0.1.0"
