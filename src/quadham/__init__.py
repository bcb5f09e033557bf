"""Ladder-operator analysis of quadratic Hamiltonians in canonical operators.

Core pipeline: build a Hermitian quadratic form over positions and momenta,
take its closed-form adjoint matrix on the span of those operators, pair the
eigenvalues into ladder operators, classify the spectrum, and predict the
energy lattice.  A number-basis truncation provides an independent numerical
check, and for the symmetric two-mode model the eigenfunctions themselves
are constructed in exact arithmetic.
"""

from ._exact import ComplexRational, PiScale
from ._version import __version__
from .errors import (
    BasisMismatchError,
    ConfigError,
    EigensolverError,
    FockCapError,
    HermiticityError,
    LadderCheckError,
    LatticeCapError,
    LatticeUnavailableError,
    NonFiniteResultError,
    NonHermitianFormError,
    NonRealFrequencyError,
    PairingError,
    QuadhamError,
)
from .fock import (
    ComparisonReport,
    ComparisonRow,
    FockTruncation,
    OracleSpectrum,
    build_fock_matrix,
    compare_with_lattice,
    oracle_spectrum,
)
from .models import (
    DimensionlessModel,
    LadderSpec,
    PhaseScanResult,
    PhysicalParameters,
    ScanSample,
    Transition,
    angular_momentum_form,
    build_model,
    isotropic_form,
    phase_scan,
    random_positive_definite_form,
    reduce_to_dimensionless,
    sb_operator,
    symmetric_energy,
    symmetric_ladders,
    symmetric_raising_pair,
)
from .phase_space import (
    AdjointMatrix,
    LinearForm,
    PhaseSpaceBasis,
    QuadraticForm,
    adjoint_representation,
    linear_commutator,
    make_quadratic_form,
    quadratic_commutator,
)
from .spectral import (
    Classification,
    EigenCluster,
    EigenData,
    FrequencyPair,
    LatticeLevel,
    SpectrumReport,
    classify_spectrum,
    eigen_decompose,
    ladder_check,
    pair_frequencies,
    spectrum_lattice,
    vacuum_annihilation_residual,
)
from .wavefunctions import (
    ExactAmount,
    PolyGaussian,
    apply_linear_form,
    apply_quadratic_form,
    build_eigenfunction,
    inner,
    is_scalar_multiple_exact,
    normalized_copy,
    squared_norm,
    vacuum,
)

__all__ = [
    "__version__",
    # errors
    "QuadhamError", "ConfigError", "BasisMismatchError",
    "NonHermitianFormError", "EigensolverError", "NonRealFrequencyError",
    "PairingError", "LadderCheckError", "LatticeCapError",
    "LatticeUnavailableError",
    "FockCapError", "HermiticityError", "NonFiniteResultError",
    # phase space
    "PhaseSpaceBasis", "LinearForm", "QuadraticForm", "AdjointMatrix",
    "make_quadratic_form", "adjoint_representation", "linear_commutator",
    "quadratic_commutator",
    # spectral
    "Classification", "EigenCluster", "EigenData", "FrequencyPair",
    "SpectrumReport", "LatticeLevel", "eigen_decompose", "pair_frequencies",
    "classify_spectrum", "spectrum_lattice", "ladder_check",
    "vacuum_annihilation_residual",
    # wavefunctions
    "ComplexRational", "PiScale", "ExactAmount", "PolyGaussian", "vacuum",
    "apply_linear_form", "apply_quadratic_form", "inner", "squared_norm",
    "normalized_copy", "build_eigenfunction", "is_scalar_multiple_exact",
    # fock
    "FockTruncation", "OracleSpectrum", "ComparisonReport", "ComparisonRow",
    "build_fock_matrix", "oracle_spectrum",
    "compare_with_lattice",
    # models
    "PhysicalParameters", "DimensionlessModel", "LadderSpec", "ScanSample",
    "Transition", "PhaseScanResult",
    "reduce_to_dimensionless", "build_model", "isotropic_form",
    "angular_momentum_form", "sb_operator", "symmetric_ladders",
    "symmetric_raising_pair", "symmetric_energy",
    "random_positive_definite_form", "phase_scan",
]
