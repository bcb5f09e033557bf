"""Exception hierarchy shared across the package."""


class QuadhamError(Exception):
    """Base class for all analysis failures."""


class BasisMismatchError(QuadhamError):
    """Two objects defined over different phase-space bases were combined."""


class NonHermitianFormError(QuadhamError):
    """A monomial combination does not assemble into a Hermitian form."""


class EigensolverError(QuadhamError):
    """The dense eigensolver failed to converge."""


class NonRealFrequencyError(QuadhamError):
    """Frequency pairing was requested but some eigenvalues are not real."""


class PairingError(QuadhamError):
    """Eigenvalues could not be matched into +/- frequency pairs."""


class LadderCheckError(QuadhamError):
    """A candidate ladder operator failed the eigenvector residual test."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class LatticeUnavailableError(QuadhamError):
    """The classification admits no discrete energy lattice."""


class FockCapError(QuadhamError):
    """Requested truncated basis exceeds the safety cap."""


class LatticeCapError(QuadhamError):
    """Requested lattice enumeration exceeds the state cap."""


class HermiticityError(QuadhamError):
    """An assembled matrix violates Hermiticity beyond tolerance."""


class NonFiniteResultError(QuadhamError, ValueError):
    """A result holds a NaN or infinite float, which has no serialised form."""


class ConfigError(Exception):
    """Invalid CLI configuration or arguments (exit code 2)."""
