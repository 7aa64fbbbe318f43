"""Exception types shared across the package."""


class KamError(Exception):
    """Base class for all package-specific errors."""


class AliasingError(KamError):
    """Grid too coarse for the requested Fourier cutoff."""


class HermiticityError(KamError):
    """An operator that must be hermitian (or anti-hermitian) is not."""


class DivisorTooSmall(KamError):
    """A small divisor fell below the configured floor.

    Carries the offending indices so callers can report the resonant triple.
    """

    def __init__(self, message, i=None, j=None, k=None, value=None):
        super().__init__(message)
        self.i = i
        self.j = j
        self.k = k
        self.value = value


class FrequencyExcluded(KamError):
    """The frequency left the admissible set during iteration (resonance hit)."""

    def __init__(self, message, triple=None, step=None):
        super().__init__(message)
        self.triple = triple
        self.step = step


class GuardWarning(UserWarning):
    """A smallness/structure guard failed; the run continues and records it."""


class ConvergenceError(KamError):
    """A discretization failed its convergence-by-refinement certificate."""


class ZeroAcceptanceError(KamError):
    """Frequency sampling rejected every candidate (gamma too large)."""


class SchemaError(KamError):
    """A manifest or artifact document failed validation."""

    def __init__(self, message, field_path=None):
        super().__init__(message)
        self.field_path = field_path


class ArtifactError(KamError):
    """A run artifact is missing or fails its checksum."""
