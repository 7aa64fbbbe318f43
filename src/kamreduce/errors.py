"""Exception types shared across the package."""


class KamError(Exception):
    """Base class for all package-specific errors.

    Keyword fields become attributes: the record a failure carries (the
    offending indices, step or field), which the CLI writes to error.json.
    """

    def __init__(self, message="", **record):
        super().__init__(message)
        self.__dict__.update(record)


class AliasingError(KamError):
    """Grid too coarse for the requested Fourier cutoff."""


class HermiticityError(KamError):
    """An operator that must be hermitian (or anti-hermitian) is not."""


class DivisorTooSmall(KamError):
    """A small divisor fell below the configured floor; carries i, j, k and value."""


class FrequencyExcluded(KamError):
    """The frequency left the admissible set (resonance hit); carries triple and step."""


class GuardWarning(UserWarning):
    """A smallness/structure guard failed; the run continues and records it."""


class ConvergenceError(KamError):
    """The KAM schedule or a discretization did not converge.

    A schedule that stopped carries its norm_history and steps.
    """


class ZeroAcceptanceError(KamError):
    """Frequency sampling rejected every candidate (gamma too large)."""


class SchemaError(KamError):
    """A manifest or artifact document failed validation; carries its field_path."""


class ArtifactError(KamError):
    """A run artifact is missing or fails its checksum."""


class ToleranceExceeded(KamError):
    """The reduced solution and direct propagation differ by more than tol."""
