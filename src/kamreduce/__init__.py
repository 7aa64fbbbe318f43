"""Numerical KAM reducibility for quasi-periodically forced linear systems.

The package turns i dx/dt = (A + eps P(omega t)) x, with A diagonal with
polynomially growing eigenvalues and P analytic on the torus, into a constant
diagonal normal form by iterated unitary conjugations, and verifies the
result against direct time propagation at the same finite truncation.

Modules
-------
torus         truncated Fourier arithmetic, analytic and weighted norms
diophantine   nonresonance certificates, frequency sampling and measure bounds
homological   one-step generator solve (constant and variable diagonal)
engine        the quadratic iteration with its schedules and bookkeeping
floquet       spectrum assembly, solution reconstruction, direct propagators
oscillator    sinc-DVR anharmonic oscillators as concrete models
models        small synthetic operator families used by tests and manifests
serialize     deterministic JSON artifacts, manifests, checksums
cli           `kamreduce` command line entry point
"""

from .errors import (
    AliasingError,
    ArtifactError,
    ConvergenceError,
    DivisorTooSmall,
    FrequencyExcluded,
    GuardWarning,
    HermiticityError,
    KamError,
    SchemaError,
    ToleranceExceeded,
    ZeroAcceptanceError,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "ArtifactError",
    "ConvergenceError",
    "DivisorTooSmall",
    "FrequencyExcluded",
    "GuardWarning",
    "HermiticityError",
    "KamError",
    "SchemaError",
    "ToleranceExceeded",
    "ZeroAcceptanceError",
    "__version__",
]
