"""Random walks in Markov-modulated random environments.

Computes the tail index of the annealed hitting-time distribution, the
asymptotic speed, and the stable limit-law normalizations of a
one-dimensional nearest-neighbor walk whose step probabilities are a
function of a finite-state Markov chain, and validates the limit theorems
at desk scale by exact small-instance computation and Monte Carlo.
"""

from .envmodel import (
    ArithmeticSpan,
    EnvironmentSpec,
    ValidationReport,
    detect_arithmetic,
    load_model,
    reverse_kernel,
    stationary_distribution,
    validate,
)
from .errors import LightTailedError, ModelError, NumericalError
from .spectral import SpectralReport, lyapunov_exponent, solve_kappa, spectral_radius, tilt
from .speed import SpeedReport, compute_speed, cross_check, solve_crossing_profile

__all__ = [
    "ArithmeticSpan",
    "EnvironmentSpec",
    "LightTailedError",
    "ModelError",
    "NumericalError",
    "SpectralReport",
    "SpeedReport",
    "ValidationReport",
    "compute_speed",
    "cross_check",
    "detect_arithmetic",
    "load_model",
    "lyapunov_exponent",
    "reverse_kernel",
    "solve_crossing_profile",
    "solve_kappa",
    "spectral_radius",
    "stationary_distribution",
    "tilt",
    "validate",
]

__version__ = "0.1.0"
