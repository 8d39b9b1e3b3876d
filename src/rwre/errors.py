"""Exception taxonomy: model rejections vs. numerical failures.

The CLI maps ``ModelError`` to exit code 1 and ``NumericalError`` (and its
subclass ``LightTailedError``) to exit code 2; everything else is a bug.
"""

from __future__ import annotations

__all__ = ["ModelError", "NumericalError", "LightTailedError"]


class ModelError(ValueError):
    """A model specification violates a structural requirement."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a result at its tolerance."""


class LightTailedError(NumericalError):
    """The moment exponent stays negative on the whole probe range: no kappa."""

