"""Exception taxonomy: model rejections vs. numerical failures.

The CLI maps ``ModelError`` to exit code 1 and ``NumericalError`` to exit
code 2; everything else is a bug.
"""

from __future__ import annotations

__all__ = ["ModelError", "NumericalError", "LightTailedError", "WindowError"]


class ModelError(ValueError):
    """A model specification violates a structural requirement."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a result at its tolerance."""


class LightTailedError(NumericalError):
    """The moment exponent stays negative on the whole probe range: no kappa."""


class WindowError(NumericalError):
    """A walk left the sampled environment window and the window is fixed."""

    def __init__(self, message: str, deepest_site: int):
        super().__init__(message)
        self.deepest_site = deepest_site
