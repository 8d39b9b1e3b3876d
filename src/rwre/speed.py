"""Asymptotic speed of the walk via the per-state crossing-time fixed point.

For a right-transient walk the expected single-site crossing time solves a
linear fixed-point equation in the chain state; its stationary average is
the inverse speed.  The speed is zero exactly when the tail index is at
most one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envmodel import EnvironmentSpec
from .errors import LightTailedError, NumericalError
from . import spectral

__all__ = ["SpeedReport", "CrossCheck", "solve_crossing_profile", "compute_speed", "cross_check"]

XI_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SpeedReport:
    kappa: float
    v: float
    inverse_speed: float | None
    profile: np.ndarray | None

    @property
    def ballistic(self) -> bool:
        return self.v > 0.0


@dataclass(frozen=True)
class CrossCheck:
    inverse_speed: float
    series_estimate: float
    std_error: float
    z_score: float
    consistent: bool


def solve_crossing_profile(spec: EnvironmentSpec) -> np.ndarray:
    """Per-state solution of ``xi = H diag(rho) xi + 1 + 1/rho``.

    Requires the tilted kernel at exponent one to be subcritical (positive
    speed regime); then ``I - H diag(rho)`` is invertible and the dense
    solve plus one residual-correction pass lands below 1e-10.
    """
    lam1 = spectral.lyapunov_exponent(spec, 1.0)
    if lam1 >= 0.0:
        raise NumericalError(
            f"speed is zero; crossing-time profile is unbounded (Lambda(1) = {lam1:.6g} >= 0)"
        )
    A = np.eye(spec.n_states) - spec.H * spec.rho[None, :]
    b = 1.0 + 1.0 / spec.rho
    xi = np.linalg.solve(A, b)
    xi = xi + np.linalg.solve(A, b - A @ xi)
    resid = float(np.max(np.abs(A @ xi - b)))
    if resid > XI_RESIDUAL_TOL or np.any(xi <= 0):
        raise NumericalError(f"crossing-time solve failed: residual {resid:.3g}")
    return xi


def compute_speed(spec: EnvironmentSpec, kappa: float | None = None) -> SpeedReport:
    """Speed report: zero below the critical index, else the fixed-point value.

    ``kappa`` may be passed in from an existing spectral report; otherwise it
    is solved here.  A model whose moment exponent stays negative on the
    whole probe range has light tails and every moment of the crossing time;
    it is treated as ``kappa = inf`` and lands in the positive-speed branch.
    """
    if kappa is None:
        try:
            kappa = spectral.solve_kappa(spec).kappa
        except LightTailedError:
            kappa = float("inf")
    if kappa <= 1.0:
        return SpeedReport(kappa=kappa, v=0.0, inverse_speed=None, profile=None)
    xi = solve_crossing_profile(spec)
    pi = spec.chain.pi
    inv = float(pi @ (spec.rho * xi))
    return SpeedReport(kappa=kappa, v=1.0 / inv, inverse_speed=inv, profile=xi)


def cross_check(report: SpeedReport, series_samples: np.ndarray) -> CrossCheck:
    """Compare the exact inverse speed against ``2 * mean(series) - 1``.

    The series samples come from the tails module; the two quantities agree
    in expectation for ballistic models, and the verdict is "consistent"
    when they sit within four standard errors of each other.  An absolute
    floor of 1e-9 relative to the inverse speed absorbs the series
    truncation bias when the samples are deterministic.
    """
    if not report.ballistic:
        raise NumericalError("cross check is inapplicable: speed is zero")
    samples = np.asarray(series_samples, dtype=float)
    if samples.size < 2:
        raise NumericalError("cross check needs at least two series samples")
    est = 2.0 * float(samples.mean()) - 1.0
    se = 2.0 * float(samples.std(ddof=1)) / np.sqrt(samples.size)
    gap = abs(est - report.inverse_speed)
    floor = 1e-9 * abs(report.inverse_speed)
    z = 0.0 if gap <= floor else (gap / se if se > 0 else float("inf"))
    return CrossCheck(
        inverse_speed=report.inverse_speed,
        series_estimate=est,
        std_error=se,
        z_score=z,
        consistent=bool(z <= 4.0),
    )
