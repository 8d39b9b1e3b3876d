"""Tilted-kernel spectral computations.

The annealed moment growth of the environment odds is governed by the
nonnegative kernel ``H_beta(x, y) = H(x, y) * rho(y)**beta``; its log
spectral radius is the moment Lyapunov exponent, and the tail index
``kappa`` is the unique positive root of that exponent.  Everything here is
a pure function of the model.  The state space is small, so each spectral
quantity is one dense eigensolve; the exponent is convex in ``beta``
(Kingman 1961), so one sign change brackets ``kappa``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .envmodel import EnvironmentSpec, is_irreducible, stationary_distribution
from .errors import LightTailedError, ModelError, NumericalError

__all__ = [
    "RadiusResult",
    "SpectralReport",
    "tilt",
    "spectral_radius",
    "lyapunov_exponent",
    "moment_bracket",
    "solve_kappa",
    "sub_stochastic_radius",
]

LAMBDA_ROOT_TOL = 1e-12
RESIDUAL_TOL = 1e-10
BETA_GRID = 2.0 ** np.arange(-6, 7)
BETA_FLOOR = 2.0**-30  # below, Lambda ~ drift * beta nears its ~1e-16 rounding noise
ROOT_RTOL = 4.0 * np.finfo(float).eps  # the smallest relative tolerance brentq accepts
# Regeneration scheme: the chain regenerates at REGEN_STATE when an
# independent coin with success probability REGEN_COIN comes up.
REGEN_STATE = 0
REGEN_COIN = 0.5


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    eigenvector: np.ndarray
    iterations: int  # always 1 (one eigensolve); the benchmark tracer sums it
    residual: float
    reliable_eigenvector: bool = True


@dataclass(frozen=True)
class SpectralReport:
    """Tail index together with the spectral data the limit laws consume."""

    kappa: float
    beta_grid: np.ndarray
    lambdas: np.ndarray
    radii: np.ndarray
    f_kappa: np.ndarray
    theta_kappa_radius: float
    theta_margin: float
    residual: float


def tilt(spec: EnvironmentSpec, beta: float) -> np.ndarray:
    """Kernel ``H(x, y) * rho(y)**beta``, a new array; ``beta = 0`` gives ``H``."""
    if beta < 0:
        raise ModelError(f"tilt exponent must be >= 0, got {beta}")
    return spec.H * spec.rho[None, :] ** beta


def spectral_radius(M: np.ndarray) -> RadiusResult:
    """Perron root and right eigenvector (largest entry one) of a nonnegative matrix.

    One dense ``eig``; the eigenvalue of largest real part is the Perron root,
    also under periodic adjacency.  ``eig`` balances the matrix, which
    inflates the error in the eigenvector entries of states with a small
    column and a large row; one product ``M v / radius`` damps exactly those.
    For a reducible matrix the eigenvector may vanish on some states and is
    flagged unreliable.
    """
    M = np.asarray(M, dtype=float)
    if np.any(M < 0):
        raise ModelError("spectral radius requires a nonnegative matrix")
    reliable = is_irreducible(M)

    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    v = vecs[:, i].real
    if lam > 0:
        v = M @ v / lam
    v = v / v[np.argmax(np.abs(v))]
    resid = float(np.max(np.abs(M @ v - lam * v)))
    if reliable and lam > 0 and resid > RESIDUAL_TOL * lam:
        raise NumericalError(f"eigen-residual {resid:.3g} exceeds {RESIDUAL_TOL:g} * radius")
    return RadiusResult(
        radius=lam,
        eigenvector=v,
        iterations=1,
        residual=resid,
        reliable_eigenvector=bool(reliable and np.all(v > 0)),
    )


def lyapunov_exponent(spec: EnvironmentSpec, beta: float) -> float:
    """Log spectral radius of the tilted kernel; zero at ``beta = 0``.

    Eigenvalues only: on a strongly graded kernel they stay accurate where
    an eigenvector can miss the residual check.
    """
    if beta == 0.0:
        return 0.0
    return float(np.log(np.max(np.abs(np.linalg.eigvals(tilt(spec, beta))))))


def moment_bracket(spec: EnvironmentSpec) -> tuple[np.ndarray, float | None, float | None]:
    """Lyapunov exponent on ``BETA_GRID`` and ``lo < kappa <= hi``.

    ``Lambda`` is convex with ``Lambda(0) = 0``: ``hi`` is the first grid
    point with ``Lambda >= 0`` and ``lo`` the one before.  Below the grid,
    beta is halved until ``Lambda < 0``, which ends when the drift (the
    slope at zero) is negative; ``lo`` is None past ``BETA_FLOOR``, and
    ``hi`` is None when ``Lambda < 0`` on the whole grid (light tails).
    """
    lams = np.array([lyapunov_exponent(spec, float(b)) for b in BETA_GRID])
    above = np.flatnonzero(lams >= 0.0)
    if above.size == 0:
        return lams, float(BETA_GRID[-1]), None
    if above[0] > 0:
        return lams, float(BETA_GRID[above[0] - 1]), float(BETA_GRID[above[0]])
    hi = float(BETA_GRID[0])
    while hi > BETA_FLOOR:
        lo = hi / 2.0
        if lyapunov_exponent(spec, lo) < 0.0:
            return lams, lo, hi
        hi = lo
    return lams, None, hi


def sub_stochastic_radius(spec: EnvironmentSpec, r: float, kappa: float) -> tuple[float, float]:
    """Spectral radius of the tilted between-regenerations kernel, the
    chain regenerating at ``REGEN_STATE`` with coin ``r``.

    Returns ``(radius, margin)`` where ``margin = 1 - radius`` must be
    positive; a margin below 1e-6 triggers a "regeneration coin too weak"
    warning because downstream block statistics then mix extremely slowly.
    """
    if not (0.0 < r <= 1.0):
        raise ModelError(f"regeneration coin must lie in (0, 1], got {r}")
    theta_k = tilt(spec, kappa)
    theta_k[:, REGEN_STATE] *= 1.0 - r
    radius = spectral_radius(theta_k).radius
    margin = 1.0 - radius
    if margin < 1e-6:
        warnings.warn(
            f"regeneration coin too weak: tilted residual radius {radius:.12g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return radius, margin


def solve_kappa(spec: EnvironmentSpec) -> SpectralReport:
    """Locate the positive root of the moment Lyapunov exponent.

    ``brentq`` to a relative ``4 * eps`` on the :func:`moment_bracket`
    bracket, whose grid values are the report's ``lambdas``.  The report
    carries the Perron vector of the kappa-tilted kernel normalized so that
    ``f[REGEN_STATE] * rho[REGEN_STATE]**kappa = 1``, plus the spectral
    radius of the tilted between-regenerations kernel (coin ``REGEN_COIN``)
    and its margin below one.  A margin that double precision cannot
    resolve only warns (:func:`sub_stochastic_radius`): kappa does not
    depend on it.
    """
    pi = stationary_distribution(spec.H)
    drift = float(pi @ spec.log_rho())
    if drift >= 0.0:
        raise NumericalError(
            f"no kappa: drift condition fails (stationary mean of log rho = {drift:.6g} >= 0)"
        )

    lams, lo, hi = moment_bracket(spec)
    if lo is None:
        raise NumericalError(f"no kappa: Lyapunov exponent is nonnegative down to "
                             f"beta={BETA_FLOOR:g}")
    if hi is None:
        raise LightTailedError(
            "no kappa up to beta=64: Lyapunov exponent stays negative (light-tailed regime)"
        )
    f = functools.partial(lyapunov_exponent, spec)
    kappa = optimize.brentq(f, lo, hi, xtol=ROOT_RTOL * lo, rtol=ROOT_RTOL, disp=False)
    lam = f(kappa)
    if abs(lam) > LAMBDA_ROOT_TOL:
        raise NumericalError(f"kappa root search ended at |Lambda({kappa:.17g})| = "
                             f"{abs(lam):.3g} > {LAMBDA_ROOT_TOL:g}")

    perron = spectral_radius(tilt(spec, kappa))
    f_kappa = perron.eigenvector / (
        perron.eigenvector[REGEN_STATE] * spec.rho[REGEN_STATE] ** kappa
    )
    theta_radius, margin = sub_stochastic_radius(spec, REGEN_COIN, kappa)

    return SpectralReport(
        kappa=kappa,
        beta_grid=BETA_GRID.copy(),
        lambdas=lams,
        radii=np.exp(lams),
        f_kappa=f_kappa,
        theta_kappa_radius=theta_radius,
        theta_margin=margin,
        residual=perron.residual,
    )
