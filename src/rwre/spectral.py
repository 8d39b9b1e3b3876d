"""Tilted-kernel spectral computations.

The annealed moment growth of the environment odds is governed by the
nonnegative kernel ``H_beta(x, y) = H(x, y) * rho(y)**beta``; its log
spectral radius is the moment Lyapunov exponent, and the tail index
``kappa`` is the unique positive root of that exponent.  Everything here is
a pure function of the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .envmodel import EnvironmentSpec, is_irreducible, stationary_distribution
from .errors import LightTailedError, ModelError, NumericalError

__all__ = [
    "TiltedKernel",
    "RadiusResult",
    "SpectralReport",
    "tilt",
    "spectral_radius",
    "lyapunov_exponent",
    "solve_kappa",
    "sub_stochastic_radius",
]

LAMBDA_ROOT_TOL = 1e-12
RESIDUAL_TOL = 1e-10
BETA_GRID = 2.0 ** np.arange(-6, 7)


@dataclass(frozen=True)
class TiltedKernel:
    """Entrywise tilt of the transition matrix by ``rho**beta``."""

    beta: float
    M: np.ndarray


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    regularized: bool = False
    reliable_eigenvector: bool = True


@dataclass(frozen=True)
class SpectralReport:
    """Tail index together with the spectral data the limit laws consume."""

    kappa: float
    beta_grid: np.ndarray
    lambdas: np.ndarray
    radii: np.ndarray
    f_kappa: np.ndarray
    regen_state: int
    coin: float
    theta_kappa_radius: float
    theta_margin: float
    residual: float


def tilt(spec: EnvironmentSpec, beta: float) -> TiltedKernel:
    """Kernel ``H(x, y) * rho(y)**beta``; ``beta = 0`` returns ``H`` itself."""
    if beta < 0:
        raise ModelError(f"tilt exponent must be >= 0, got {beta}")
    return TiltedKernel(beta=float(beta), M=spec.H * spec.rho[None, :] ** beta)


def _power_iteration(M: np.ndarray, tol: float, max_iter: int, detect_period=True):
    k = M.shape[0]
    v = np.full(k, 1.0)
    lam1 = lam2 = np.nan
    best = (None, v, 0, float("inf"))
    for it in range(1, max_iter + 1):
        w = M @ v
        lam = float(np.max(np.abs(w)))
        if lam == 0.0:
            return 0.0, v, it, 0.0
        w = w / lam
        resid = float(np.max(np.abs(M @ w - lam * w)))
        if resid <= 4.0 * tol * max(lam, 1e-300):
            return lam, w, it, resid
        if resid < best[3]:
            best = (lam, w, it, resid)
        elif it - best[2] > 1024 and best[3] <= 1e-11 * max(lam, 1e-300):
            # the residual has hit its floating-point floor; accept the best
            return best
        # Exact period-2 estimate cycling (machine-level agreement two steps
        # apart while the single-step swing stays large) means the adjacency
        # is periodic; bail out so the caller can shift the diagonal.
        if (
            detect_period
            and it > 512
            and abs(lam - lam2) < 1e-13 * lam
            and abs(lam - lam1) > 1e-4 * lam
        ):
            return None, v, it, float("inf")
        lam1, lam2 = lam, lam1
        v = w
    if best[3] <= 1e-11 * max(best[0] or 0.0, 1e-300):
        return best
    return None, v, max_iter, float("inf")


def spectral_radius(M: np.ndarray, tol: float = 1e-13, max_iter: int = 100_000) -> RadiusResult:
    """Perron root and positive right eigenvector of a nonnegative matrix.

    Plain power iteration; if it fails to settle (periodic adjacency), the
    radius is recovered from the diagonally shifted matrix ``M + eta*I``
    (which has the same eigenvectors) and flagged as period-regularized.
    For a reducible matrix the radius is still the maximum over blocks, but
    the eigenvector may vanish on some states and is flagged unreliable.
    """
    M = np.asarray(M, dtype=float)
    if np.any(M < 0):
        raise ModelError("spectral radius requires a nonnegative matrix")
    reliable = is_irreducible(M)

    lam, v, it, resid = _power_iteration(M, tol, max_iter)
    regularized = False
    if lam is None:
        eta = 1e-3 * float(np.max(M.sum(axis=1)))
        lam_shift, v, it2, _ = _power_iteration(
            M + eta * np.eye(M.shape[0]), tol, max_iter, detect_period=False
        )
        if lam_shift is None:
            raise NumericalError("power iteration failed even after diagonal shift")
        lam = lam_shift - eta
        it += it2
        resid = float(np.max(np.abs(M @ v - lam * v)))
        regularized = True

    vmax = float(v.max())
    if vmax > 0:
        v = v / vmax
    if reliable and lam > 0 and resid > RESIDUAL_TOL * lam:
        raise NumericalError(f"eigen-residual {resid:.3g} exceeds {RESIDUAL_TOL:g} * radius")
    return RadiusResult(
        radius=lam,
        eigenvector=v,
        iterations=it,
        residual=resid,
        regularized=regularized,
        reliable_eigenvector=bool(reliable and np.all(v > 0)),
    )


def lyapunov_exponent(spec: EnvironmentSpec, beta: float) -> float:
    """Log spectral radius of the tilted kernel; zero at ``beta = 0``."""
    if beta == 0.0:
        return 0.0
    return float(np.log(spectral_radius(tilt(spec, beta).M).radius))


def _theta_kernel(spec: EnvironmentSpec, r: float, regen_state: int) -> np.ndarray:
    theta = spec.H.copy()
    theta[:, regen_state] *= 1.0 - r
    return theta


def sub_stochastic_radius(
    spec: EnvironmentSpec, r: float, kappa: float, regen_state: int = 0
) -> tuple[float, float]:
    """Spectral radius of the tilted between-regenerations kernel.

    Returns ``(radius, margin)`` where ``margin = 1 - radius`` must be
    positive; a margin below 1e-6 triggers a "regeneration coin too weak"
    warning because downstream block statistics then mix extremely slowly.
    """
    if not (0.0 < r <= 1.0):
        raise ModelError(f"regeneration coin must lie in (0, 1], got {r}")
    if not (0 <= regen_state < spec.n_states):
        raise ModelError(f"regeneration state {regen_state} out of range")
    theta_k = _theta_kernel(spec, r, regen_state) * spec.rho[None, :] ** kappa
    radius = spectral_radius(theta_k).radius
    margin = 1.0 - radius
    if margin < 1e-6:
        warnings.warn(
            f"regeneration coin too weak: tilted residual radius {radius:.12g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return radius, margin


def solve_kappa(
    spec: EnvironmentSpec, regen_state: int = 0, coin: float = 0.5
) -> SpectralReport:
    """Locate the positive root of the moment Lyapunov exponent.

    Bracketing starts on the geometric grid ``2**-6 .. 2**6`` (extended
    three octaves further down if the root is tiny) and is refined by
    bisection-safeguarded secant steps until ``|Lambda| < 1e-12``.  The
    report carries the Perron vector of the kappa-tilted kernel normalized
    so that ``f[regen_state] * rho[regen_state]**kappa = 1``, plus the
    spectral radius of the tilted between-regenerations kernel, which must
    sit strictly below one.
    """
    pi = stationary_distribution(spec.H)
    drift = float(pi @ spec.log_rho())
    if drift >= 0.0:
        raise NumericalError(
            f"no kappa: drift condition fails (stationary mean of log rho = {drift:.6g} >= 0)"
        )

    grid = np.concatenate([2.0 ** np.arange(-9, -6), BETA_GRID])
    lams = np.array([lyapunov_exponent(spec, float(b)) for b in grid])

    lo = hi = None
    f_lo = f_hi = None
    for b, lam in zip(grid, lams):
        if lam < 0.0:
            lo, f_lo = float(b), float(lam)
        elif lo is not None:
            hi, f_hi = float(b), float(lam)
            break
    if lo is None:
        raise NumericalError("no kappa: Lyapunov exponent is nonnegative at every probe")
    if hi is None:
        raise LightTailedError(
            "no kappa up to beta=64: Lyapunov exponent stays negative (light-tailed regime)"
        )

    kappa, _ = _refine_root(spec, lo, hi, f_lo, f_hi)

    tilted = tilt(spec, kappa).M
    perron = spectral_radius(tilted)
    f = perron.eigenvector
    scale = f[regen_state] * spec.rho[regen_state] ** kappa
    f_kappa = f / scale
    theta_radius, margin = sub_stochastic_radius(spec, coin, kappa, regen_state)
    if theta_radius >= 1.0:
        raise NumericalError(
            f"tilted residual kernel has radius {theta_radius:.6g} >= 1; "
            "regeneration construction is invalid"
        )

    report_grid = BETA_GRID.copy()
    report_lams = np.array([lyapunov_exponent(spec, float(b)) for b in report_grid])
    return SpectralReport(
        kappa=kappa,
        beta_grid=report_grid,
        lambdas=report_lams,
        radii=np.exp(report_lams),
        f_kappa=f_kappa,
        regen_state=regen_state,
        coin=coin,
        theta_kappa_radius=theta_radius,
        theta_margin=margin,
        residual=perron.residual,
    )


def _refine_root(spec, lo, hi, f_lo, f_hi, max_iter: int = 200):
    """Safeguarded secant on the Lyapunov exponent over a sign-change bracket."""
    if abs(f_lo) <= LAMBDA_ROOT_TOL:
        return lo, f_lo
    if abs(f_hi) <= LAMBDA_ROOT_TOL:
        return hi, f_hi
    for _ in range(max_iter):
        if f_hi != f_lo:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        else:
            x = 0.5 * (lo + hi)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        f = lyapunov_exponent(spec, x)
        if abs(f) <= LAMBDA_ROOT_TOL:
            return x, f
        if f < 0.0:
            lo, f_lo = x, f
        else:
            hi, f_hi = x, f
        if hi - lo < 1e-15 * max(1.0, hi):
            return x, f
    raise NumericalError(
        f"kappa refinement did not reach |Lambda| < {LAMBDA_ROOT_TOL:g}; "
        f"best bracket [{lo:.17g}, {hi:.17g}]"
    )
