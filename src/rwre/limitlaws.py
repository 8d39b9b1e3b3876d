"""Stable-law numerics, normalization schedules, and limit-law checks.

The limit family has characteristic exponent ``-b |t|^kappa (1 + i sgn(t)
f_kappa(t))`` with ``f_kappa = -tan(pi kappa / 2)`` away from ``kappa = 1``
and ``f_1(t) = (2/pi) log t``; its distribution function is evaluated by
sign inversion of the characteristic function (one oscillatory integral on
the half-line).  ``kappa = 2`` is a centered normal with variance ``2 b``;
``kappa < 1`` is supported on the positive axis; ``kappa in (1, 2]`` has
zero mean.

At the boundary index the centering ``n / v`` is the exact mean of the
hitting time at every ``n``, but the heavy right tail that keeps the mean
there leaves the bulk of the finite-n law ``O(1 / log n)`` normalized
units to its left.  That gap vanishes too slowly to ignore at desk scale,
so the boundary-index check fits the location of ``N(shift, 2 b)`` jointly
with the scale and carries both to the position side.  In ``(1, 2)`` the
corrections decay polynomially and the zero-mean law with ``n / v``
centering is checked as is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate

from ._rng import derive_rng
from .envmodel import EnvironmentSpec, detect_arithmetic
from .errors import ModelError, NumericalError

__all__ = [
    "StableParams",
    "FitResult",
    "LimitCheckReport",
    "stable_cdf",
    "normalization",
    "regime_name",
    "fit_b",
    "fit_shift_b",
    "limit_check_T",
    "limit_check_X",
    "transfer_T_to_X",
    "child_seed",
]

LOG_CUT = 34.0  # integrate the inversion out to exp(-34) envelope decay
EPSABS = 2.0e-9
KS_T_THRESHOLD = 0.05
KS_X_THRESHOLD = 0.07
REGIME_TOL = 1e-6
MIN_FIT_SAMPLES = 1000


@dataclass(frozen=True)
class StableParams:
    """Index and scale of the limit law; ``kappa = 2`` has no skew term."""

    kappa: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 2.0):
            raise ModelError(f"stable index must lie in (0, 2], got {self.kappa}")
        if not (self.b > 0.0):
            raise ModelError(f"stable scale must be positive, got {self.b}")


def _skew_coeff(kappa: float) -> float:
    if kappa == 2.0:
        return 0.0
    return -math.tan(math.pi * kappa / 2.0)


def _phase_cut(phase, T: float, bound: float) -> float:
    """Largest t <= T with |phase(t)| <= bound, for phases growing past t=1."""
    if abs(phase(T)) <= bound:
        return T
    lo, hi = min(1.0, T), T
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(phase(mid)) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def _quad(f, a, b, limit, weight=None, wvar=None):
    """quad wrapper: warnings silenced via full_output, returns (value, bound)."""
    if weight is None:
        out = integrate.quad(
            f, a, b, epsabs=EPSABS, epsrel=1e-11, limit=limit, full_output=1
        )
    else:
        out = integrate.quad(
            f, a, b, weight=weight, wvar=wvar, epsabs=EPSABS, limit=limit, full_output=1
        )
    return out[0], out[1]


def _inversion_integral(kappa: float, b: float, x: float) -> tuple[float, float]:
    """``int_0^T exp(-b t^kappa) sin(x t + psi(t)) / t dt`` with error bound.

    ``psi`` is the skew phase of the characteristic exponent.  Near index
    one the skew coefficient diverges, so the linear part of the phase is
    absorbed into the oscillation frequency (a pure translation of the
    law) whenever that reduces the total phase.  The lower end is cut
    where the integrand contributes below 1e-13; the upper end where the
    envelope reaches ``exp(-LOG_CUT)``.  High-frequency cases are split
    into a slow panel plus weighted (oscillatory-rule) panels so the cost
    does not grow with the cycle count.
    """
    T = (LOG_CUT / b) ** (1.0 / kappa)
    c = _skew_coeff(kappa)
    if kappa == 1.0:
        s = 2.0 * b / math.pi
        x_eff = x

        def phase(t):
            return s * t * math.log(t)

        phase_scale = abs(s) * T * (abs(math.log(T)) + 1.0)
    else:
        plain_scale = abs(b * c) * T**kappa
        shift_scale = abs(b * c * (T**kappa - T))
        if shift_scale < plain_scale:
            x_eff = x + b * c

            def phase(t):
                return b * c * (t**kappa - t)

            phase_scale = shift_scale
        else:
            x_eff = x

            def phase(t):
                return b * c * t**kappa

            phase_scale = plain_scale

    def f(t):
        return math.exp(-b * t**kappa) * math.sin(x_eff * t + phase(t)) / t

    ax = abs(x_eff)
    eps = min(
        T / 4.0,
        5e-10 / (ax + 1.0),
        (5e-10 * kappa / (abs(b * c) + b + 1e-300)) ** (1.0 / kappa),
    )

    x_cycles = ax * T / (2.0 * math.pi)
    p_cycles = phase_scale / (2.0 * math.pi)
    if x_cycles + p_cycles <= 60.0:
        limit = max(200, 12 * int(x_cycles + p_cycles) + 60)
        return _quad(f, eps, T, limit)

    # Slow panel boundary: at most ~8 cycles of either phase component below t0.
    bound = 16.0 * math.pi
    t_x = bound / ax if ax > 0 else T
    if kappa != 1.0 and x_eff == x:
        # plain skew phase b*c*t**kappa is monotone from zero
        t_p = (bound / (b * abs(c))) ** (1.0 / kappa) if b * abs(c) > 0 else T
    else:
        # shifted phase vanishes at t = 1 and grows monotonically past it
        t_p = _phase_cut(phase, T, bound)
    t0 = min(T, max(min(t_x, t_p), 2.0 * eps))
    val1, err1 = _quad(f, eps, t0, 800)
    if t0 >= T:
        return val1, err1

    if ax * (T - t0) > 8.0 * math.pi:
        # sin(x t + phase) = sgn(x) sin(|x| t) cos(phase) + cos(|x| t) sin(phase);
        # geometric panels keep the 1/t ramp tame inside each oscillatory rule.
        def a_part(t):
            return math.exp(-b * t**kappa) * math.cos(phase(t)) / t

        def b_part(t):
            return math.exp(-b * t**kappa) * math.sin(phase(t)) / t

        sgn = 1.0 if x_eff > 0 else -1.0
        edges = [t0]
        while edges[-1] < T:
            edges.append(min(edges[-1] * 2.0, T))
        val = val1
        err = err1
        for a_edge, b_edge in zip(edges[:-1], edges[1:]):
            va, ea = _quad(a_part, a_edge, b_edge, 300, weight="sin", wvar=ax)
            vb, eb = _quad(b_part, a_edge, b_edge, 300, weight="cos", wvar=ax)
            val += sgn * va + vb
            err += ea + eb
        return val, err

    val2, err2 = _quad(f, t0, T, 5000)
    return val1 + val2, err1 + err2


def stable_cdf(params: StableParams, x: float) -> float:
    """Distribution function of the limit law, absolute error below 1e-8."""
    val, err = _inversion_integral(params.kappa, params.b, float(x))
    if err > 1e-7:
        raise NumericalError(
            f"characteristic-function inversion did not converge: error bound {err:.3g}"
        )
    return min(max(0.5 + val / math.pi, 0.0), 1.0)


def _cdf_at(params: StableParams, xs: np.ndarray) -> np.ndarray:
    return np.array([stable_cdf(params, float(v)) for v in np.asarray(xs, dtype=float)])


@lru_cache(maxsize=128)
def _ref_quantile(kappa: float, p: float) -> float:
    """Quantile of the unit-scale law by bracketed bisection on the CDF."""
    ref = StableParams(kappa, 1.0)
    lo, hi = -1.0, 1.0
    if kappa < 1.0:
        lo = 0.0
    for _ in range(200):
        if stable_cdf(ref, hi) > p:
            break
        hi *= 2.0
    else:
        raise NumericalError("quantile bracket expansion failed")
    for _ in range(200):
        if kappa < 1.0 or stable_cdf(ref, lo) < p:
            break
        lo *= 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if stable_cdf(ref, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ks_distance(sorted_samples: np.ndarray, cdf_vals: np.ndarray) -> float:
    n = sorted_samples.size
    i = np.arange(n)
    return float(np.max(np.maximum(cdf_vals - i / n, (i + 1) / n - cdf_vals)))


def _adaptive_reference(
    kappa: float, lo: float, hi: float, df_target: float = 0.002
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale CDF table over [lo, hi] with bounded probability gaps.

    Seed nodes are geometric per sign; midpoints are inserted wherever
    adjacent CDF values differ by more than ``df_target``, so linear
    interpolation on the table is accurate to ``df_target`` in probability
    no matter how many decades the argument range spans.
    """
    ref = StableParams(kappa, 1.0)
    mag = max(abs(lo), abs(hi), 1e-300)
    parts = [np.array([lo, hi], dtype=float)]
    if hi > 0:
        pos_lo = lo if lo > 0 else mag * 1e-12
        n = min(400, max(40, int(24 * math.log10(hi / pos_lo) + 1)))
        parts.append(np.geomspace(pos_lo, hi, n))
    if lo < 0:
        neg_hi = -hi if hi < 0 else mag * 1e-12
        n = min(400, max(40, int(24 * math.log10(-lo / neg_hi) + 1)))
        parts.append(-np.geomspace(neg_hi, -lo, n))
    if lo <= 0 <= hi:
        parts.append(np.array([0.0]))
    nodes = np.unique(np.concatenate(parts))
    values = _cdf_at(ref, nodes)

    for _ in range(5):
        gaps = np.flatnonzero(np.diff(values) > df_target)
        if gaps.size == 0 or nodes.size > 4000:
            break
        left, right = nodes[gaps], nodes[gaps + 1]
        mids = np.where(
            left * right > 0,
            np.sign(left) * np.sqrt(np.abs(left) * np.abs(right)),
            0.5 * (left + right),
        )
        mids = np.setdiff1d(mids, nodes)
        if mids.size == 0:
            break
        nodes = np.concatenate([nodes, mids])
        values = np.concatenate([values, _cdf_at(ref, mids)])
        order = np.argsort(nodes)
        nodes, values = nodes[order], values[order]
    return nodes, values


@dataclass(frozen=True)
class FitResult:
    b: float
    ks: float
    cdf_at_samples: np.ndarray = field(repr=False)
    shift: float = 0.0


def _fit_input(samples: np.ndarray, kappa: float):
    """Sorted samples, their quartiles and the quartile-matched scale guess."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < MIN_FIT_SAMPLES:
        raise ModelError(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    q25, q75 = np.quantile(x, [0.25, 0.75])
    if q75 <= q25:
        raise ModelError("degenerate samples: no spread between quartiles")
    ref_iqr = _ref_quantile(kappa, 0.75) - _ref_quantile(kappa, 0.25)
    return x, q25, q75, (q75 - q25) / ref_iqr


def _golden_min(f, lo: float, hi: float, tol: float = 1e-3) -> float:
    """Minimizer of ``f`` on [lo, hi]: a coarse scan picks the basin, golden
    section refines inside it to width ``tol``."""
    coarse = np.linspace(lo, hi, 17)
    ks_coarse = [f(v) for v in coarse]
    j = int(np.argmin(ks_coarse))
    a = coarse[max(j - 1, 0)]
    d = coarse[min(j + 1, len(coarse) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    p = d - inv_phi * (d - a)
    q = a + inv_phi * (d - a)
    fp, fq = f(p), f(q)
    while d - a > tol:
        if fp <= fq:
            d, q, fq = q, p, fp
            p = d - inv_phi * (d - a)
            fp = f(p)
        else:
            a, p, fp = p, q, fq
            q = a + inv_phi * (d - a)
            fq = f(q)
    return 0.5 * (a + d)


def fit_b(samples: np.ndarray, kappa: float) -> FitResult:
    """Scale fit by KS-distance minimization over a golden-section search.

    Away from ``kappa = 1`` the scale family satisfies
    ``F_b(x) = F_1(x / s)`` with ``s = b**(1/kappa)``, so the search runs
    over the linear scale against a precomputed unit-scale CDF table and
    each candidate costs one interpolation; the reported KS is then
    re-evaluated exactly at the sample points.
    """
    x, _, _, s0 = _fit_input(samples, kappa)
    lo, hi = math.log(s0 / 32.0), math.log(s0 * 32.0)

    if kappa != 1.0:
        scaled_ends = [x[0] / math.exp(lo), x[0] / math.exp(hi),
                       x[-1] / math.exp(lo), x[-1] / math.exp(hi)]
        nodes, f_ref = _adaptive_reference(kappa, min(scaled_ends), max(scaled_ends))

        def ks_of(log_s: float) -> float:
            return _ks_distance(x, np.interp(x / math.exp(log_s), nodes, f_ref))

    else:
        thin = x[:: max(1, x.size // 400)]
        m = thin.size
        i = np.arange(m)

        def ks_of(log_s: float) -> float:
            vals = _cdf_at(StableParams(1.0, math.exp(log_s)), thin)
            return float(np.max(np.maximum(vals - i / m, (i + 1) / m - vals)))

    s_hat = math.exp(_golden_min(ks_of, lo, hi))
    b_hat = s_hat**kappa

    if kappa != 1.0:
        exact = _cdf_at(StableParams(kappa, 1.0), x / s_hat)
    else:
        exact = _cdf_at(StableParams(1.0, b_hat), x)
    return FitResult(b=b_hat, ks=_ks_distance(x, exact), cdf_at_samples=exact)


def fit_shift_b(samples: np.ndarray) -> FitResult:
    """Joint location and scale fit of the index-two law ``N(shift, 2 b)``.

    Same KS minimization as :func:`fit_b`, with the location free as well:
    ``F(x) = F_1((x - shift) / s)``, ``s = sqrt(b)``.  The shift is searched
    between the sample quartiles, the scale profiled out at each candidate
    shift; every candidate reads one unit-scale CDF table built for the
    whole search range, and the reported KS is re-evaluated exactly at the
    sample points.
    """
    x, q25, q75, s0 = _fit_input(samples, 2.0)
    s_min = s0 / 32.0
    lo, hi = math.log(s_min), math.log(s0 * 32.0)
    nodes, f_ref = _adaptive_reference(2.0, (x[0] - q75) / s_min, (x[-1] - q25) / s_min)

    def ks_of(shift: float, log_s: float) -> float:
        return _ks_distance(x, np.interp((x - shift) / math.exp(log_s), nodes, f_ref))

    def best_log_s(shift: float) -> float:
        return _golden_min(lambda log_s: ks_of(shift, log_s), lo, hi)

    shift = _golden_min(lambda d: ks_of(d, best_log_s(d)), q25, q75,
                        tol=1e-3 * (q75 - q25))
    s_hat = math.exp(best_log_s(shift))
    exact = _cdf_at(StableParams(2.0, 1.0), (x - shift) / s_hat)
    return FitResult(b=s_hat**2, ks=_ks_distance(x, exact), cdf_at_samples=exact,
                     shift=shift)


# ---------------------------------------------------------------------------
# Normalization schedules
# ---------------------------------------------------------------------------


def _classify(kappa: float) -> str:
    if abs(kappa - 1.0) <= REGIME_TOL:
        return "{1}"
    if abs(kappa - 2.0) <= REGIME_TOL:
        return "{2}"
    if kappa < 1.0:
        return "(0,1)"
    if kappa < 2.0:
        return "(1,2)"
    raise NumericalError(
        f"kappa = {kappa:.6g} > 2: standard CLT regime, outside the stable-law scope"
    )


def regime_name(kappa: float) -> str:
    return _classify(kappa)


def normalization(
    kappa: float,
    n: int,
    v: float | None = None,
    samples: np.ndarray | None = None,
) -> tuple[float, float]:
    """Centering and scale for hitting times at level ``n``.

    Zero centering below index one; empirical median centering at index one
    (the analytic centering constant is not computable, see the module
    docs); ballistic centering ``n / v`` above; scale ``n**(1/kappa)``
    except for the ``sqrt(n log n)`` boundary case.  In that case ``n / v``
    is the exact mean, not the location of the bulk: the normalized law
    sits ``O(1 / log n)`` to the left of zero, and the limit check fits
    that shift rather than building it into the centering.
    """
    regime = _classify(kappa)
    if regime == "(0,1)":
        return 0.0, float(n) ** (1.0 / kappa)
    if regime == "{1}":
        if samples is None:
            raise ModelError("index-one normalization needs samples for the centering")
        return float(np.median(samples)), float(n)
    if v is None or v <= 0.0:
        raise ModelError("ballistic normalization needs a positive speed")
    center = n / v
    if regime == "(1,2)":
        return center, float(n) ** (1.0 / kappa)
    return center, math.sqrt(n * math.log(n))


def _snap(kappa: float) -> float:
    if abs(kappa - 1.0) <= REGIME_TOL:
        return 1.0
    if abs(kappa - 2.0) <= REGIME_TOL:
        return 2.0
    return kappa


# ---------------------------------------------------------------------------
# End-to-end checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitCheckReport:
    """Outcome of one limit-law check on the normalized sample.

    ``normalized`` holds ``(sample - center) / scale`` sorted ascending and
    ``fitted_cdf`` the fitted law at those points.  The fitted law is the
    regime's limit with scale ``b``, translated by ``shift`` (in normalized
    units).  The shift is fitted only at the boundary index, where the bulk
    of the finite-n law sits ``O(1 / log n)`` away from the exact mean
    centering; it is 0.0 in every other regime.  ``b_refit`` is the
    position side's round-trip diagnostic: shape parameters refit on the
    position samples mapped back to the hitting-time scale.
    """

    side: str
    regime: str
    kappa: float
    n: int
    replicas: int
    b: float
    ks: float
    ks_threshold: float | None
    passed: bool | None
    censored_fraction: float
    center: float
    scale: float
    normalized: np.ndarray = field(repr=False)
    fitted_cdf: np.ndarray = field(repr=False)
    b_refit: float | None = None
    shift: float = 0.0


def _warn_if_arithmetic(spec: EnvironmentSpec) -> None:
    span = detect_arithmetic(spec)
    if span.arithmetic:
        warnings.warn(
            "model is arithmetic: limit constants oscillate log-periodically; "
            "use a non-arithmetic model for limit-law checks",
            RuntimeWarning,
            stacklevel=3,
        )


def limit_check_T(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    kappa: float | None = None,
    v: float | None = None,
    method: str = "blocks",
    step_cap: int | None = None,
) -> LimitCheckReport:
    """Simulate hitting times, normalize per regime, fit the scale, report KS.

    At the boundary index the location is fitted jointly with the scale
    (:func:`fit_shift_b`); every other regime fits the scale alone.
    """
    from . import spectral, speed as speedmod, walksim

    if kappa is None:
        kappa = spectral.solve_kappa(spec).kappa
    kappa = _snap(kappa)
    _warn_if_arithmetic(spec)
    regime = _classify(kappa)
    if regime in ("(1,2)", "{2}") and v is None:
        v = speedmod.compute_speed(spec, kappa).v

    sample = walksim.annealed_hitting_sample(
        spec, n, replicas, seed, step_cap=step_cap, method=method
    )
    vals = sample.complete
    censored_fraction = 1.0 - vals.size / replicas
    if censored_fraction > 0.01:
        warnings.warn(
            f"censoring fraction {censored_fraction:.3f} exceeds 1%",
            RuntimeWarning,
            stacklevel=2,
        )
    center, scale = normalization(kappa, n, v, samples=vals)
    z = np.sort((vals - center) / scale)
    fit = fit_shift_b(z) if regime == "{2}" else fit_b(z, kappa)
    threshold = None if regime == "{1}" else KS_T_THRESHOLD
    return LimitCheckReport(
        side="T",
        regime=regime,
        kappa=kappa,
        n=n,
        replicas=replicas,
        b=fit.b,
        ks=fit.ks,
        ks_threshold=threshold,
        passed=None if threshold is None else bool(fit.ks < threshold),
        censored_fraction=censored_fraction,
        center=center,
        scale=scale,
        normalized=z,
        fitted_cdf=fit.cdf_at_samples,
        shift=fit.shift,
    )


def transfer_T_to_X(
    kappa: float,
    t_report: LimitCheckReport,
    v: float | None,
    x_samples: np.ndarray,
    n: int,
) -> LimitCheckReport:
    """Check the position law against the transferred hitting-time law.

    The fitted hitting-time scale maps deterministically to the position
    side: below index one the laws are linked by the inverse-power
    transform with the same scale; in the ballistic regimes the position
    fluctuation is ``-v**(1 + 1/kappa)`` times the hitting-time one, so the
    scale transfers as ``b * v**(kappa + 1)`` and the boundary-index shift
    as ``-v**(1 + 1/kappa) * shift``.  The position side has no free
    parameter.  A fresh scale (and, at the boundary index, shift) is also
    refit on the mapped samples for round-trip diagnostics.
    """
    kappa = _snap(kappa)
    regime = _classify(kappa)
    xs = np.asarray(x_samples, dtype=float)
    b_t = t_report.b
    shift = 0.0

    if regime == "(0,1)":
        center, scale = 0.0, float(n) ** kappa
        z = np.sort((xs - center) / scale)
        ref = StableParams(kappa, 1.0)
        cdf = np.zeros(z.size)
        pos = z > 0
        cdf[pos] = 1.0 - _cdf_at(ref, z[pos] ** (-1.0 / kappa) * b_t ** (-1.0 / kappa))
        b_used = b_t
        b_refit = None
    elif regime == "{1}":
        if v is None:
            raise ModelError("index-one transfer needs the speed for reporting")
        center = float(np.median(xs))
        scale = n / math.log(n) ** 2
        z = np.sort((xs - center) / scale)
        fit = fit_b(z, 1.0)
        cdf = fit.cdf_at_samples
        b_used = fit.b
        b_refit = fit.b
    else:
        if v is None or v <= 0:
            raise ModelError("ballistic transfer needs a positive speed")
        if regime == "(1,2)":
            center, scale = n * v, float(n) ** (1.0 / kappa)
        else:
            center, scale = n * v, math.sqrt(n * math.log(n))
        z = np.sort((xs - center) / scale)
        b_used = b_t * v ** (kappa + 1.0)
        ref = StableParams(kappa, 1.0)
        if regime == "(1,2)":
            cdf = 1.0 - _cdf_at(ref, -z * b_used ** (-1.0 / kappa))
            mapped = -z / v ** (1.0 + 1.0 / kappa)
            b_refit = fit_b(np.sort(mapped), kappa).b
        else:
            shift = -(v**1.5) * t_report.shift
            cdf = _cdf_at(ref, (z - shift) * b_used ** (-1.0 / kappa))
            b_refit = fit_shift_b(-z / v**1.5).b

    ks = _ks_distance(z, cdf)
    threshold = None if regime == "{1}" else KS_X_THRESHOLD
    return LimitCheckReport(
        side="X",
        regime=regime,
        kappa=kappa,
        n=n,
        replicas=xs.size,
        b=b_used,
        ks=ks,
        ks_threshold=threshold,
        passed=None if threshold is None else bool(ks < threshold),
        censored_fraction=0.0,
        center=center,
        scale=scale,
        normalized=z,
        fitted_cdf=cdf,
        b_refit=b_refit,
        shift=shift,
    )


def limit_check_X(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    t_report: LimitCheckReport | None = None,
    kappa: float | None = None,
    v: float | None = None,
    step_cap: int | None = None,
) -> LimitCheckReport:
    """Sample positions at time ``n`` and run the transfer check; without
    ``t_report``, first run the hitting-time side with ``step_cap``."""
    from . import spectral, speed as speedmod, walksim

    if kappa is None:
        kappa = t_report.kappa if t_report is not None else spectral.solve_kappa(spec).kappa
    kappa = _snap(kappa)
    regime = _classify(kappa)
    if regime != "(0,1)" and v is None:
        v = speedmod.compute_speed(spec, kappa).v
    if t_report is None:
        t_report = limit_check_T(
            spec, n, replicas, child_seed(seed, 1), kappa=kappa, v=v, step_cap=step_cap
        )
    xs = walksim.annealed_position_sample(spec, n, replicas, child_seed(seed, 2))
    return transfer_T_to_X(kappa, t_report, v, xs, n)


def child_seed(seed: int, k: int) -> int:
    """Derived sub-seed so sibling experiments never share a stream."""
    return int(derive_rng(seed, k, 0xC0FFEE).integers(0, 2**63 - 1))
