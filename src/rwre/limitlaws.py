"""Stable-law numerics, normalization schedules, and limit-law checks.

The limit family has characteristic exponent ``-b |t|^kappa (1 + i sgn(t)
f_kappa(t))`` with ``f_kappa = -tan(pi kappa / 2)`` away from ``kappa = 1``
and ``f_1(t) = (2/pi) log t``: Nolan's S1 law with ``beta = 1`` and scale
``b**(1/kappa)``.  ``kappa = 2`` is a centered normal with variance ``2 b``;
``kappa < 1`` is supported on the positive axis; ``kappa in (1, 2]`` has
zero mean.  The distribution function is evaluated for a whole vector of
points at once from Nolan's non-oscillatory integral (J. P. Nolan, 1997,
Numerical calculation of stable densities and distribution functions,
Stoch. Models 13(4)) on a fixed tanh-sinh rule.  A scale fit scores its
candidates on one table of the unit-scale law with a measured error bound
and re-scores exactly only the comparisons that bound cannot settle, so it
returns the scale the exact search would.

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

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

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

# Nolan's integral runs on one fixed tanh-sinh rule: 121 nodes on [-1, 1]
# (step 0.06 out to |t| = 3.6) on each side of the angle where the
# integrand turns, which 40 bisection steps locate.  QUAD_TOL bounds the
# rule's own error estimate; it reads at most 1.4e-6 (index one) on a sweep
# of kappa in [0.2, 2) and |x| from 1e-6 to 1e8 scale units, where the
# values themselves agree with a three-times finer rule to about 1e-9.
# Nodes are kept as 1 - |tanh u|, their distance from the nearer end.
_TS_T = 0.06 * np.arange(-60, 61)
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_GAP = np.exp(-np.abs(_TS_U)) / np.cosh(_TS_U)
_TS_WEIGHTS = 0.06 * 0.5 * np.pi * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2
SPLIT_STEPS = 40
QUAD_TOL = 1e-5
CDF_CHUNK = 2048
KS_T_THRESHOLD = 0.05
KS_X_THRESHOLD = 0.07
REGIME_TOL = 1e-6
MIN_FIT_SAMPLES = 1000
FIT_POINTS = 2000
# fit_b's table of the unit-scale CDF: nodes uniform in log|u|, 4-point cubic
TABLE_STEP = 0.01
# slack on a score comparison for rounding in u and in the sums
SCORE_ROUNDING = 1e-12

log = logging.getLogger(__name__)


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


def _nolan_cdf(kappa: float, b: float, x: np.ndarray) -> np.ndarray:
    """Nolan's (1997) integral for the S1 law with ``beta = 1``, ``kappa != 2``.

    The scale is ``b**(1/kappa)`` (``b`` at index one, after the S1 shift
    ``(2/pi) b log b``).  Each point's CDF is ``(1/pi) int exp(-g)`` over
    an angle range, with ``log g = c(x) + log V`` and ``V`` monotone; the
    negative half-line above index one reflects to ``beta = -1``.
    """
    if kappa == 1.0:
        def log_v(th):
            a = 0.5 * math.pi + th
            return math.log(2.0 / math.pi) + np.log(a / np.cos(th)) + a * np.tan(th)

        z = (x - 2.0 / math.pi * b * math.log(b)) / b
        F, err = _split_integral(log_v, -0.5 * math.pi * z, -0.5 * math.pi, 0.5 * math.pi, True)
    else:
        e = 1.0 / (kappa - 1.0)
        lead = e * math.log(abs(math.cos(0.5 * math.pi * kappa)))

        def log_v_edge(w):
            # w = theta + pi/2 below index one, pi/2 - theta on the reflected side: V is
            # finite at w = 0, where cos(theta) and the skew factor vanish; kappa w <= pi.
            sin = np.sin(w)
            return (lead + kappa * e * np.log(sin / np.sin(np.minimum(kappa * w, math.pi)))
                    + np.log(np.sin(abs(kappa - 1.0) * w) / sin))

        z = x / b ** (1.0 / kappa)
        F = np.zeros(x.size)
        pos = z > 0.0
        if kappa < 1.0:
            F[pos], err = _split_integral(log_v_edge, kappa * e * np.log(z[pos]),
                                          0.0, math.pi, True)
        else:
            theta0 = 0.5 * math.pi - math.pi / kappa

            def log_v(th):
                cos = np.cos(th)
                return (lead + kappa * e * np.log(cos / np.sin(kappa * (theta0 + th)))
                        + np.log(np.cos(kappa * theta0 + (kappa - 1.0) * th) / cos))

            F_pos, err = _split_integral(log_v, kappa * e * np.log(z[pos]),
                                         -theta0, 0.5 * math.pi, False)
            F[pos] = 1.0 - F_pos
            F[z < 0.0], err_neg = _split_integral(log_v_edge, kappa * e * np.log(-z[z < 0.0]),
                                                  0.0, math.pi / kappa, True)
            F[z == 0.0] = 1.0 / kappa
            err = np.concatenate([err, err_neg])
    worst = float(err.max(initial=0.0))
    if not worst <= QUAD_TOL:  # a NaN fails too
        raise NumericalError(f"stable CDF quadrature did not converge: error estimate {worst:.3g}")
    return np.clip(F, 0.0, 1.0)


def _split_integral(log_v, c: np.ndarray, lower: float, upper: float, increasing: bool):
    """``(1/pi) int_lower^upper exp(-exp(c + log_v(theta))) dtheta`` per ``c``,
    with the rule's error estimate (full sum minus every-other-node sum).

    The integrand turns between 1 and 0 where ``c + log_v = 0``; one
    bisection over all points locates that angle, and each side of it gets
    the tanh-sinh rule, every node inside or on the ends of its side.
    """
    if c.size == 0:
        return c, c
    lo = np.full(c.size, lower)
    hi = np.full(c.size, upper)
    a, d = lo, hi
    with np.errstate(all="ignore"):
        for _ in range(SPLIT_STEPS):
            mid = 0.5 * (a + d)
            past = (c + log_v(mid) > 0.0) == increasing
            d = np.where(past, mid, d)
            a = np.where(past, a, mid)
        split = 0.5 * (a + d)
        total = np.zeros(c.size)
        err = np.zeros(c.size)
        for left, right in ((lo, split), (split, hi)):
            half = (0.5 * (right - left))[:, None]
            theta = np.where(_TS_T <= 0.0, left[:, None] + half * _TS_GAP,
                             right[:, None] - half * _TS_GAP)
            f = np.exp(-np.exp(c[:, None] + log_v(theta)))
            f *= half * _TS_WEIGHTS
            part = f.sum(axis=1)
            total += part
            err += np.abs(part - 2.0 * f[:, ::2].sum(axis=1))
    return total / math.pi, err / math.pi


def stable_cdf(params: StableParams, x: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the limit law at ``x``: a float for a
    scalar, an array of the same shape for an array.

    ``kappa = 2`` is the normal CDF with variance ``2 b``; every other
    index is Nolan's integral on a fixed tanh-sinh rule (:func:`_nolan_cdf`),
    accurate to about 1e-9, run on at most ``CDF_CHUNK`` points at a time.
    ``x = -inf, inf`` give 0 and 1, a NaN gives NaN.
    """
    xs = np.asarray(x, dtype=float)
    if params.kappa == 2.0:
        F = ndtr(xs / math.sqrt(2.0 * params.b))
    else:
        F = np.where(np.isnan(xs), np.nan, (xs > 0.0).astype(float))
        finite = np.isfinite(xs)
        parts = np.split(xs[finite], range(CDF_CHUNK, int(finite.sum()), CDF_CHUNK))
        F[finite] = np.concatenate([_nolan_cdf(params.kappa, params.b, p) for p in parts])
    return float(F) if F.ndim == 0 else F


@lru_cache(maxsize=128)
def _ref_quantile(kappa: float, p: float) -> float:
    """Quantile of the unit-scale law: bracketed on a signed geometric grid,
    then narrowed by 64-way sections, one vector CDF call each."""
    ref = StableParams(kappa, 1.0)
    mags = np.geomspace(1e-8, 1e12, 201)
    grid = np.concatenate([-mags[::-1], [0.0], mags])
    for _ in range(6):
        j = int(np.searchsorted(stable_cdf(ref, grid), p))  # F[j-1] < p <= F[j]
        if j == 0 or j == grid.size:
            raise NumericalError(f"quantile {p} of the index-{kappa} law is off the grid")
        grid = np.linspace(grid[j - 1], grid[j], 65)
    return float(0.5 * (grid[0] + grid[-1]))


def _ks_distance(sorted_samples: np.ndarray, cdf_vals: np.ndarray) -> float:
    n = sorted_samples.size
    i = np.arange(n)
    return float(np.max(np.maximum(cdf_vals - i / n, (i + 1) / n - cdf_vals)))


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


def _golden_min(f, lo: float, hi: float, tol: float = 1e-3, exact=None,
                slack: float = 0.0) -> float:
    """Minimizer of ``f`` on [lo, hi]: a coarse scan picks the basin, golden
    section refines inside it to width ``tol``.

    With ``exact``, ``f`` is an estimate within ``slack / 2`` of it: the
    search takes every decision the estimates do not settle by more than
    ``slack`` on ``exact`` instead, and so returns the point that the same
    search over ``exact`` returns.
    """
    coarse = np.linspace(lo, hi, 17)
    ks_coarse = np.array([f(v) for v in coarse])
    j = int(np.argmin(ks_coarse))
    if exact is not None:
        near = np.flatnonzero(ks_coarse <= ks_coarse[j] + slack)
        if near.size > 1:
            j = int(near[np.argmin([exact(v) for v in coarse[near]])])
    a = coarse[max(j - 1, 0)]
    d = coarse[min(j + 1, len(coarse) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    p = d - inv_phi * (d - a)
    q = a + inv_phi * (d - a)
    fp, fq = f(p), f(q)
    while d - a > tol:
        if exact is not None and abs(fp - fq) <= slack:
            left = exact(p) <= exact(q)
        else:
            left = fp <= fq
        if left:
            d, q, fq = q, p, fp
            p = d - inv_phi * (d - a)
            fp = f(p)
        else:
            a, p, fp = p, q, fq
            q = a + inv_phi * (d - a)
            fq = f(q)
    return 0.5 * (a + d)


def _unit_args(kappa: float, log_s: float, x: np.ndarray) -> np.ndarray:
    """``u`` with ``F_b(x) = H(u)``, ``H`` the unit-scale law and
    ``b = s**kappa``: ``x / s``, and ``(x - (2/pi) b log b) / b`` at index one."""
    s = math.exp(log_s)
    if kappa == 1.0:
        return (x - 2.0 / math.pi * s * log_s) / s
    return x / s


class _UnitTable:
    """The unit-scale CDF ``H`` of one index at ``u = +-exp(k h)``, one row
    of consecutive ``k`` per sign spanning the given ``u`` of that sign, read
    by 4-point cubic interpolation in ``log|u|``.

    ``eps`` is the table's error bound: the same rule on every other node,
    read at the dropped nodes, as :func:`_split_integral` estimates its own
    error.  That halved table is about 16 times less accurate than the one
    read.  ``read`` leaves NaN where a point has no four nodes around it:
    ``u`` zero or not finite, or outside the nodes of its sign.
    """

    def __init__(self, kappa: float, u: np.ndarray):
        h = self.h = TABLE_STEP
        self.rows = {}
        self.eps = 0.0
        ref = StableParams(kappa, 1.0)
        for sign in (1.0, -1.0):
            t = np.log(u[np.isfinite(u) & (np.sign(u) == sign)] * sign)
            if t.size == 0:
                continue
            k0 = math.floor(t.min() / h) - 3  # every row has >= 7 nodes, one eps reading
            nodes = np.arange(k0, math.ceil(t.max() / h) + 4)
            H = stable_cdf(ref, sign * np.exp(h * nodes))
            even = H[::2]
            halved = (9.0 * (even[1:-2] + even[2:-1]) - even[:-3] - even[3:]) / 16.0
            self.eps = max(self.eps, float(np.max(np.abs(halved - H[3:2 * even.size - 3:2]),
                                                  initial=0.0)))
            self.rows[sign] = (k0, H)

    @property
    def nodes(self) -> int:
        return sum(H.size for _, H in self.rows.values())

    def read(self, u: np.ndarray) -> np.ndarray:
        F = np.full(u.size, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(np.abs(u)) / self.h
        for sign, (k0, H) in self.rows.items():
            p = t - k0
            k = np.floor(p)
            on = (np.sign(u) == sign) & (k >= 1.0) & (k <= H.size - 3)
            f = p[on] - k[on]
            k = k[on].astype(np.intp)
            F[on] = ((f + 1.0) * f * ((f - 1.0) * H[k + 2] - (f - 2.0) * 3.0 * H[k + 1]) / 6.0
                     + (f - 1.0) * (f - 2.0) * ((f + 1.0) * 3.0 * H[k] - f * H[k - 1]) / 6.0)
        return F


def fit_b(samples: np.ndarray, kappa: float) -> FitResult:
    """Scale fit by KS-distance minimization over a golden-section search.

    The search runs over ``log s``, ``s = b**(1/kappa)``, in
    ``[s0 / 32, 32 s0]`` around the quartile-matched guess ``s0``, and
    scores each candidate at every ``n // FIT_POINTS``-th order statistic
    (all of them below ``2 FIT_POINTS`` samples).  Every candidate's law is
    the unit-scale law ``H`` at shifted points (:func:`_unit_args`), so the
    scores are read from one :class:`_UnitTable` of ``H`` spanning the
    points at both ends of the range; points off the table take
    :func:`stable_cdf`'s values.  Two table scores within twice the table's
    error bound are compared on exact scores instead, so the search returns
    the same ``log s`` as on exact scores throughout.  ``b``, the KS (over
    all samples) and ``cdf_at_samples`` are evaluated exactly at it.
    """
    x, _, _, s0 = _fit_input(samples, kappa)
    thin = x[:: max(1, x.size // FIT_POINTS)]
    lo, hi = math.log(s0 / 32.0), math.log(s0 * 32.0)

    def cdf(log_s: float, at: np.ndarray) -> np.ndarray:
        return stable_cdf(StableParams(kappa, math.exp(log_s) ** kappa), at)

    table = _UnitTable(kappa, np.concatenate([_unit_args(kappa, v, thin) for v in (lo, hi)]))

    def estimate(log_s: float) -> float:
        F = table.read(_unit_args(kappa, log_s, thin))
        off = np.isnan(F)
        if off.any():
            F[off] = cdf(log_s, thin[off])
        return _ks_distance(thin, F)

    rescored = {}

    def exact_score(log_s: float) -> float:
        if log_s not in rescored:
            rescored[log_s] = _ks_distance(thin, cdf(log_s, thin))
        return rescored[log_s]

    log_s = _golden_min(estimate, lo, hi, exact=exact_score,
                        slack=2.0 * table.eps + SCORE_ROUNDING)
    log.debug("fit_b: %d table nodes, eps %.3g, %d exact re-scores",
              table.nodes, table.eps, len(rescored))
    exact = cdf(log_s, x)
    return FitResult(b=math.exp(log_s) ** kappa, ks=_ks_distance(x, exact),
                     cdf_at_samples=exact)


def fit_shift_b(samples: np.ndarray) -> FitResult:
    """Joint location and scale fit of the index-two law ``N(shift, 2 b)``.

    Same KS minimization as :func:`fit_b`, with the location free as well:
    ``F(x) = ndtr((x - shift) / (sqrt(2) s))``, ``s = sqrt(b)``.  The shift
    is searched between the sample quartiles, the scale profiled out at
    each candidate shift, and every candidate is scored exactly.
    """
    x, q25, q75, s0 = _fit_input(samples, 2.0)
    lo, hi = math.log(s0 / 32.0), math.log(s0 * 32.0)

    def cdf(shift: float, log_s: float) -> np.ndarray:
        return ndtr((x - shift) / (math.sqrt(2.0) * math.exp(log_s)))

    def best_log_s(shift: float) -> float:
        return _golden_min(lambda log_s: _ks_distance(x, cdf(shift, log_s)), lo, hi)

    shift = _golden_min(lambda d: _ks_distance(x, cdf(d, best_log_s(d))), q25, q75,
                        tol=1e-3 * (q75 - q25))
    log_s = best_log_s(shift)
    exact = cdf(shift, log_s)
    return FitResult(b=math.exp(log_s) ** 2, ks=_ks_distance(x, exact),
                     cdf_at_samples=exact, shift=shift)


# ---------------------------------------------------------------------------
# Normalization schedules
# ---------------------------------------------------------------------------


def regime_name(kappa: float) -> str:
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
    regime = regime_name(kappa)
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
    centering; it is 0.0 in every other regime.
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


def _check_size(n: int, replicas: int) -> None:
    # the schedules divide by log n; the fit needs MIN_FIT_SAMPLES samples
    if n < 2:
        raise ModelError(f"limit check needs n >= 2, got {n}")
    if replicas < MIN_FIT_SAMPLES:
        raise ModelError(f"limit check needs at least {MIN_FIT_SAMPLES} replicas, "
                         f"got {replicas}")


def limit_check_T(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    kappa: float | None = None,
    v: float | None = None,
    step_cap: int | None = None,
) -> LimitCheckReport:
    """Simulate hitting times, normalize per regime, fit the scale, report KS.

    At the boundary index the location is fitted jointly with the scale
    (:func:`fit_shift_b`); every other regime fits the scale alone.
    """
    from . import spectral, speed as speedmod, walksim

    _check_size(n, replicas)
    if kappa is None:
        kappa = spectral.solve_kappa(spec).kappa
    kappa = _snap(kappa)
    _warn_if_arithmetic(spec)
    regime = regime_name(kappa)
    if regime in ("(1,2)", "{2}") and v is None:
        v = speedmod.compute_speed(spec, kappa).v

    sample = walksim.annealed_hitting_sample(spec, n, replicas, seed, step_cap=step_cap)
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
    parameter except at index one, where the scale is fitted on the
    position samples.
    """
    kappa = _snap(kappa)
    regime = regime_name(kappa)
    xs = np.asarray(x_samples, dtype=float)
    b_t = t_report.b
    shift = 0.0

    if regime == "(0,1)":
        center, scale = 0.0, float(n) ** kappa
        z = np.sort((xs - center) / scale)
        ref = StableParams(kappa, 1.0)
        cdf = np.zeros(z.size)
        pos = z > 0
        cdf[pos] = 1.0 - stable_cdf(ref, z[pos] ** (-1.0 / kappa) * b_t ** (-1.0 / kappa))
        b_used = b_t
    elif regime == "{1}":
        center = float(np.median(xs))
        scale = n / math.log(n) ** 2
        z = np.sort((xs - center) / scale)
        fit = fit_b(z, 1.0)
        cdf = fit.cdf_at_samples
        b_used = fit.b
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
            cdf = 1.0 - stable_cdf(ref, -z * b_used ** (-1.0 / kappa))
        else:
            shift = -(v**1.5) * t_report.shift
            cdf = stable_cdf(ref, (z - shift) * b_used ** (-1.0 / kappa))

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

    _check_size(n, replicas)
    if kappa is None:
        kappa = t_report.kappa if t_report is not None else spectral.solve_kappa(spec).kappa
    kappa = _snap(kappa)
    regime = regime_name(kappa)
    if regime in ("(1,2)", "{2}") and v is None:
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
