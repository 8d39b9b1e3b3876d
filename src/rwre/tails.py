"""Heavy-tail machinery: the stationary odds series, index estimation,
tail curves, and a tilted-chain rare-event sampler.

The central object is the stochastic series ``1 + rho_0 + rho_0 rho_1 + ...``
read along the forward chain (a stochastic perpetuity); its annealed tail
decays like ``t**-kappa`` and everything in this module either samples it
or probes that decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envmodel import EnvironmentSpec, chain_move, closed_cumsum
from .errors import ModelError, NumericalError
from .spectral import tilt

__all__ = [
    "HillEstimate",
    "TailCurve",
    "TiltedTailEstimate",
    "TailReport",
    "sample_perpetuity",
    "hill_estimator",
    "loglog_slope",
    "tail_curve",
    "plain_tail_probability",
    "tilted_tail_sampler",
    "tail_report",
]

DEFAULT_TOL = 1e-12
MAX_TERMS = 10**6
HILL_FRACTIONS = (0.05, 0.02, 0.01, 0.005)  # top fractions of the tail report
_CHUNK = 1 << 16


def sample_perpetuity(
    spec: EnvironmentSpec,
    replicas: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Draws of the stationary series, truncated when the running product
    drops below ``tol``.

    The returned value underestimates the full series by the remaining
    product times an independent copy of the series; the bias is
    multiplicative in ``tol`` and irrelevant for tail estimation, where
    large values come from early large products.  Monotone in ``tol``:
    a larger tolerance stops earlier on the same trajectory.
    """
    if not (0.0 < tol <= 1e-6):
        raise ModelError(f"truncation tolerance must lie in (0, 1e-6], got {tol}")
    if replicas < 0:
        raise ModelError("replicas must be nonnegative")
    return _series_lanes(spec, spec.chain.cum_fwd, replicas, rng, tol)[0]


def _series_lanes(spec, cum_kernel, replicas, rng, tol, threshold=None, log_ratio=None):
    """Series values of ``replicas`` lanes, run ``_CHUNK`` lanes at a time on
    one stream, and each lane's summed ``log_ratio`` (None without one).

    A lane starts from ``spec.chain.cum_pi`` and moves by ``cum_kernel``; it
    retires when its running product drops below ``tol`` or, given a
    ``threshold``, when its value exceeds it.
    """
    values = np.empty(replicas)
    log_w = None if log_ratio is None else np.empty(replicas)
    done = 0
    while done < replicas:
        m = min(_CHUNK, replicas - done)
        _series_chunk(spec, cum_kernel, rng, tol, threshold, log_ratio, values[done:done + m],
                      None if log_w is None else log_w[done:done + m])
        done += m
    return values, log_w


def _series_chunk(spec, cum_kernel, rng, tol, threshold, log_ratio, out, out_log_w):
    rho = spec.rho
    lanes = out.size
    states = np.searchsorted(spec.chain.cum_pi, rng.random(lanes), side="right")
    prod = np.ones(lanes)
    value = np.ones(lanes)  # compacted with prod and states; a lane leaves it on retiring
    log_w = None if log_ratio is None else np.zeros(lanes)
    lane = np.arange(lanes)
    terms = 0
    while lane.size:
        terms += 1
        if terms > MAX_TERMS:
            raise NumericalError(
                f"slow contraction: running product above {tol:g} after {MAX_TERMS} terms"
            )
        prod *= rho.take(states)
        value += prod
        keep = prod >= tol
        if threshold is not None:
            keep &= value <= threshold
        if not keep.all():
            gone = np.flatnonzero(~keep)
            idx = lane.take(gone)
            out[idx] = value.take(gone)
            k = np.flatnonzero(keep)
            lane, prod, states, value = lane.take(k), prod.take(k), states.take(k), value.take(k)
            if log_w is not None:
                out_log_w[idx] = log_w.take(gone)
                log_w = log_w.take(k)
        if lane.size:
            moved = chain_move(cum_kernel, states, rng.random(lane.size))
            if log_w is not None:
                log_w += log_ratio[states, moved]
            states = moved


@dataclass(frozen=True)
class HillEstimate:
    index: float
    ci_low: float
    ci_high: float
    order_statistics: int
    top_fraction: float


def hill_estimator(samples: np.ndarray, top_fraction: float) -> HillEstimate:
    """Classical Hill estimate over the top order statistics.

    The confidence interval comes from the asymptotic normality of the
    estimator, with standard error ``index / sqrt(k)``.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 1000:
        raise ModelError(f"need at least 1000 samples, got {x.size}")
    if not (0.0 < top_fraction <= 0.2):
        raise ModelError(f"top fraction must lie in (0, 0.2], got {top_fraction}")
    k = int(np.floor(top_fraction * x.size))
    if k < 5:
        raise ModelError("top fraction leaves fewer than 5 order statistics")
    top = np.sort(x)[-(k + 1):]
    threshold = top[0]
    if threshold <= 0:
        raise ModelError("tail threshold is not positive")
    if top[-1] == threshold:
        raise ModelError("ties collapse the top order statistics")
    mean_excess = float(np.mean(np.log(top[1:]) - np.log(threshold)))
    index = 1.0 / mean_excess
    se = index / np.sqrt(k)
    return HillEstimate(
        index=index,
        ci_low=index - 1.96 * se,
        ci_high=index + 1.96 * se,
        order_statistics=k,
        top_fraction=top_fraction,
    )


def loglog_slope(samples: np.ndarray, top_fraction: float = 0.05) -> float:
    """Tail index from a log-log regression of the empirical survival curve."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    k = max(int(np.floor(top_fraction * n)), 10)
    tail = x[-k:]
    if tail[0] <= 0 or tail[0] == tail[-1]:
        raise ModelError("tail is degenerate for a log-log fit")
    sf = (n - np.arange(n - k, n)) / n
    slope, _ = np.polyfit(np.log(tail), np.log(sf), 1)
    return float(-slope)


@dataclass(frozen=True)
class TailCurve:
    """``t**kappa * P(value > t)`` on a geometric grid over the sample tail."""

    thresholds: np.ndarray
    survival: np.ndarray
    curve: np.ndarray
    kappa: float

    def top_decade_ratio(self) -> float:
        """Max/min of the curve over the best-populated top decade."""
        hi = self.thresholds[-1]
        mask = self.thresholds >= hi / 10.0
        vals = self.curve[mask]
        if np.any(vals <= 0):
            raise NumericalError("tail curve vanished inside the top decade")
        return float(vals.max() / vals.min())


def tail_curve(
    samples: np.ndarray, kappa: float, points: int = 61, decades: float = 3.0
) -> TailCurve:
    """Tail-decay curve anchored where at least 100 samples remain.

    The grid spans ``decades`` decades downward from the 100th-largest
    sample, so every survival estimate on the grid averages at least 100
    exceedances.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 100:
        raise NumericalError("fewer than 100 samples beyond the grid start")
    t_hi = x[-100]
    t_lo = t_hi / 10.0**decades
    if t_hi <= 0 or t_lo <= 0 or x[-1] == x[0]:
        raise NumericalError("sample tail is degenerate")
    ts = np.geomspace(t_lo, t_hi, points)
    sf = (x.size - np.searchsorted(x, ts, side="right")) / x.size
    return TailCurve(thresholds=ts, survival=sf, curve=ts**kappa * sf, kappa=kappa)


def plain_tail_probability(samples: np.ndarray, threshold: float) -> tuple[float, float]:
    """Empirical exceedance probability with its binomial standard error."""
    x = np.asarray(samples)
    p = float(np.mean(x > threshold))
    se = float(np.sqrt(max(p * (1.0 - p), 1.0 / x.size)) / np.sqrt(x.size))
    return p, se


@dataclass(frozen=True)
class TiltedTailEstimate:
    probability: float
    std_error: float
    effective_sample_size: float
    successes: int
    replicas: int
    unreliable: bool


def tilted_tail_sampler(
    spec: EnvironmentSpec,
    kappa: float,
    f_kappa: np.ndarray,
    threshold: float,
    replicas: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
) -> TiltedTailEstimate:
    """Importance-sampled exceedance probability of the stationary series.

    The chain is driven by the eigenvector-twisted kernel, under which the
    log odds walk has positive drift and pushes paths toward large series
    values; exact likelihood-ratio weights make the estimator unbiased for
    the truncated-series event.  A single state collapses the twist to the
    identity and the estimate reduces to plain Monte Carlo.
    """
    if replicas < 1:
        raise ModelError("need at least one replica")
    h = np.asarray(f_kappa, dtype=float)
    if np.any(h <= 0):
        raise ModelError("twist eigenvector must be strictly positive")
    tilted = tilt(spec, kappa) * h[None, :] / h[:, None]
    tilted /= tilted.sum(axis=1, keepdims=True)
    # exact per-transition log likelihood ratio of original vs sampling kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(spec.H > 0, np.log(spec.H) - np.log(tilted), 0.0)
    values, log_w = _series_lanes(spec, closed_cumsum(tilted), replicas, rng, tol,
                                  threshold, log_ratio)

    success = values > threshold
    contrib = np.exp(log_w) * success
    p = float(contrib.mean())
    se = float(contrib.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else float("inf")
    pos = contrib[contrib > 0]
    ess = float(pos.sum() ** 2 / (pos**2).sum()) if pos.size else 0.0
    return TiltedTailEstimate(
        probability=p,
        std_error=se,
        effective_sample_size=ess,
        successes=int(success.sum()),
        replicas=replicas,
        unreliable=bool(ess < 50),
    )


@dataclass(frozen=True)
class TailReport:
    """CLI-facing aggregation of the tail diagnostics."""

    n_samples: int
    hill: dict[float, HillEstimate]
    loglog_index: float
    curve: TailCurve


def tail_report(kappa: float, samples: np.ndarray) -> TailReport:
    """Hill estimates over each of ``HILL_FRACTIONS``, the log-log slope
    index and the tail curve of ``samples``."""
    return TailReport(
        n_samples=len(samples),
        hill={f: hill_estimator(samples, f) for f in HILL_FRACTIONS},
        loglog_index=loglog_slope(samples),
        curve=tail_curve(samples, kappa),
    )
