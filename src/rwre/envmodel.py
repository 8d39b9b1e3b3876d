"""Finite-state Markov environment models and their structural checks.

A model instance is a finite irreducible Markov chain on ``K`` states
together with a per-state right-step probability ``omega`` and an
ellipticity margin ``epsilon``.  The per-state odds ratio
``rho = (1 - omega) / omega`` is always derived, never stored, so that the
two can never drift apart.

Site indexing convention, fixed once for the whole package: the environment
value at site ``i`` is ``omega(x_{-i})``, i.e. negative sites read the chain
forward in time and positive sites read it through the time-reversed kernel.
"""

from __future__ import annotations

import math
import tomllib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ModelError

__all__ = [
    "EnvironmentSpec",
    "ChainTable",
    "chain_move",
    "chain_walk",
    "closed_cumsum",
    "ValidationReport",
    "ArithmeticSpan",
    "stationary_distribution",
    "reverse_kernel",
    "validate",
    "detect_arithmetic",
    "load_model",
    "parse_model_text",
]

ROW_SUM_TOL = 1e-12
GCD_TOL = 1e-9
GCD_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Model data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """A validated finite-state environment model.

    Construction enforces the structural requirements: rows of ``H`` sum to
    one within 1e-12, ``epsilon`` lies in (0, 1/2) and every ``omega`` lies
    strictly inside ``(epsilon, 1 - epsilon)``.
    """

    states: tuple[str, ...]
    H: np.ndarray
    omega: np.ndarray
    epsilon: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        k = len(self.states)
        if k == 0:
            raise ModelError("a model needs at least one state")
        if len(set(map(str, self.states))) < k:
            raise ModelError(f"state names must be distinct, got {list(self.states)}")
        if H.shape != (k, k):
            raise ModelError(f"H must be {k}x{k}, got {H.shape}")
        if omega.shape != (k,):
            raise ModelError(f"omega must have {k} entries, got {omega.shape}")
        if not (np.isfinite(H).all() and np.isfinite(omega).all()):
            raise ModelError("H and omega must be finite")
        if np.any(H < 0):
            i = int(np.argwhere(H < 0)[0][0])
            raise ModelError(f"negative transition probability in row {i}")
        bad = np.abs(H.sum(axis=1) - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ModelError(
                f"row {i} of H sums to {H[i].sum():.17g}, not 1 within {ROW_SUM_TOL:g}"
            )
        if np.any(omega <= 0.0) or np.any(omega >= 1.0):
            raise ModelError("omega values must lie strictly inside (0, 1)")
        if not (0.0 < self.epsilon < 0.5):
            raise ModelError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if np.any(omega <= self.epsilon) or np.any(omega >= 1.0 - self.epsilon):
            i = int(np.argmax((omega <= self.epsilon) | (omega >= 1.0 - self.epsilon)))
            raise ModelError(
                f"ellipticity violation: omega[{i}]={omega[i]:.17g} is not strictly "
                f"inside ({self.epsilon:g}, {1.0 - self.epsilon:g})"
            )
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def rho(self) -> np.ndarray:
        """Per-state odds of a left step, ``(1 - omega) / omega``."""
        return (1.0 - self.omega) / self.omega

    def log_rho(self) -> np.ndarray:
        return np.log(self.rho)

    @cached_property
    def chain(self) -> ChainTable:
        """Stationary law and cumulative kernels, solved once per spec.

        Raises ``ModelError`` on first access if the chain is reducible.
        """
        return ChainTable.of(self.H)


@dataclass(frozen=True)
class ChainTable:
    """Inverse-CDF tables of one chain, shared by every sampler.

    ``cum_pi`` is the cumulative stationary law; row ``x`` of ``cum_fwd``
    (``cum_rev``) is the cumulative forward (time-reversed) kernel from
    ``x``; ``fwd_rows`` and ``rev_rows`` hold the same rows as Python lists
    for scalar ``bisect`` walks.  Every cumulative row ends at exactly 1.0,
    so a uniform never lands past the last state.  Arrays are read-only.
    The reversed kernel is built, and checked, on first use only.
    """

    H: np.ndarray
    pi: np.ndarray
    cum_pi: np.ndarray
    cum_fwd: np.ndarray
    fwd_rows: list[list[float]]

    @classmethod
    def of(cls, H: np.ndarray) -> ChainTable:
        pi = _read_only(stationary_distribution(H))
        cum_fwd = closed_cumsum(H)
        return cls(H, pi, closed_cumsum(pi), cum_fwd, cum_fwd.tolist())

    @cached_property
    def rev(self) -> np.ndarray:
        # row y sums to (pi H)(y) / pi(y): check the balance, not the ratio
        rev = (self.H * self.pi[:, None]).T / self.pi[:, None]
        resid = float(np.max(np.abs(rev.sum(axis=1) - 1.0) * self.pi))
        if resid > 1e-12:
            raise ModelError(f"reversed kernel is not stochastic: residual {resid:.3g}")
        return _read_only(rev)

    @cached_property
    def cum_rev(self) -> np.ndarray:
        return closed_cumsum(self.rev)

    @cached_property
    def rev_rows(self) -> list[list[float]]:
        return self.cum_rev.tolist()


def chain_move(
    cum: np.ndarray, states: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """One chain move per lane: how many entries of row ``states[i]`` of
    ``cum`` lie at or below ``u[i]`` (``searchsorted(side="right")``
    semantics, so a zero-probability state is never entered), summed one
    cumulative column at a time.  The counts come back as int64, or are
    written into ``out`` and returned: one entry a lane, of any integer type
    that holds ``K - 1`` (int64 included), and not ``states`` itself.

    Precondition, not checked: every row of ``cum`` ends at exactly 1.0, as
    :func:`closed_cumsum` leaves it, and every ``u`` lies in ``[0, 1)``, as
    ``rng.random`` draws it.  The last column then never counts and, but
    for K = 1, is not compared."""
    count = np.empty(states.shape[0], np.int64) if out is None else out
    # "clip" never clips a valid state; at K = 1 column 0 is the closing 1.0
    col = cum[:, 0].take(states, mode="clip")
    np.greater_equal(u, col, out=count)
    for k in range(1, cum.shape[1] - 1):
        count += u >= cum[:, k].take(states, out=col, mode="clip")
    return count


def chain_walk(rows: list[list[float]], s: int, uniforms: list[float]) -> list[int]:
    """States of successive chain moves from ``s``, one uniform each: the
    scalar twin of :func:`chain_move`, a ``bisect_right`` on each
    cumulative row (``searchsorted(side="right")`` semantics)."""
    out = []
    for u in uniforms:
        s = bisect_right(rows[s], u)
        out.append(s)
    return out


def closed_cumsum(P: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the final plateau set to 1.0 so
    that a row summing to ``1 - ROW_SUM_TOL`` leaves no gap past its end."""
    cum = np.cumsum(P, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return _read_only(cum)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ArithmeticSpan:
    """Lattice structure of the log-odds increments, if any.

    ``alpha`` is the maximal span such that every one-step increment is a
    lattice point after the per-state shift ``gamma``; ``math.inf`` marks the
    degenerate case where the increments are exactly consistent with a
    potential (every span works).  ``gamma`` uses the orientation where an
    edge ``u -> v`` carries increment ``gamma[u] - gamma[v]`` modulo
    ``alpha``; the opposite orientation negates ``gamma`` and leaves
    ``alpha`` unchanged.
    """

    arithmetic: bool
    alpha: float | None = None
    gamma: np.ndarray | None = None


@dataclass(frozen=True)
class ValidationReport:
    irreducible: bool
    components: tuple[tuple[str, ...], ...]
    ellipticity_margin: float | None = None
    drift: float | None = None
    a3_negative_beta: float | None = None
    a3_nonnegative_beta: float | None = None
    arithmetic_span: ArithmeticSpan | None = None


# ---------------------------------------------------------------------------
# Chain structure
# ---------------------------------------------------------------------------


def _reach(H: np.ndarray) -> np.ndarray:
    """Reachability closure of the support of ``H``: ``R[x, y]`` is true iff
    ``y`` can be reached from ``x`` in zero or more steps.  Boolean matmul
    ORs its products, so the squarings never wrap."""
    R = (np.asarray(H) > 0) | np.eye(len(H), dtype=bool)
    for _ in range((len(H) - 1).bit_length()):  # s squarings cover 2**s >= K - 1 steps
        R = R @ R
    return R


def _strong_components(H: np.ndarray) -> list[list[int]]:
    """Strongly connected components, in order of their lowest state."""
    R = _reach(H)
    C = R & R.T
    lowest = np.flatnonzero(np.argmax(C, axis=1) == np.arange(len(C)))
    return [np.flatnonzero(C[i]).tolist() for i in lowest]


def is_irreducible(H: np.ndarray) -> bool:
    return bool(_reach(H).all())


def stationary_distribution(H: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible stochastic matrix.

    Solved as a dense linear system (one balance equation replaced by the
    normalization), which also handles periodic chains.  A state whose
    mass the solve leaves at or below zero is reported by name; otherwise
    the residual ``max |pi H - pi|`` is checked against 1e-12.
    """
    H = np.asarray(H, dtype=float)
    comps = _strong_components(H)
    if len(comps) > 1:
        names = "; ".join("{" + ",".join(str(i) for i in c) + "}" for c in comps)
        raise ModelError(f"chain is reducible, strongly connected components: {names}")
    k = H.shape[0]
    A = (np.eye(k) - H).T
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = pi / pi.sum()
    if np.any(pi <= 0):
        i = int(np.argmin(pi))
        raise ModelError(
            f"stationary mass of state {i} is below double resolution: the solve gives "
            f"pi[{i}] = {pi[i]:.3g}"
        )
    resid = float(np.max(np.abs(pi @ H - pi)))
    if resid > 1e-12:
        raise ModelError(f"stationary solve failed: residual {resid:.3g}")
    return pi


def reverse_kernel(spec: EnvironmentSpec) -> np.ndarray:
    """Time-reversed transition matrix ``H_rev(y, x) = pi(x) H(x, y) / pi(y)``.

    Needed because environment sites ``i > 0`` read the chain at negative
    times; the reversed kernel generates those states from the site-0 state.
    """
    return spec.chain.rev.copy()


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------


def validate(spec: EnvironmentSpec) -> ValidationReport:
    """Run every model assumption as an executable check.

    Irreducibility is read off the reachability closure of the support; the
    drift is the stationary mean of ``log rho``; the moment-growth witnesses
    bracket kappa (:func:`rwre.spectral.moment_bracket`, ``None`` if absent);
    the lattice check runs on the transition graph.
    A reducible chain yields a report with ``irreducible=False`` and the
    remaining fields unset.
    """
    comps = _strong_components(spec.H)
    names = tuple(tuple(spec.states[i] for i in c) for c in comps)
    if len(comps) > 1:
        return ValidationReport(irreducible=False, components=names)

    from . import spectral  # deferred: spectral depends on this module

    pi = spec.chain.pi
    margin = float(min(spec.omega.min(), 1.0 - spec.omega.max()))
    drift = float(pi @ spec.log_rho())

    _, neg, nonneg = spectral.moment_bracket(spec)

    return ValidationReport(
        irreducible=True,
        components=names,
        ellipticity_margin=margin,
        drift=drift,
        a3_negative_beta=neg,
        a3_nonnegative_beta=nonneg,
        arithmetic_span=detect_arithmetic(spec),
    )


def _float_gcd(values: np.ndarray, tol: float) -> float:
    g = 0.0
    for v in np.abs(values):
        a, b = max(g, v), min(g, v)
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def detect_arithmetic(spec: EnvironmentSpec) -> ArithmeticSpan:
    """Maximal lattice span of the log-odds increments along the chain.

    A spanning tree of the support graph assigns tentative potentials from
    the edge increments ``log rho(target)``; the span is the floating-point
    gcd (tolerance 1e-9) of the residual discrepancies on the remaining
    edges.  A gcd collapsing below 1e-6 means the discrepancies generate a
    dense subgroup and the model is declared non-arithmetic.
    """
    if not is_irreducible(spec.H):
        raise ModelError("arithmetic detection requires an irreducible chain")
    k = spec.n_states
    logr = spec.log_rho()
    support = spec.H > 0

    gamma = np.full(k, np.nan)
    gamma[0] = 0.0
    queue = [0]
    while queue:
        x = queue.pop()
        for y in range(k):
            if not np.isnan(gamma[y]):
                continue
            if support[x, y]:
                gamma[y] = gamma[x] - logr[y]
                queue.append(y)
            elif support[y, x]:
                gamma[y] = gamma[x] + logr[x]
                queue.append(y)

    disc = []
    for x in range(k):
        for y in range(k):
            if support[x, y]:
                disc.append(logr[y] + gamma[y] - gamma[x])
    disc = np.asarray(disc)
    disc = disc[np.abs(disc) > 1e-12]

    if disc.size == 0:
        # Increments exactly consistent with the potential: any span works.
        g = gamma - gamma.min()
        return ArithmeticSpan(arithmetic=True, alpha=math.inf, gamma=g)
    alpha = _float_gcd(disc, GCD_TOL)
    if alpha < GCD_FLOOR:
        return ArithmeticSpan(arithmetic=False)
    return ArithmeticSpan(arithmetic=True, alpha=alpha, gamma=np.mod(gamma, alpha))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------
#
# Model files are TOML documents read by ``tomllib``:
#
#     states  = ["calm", "rough"]
#     epsilon = "0.05"
#     H       = [["0.9", "0.1"],
#                ["0.775", "0.225"]]
#     omega   = ["2/3", "1/3"]
#
# Numeric values may be written as plain numbers, as exact decimal strings,
# or as fraction strings ("2/3"); strings go through fractions.Fraction so
# fixtures do not pick up binary-float drift from intermediate parsing.


def parse_model_text(text: str) -> dict:
    """Parse a model document into a plain dict of raw values."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc


def _as_float(value) -> float:
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse number {value!r}") from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ModelError(f"expected a number, got {value!r}")


def spec_from_dict(doc: dict) -> EnvironmentSpec:
    for key in ("states", "H", "omega", "epsilon"):
        if key not in doc:
            raise ModelError(f"model file is missing field {key!r}")
    try:
        states = [str(s) for s in doc["states"]]
        H = np.array([[_as_float(v) for v in row] for row in doc["H"]], dtype=float)
        omega = np.array([_as_float(v) for v in doc["omega"]], dtype=float)
    except (TypeError, ValueError) as exc:  # also a scalar for an array, ragged rows
        raise ModelError(f"malformed model field: {exc}") from exc
    epsilon = _as_float(doc["epsilon"])
    return EnvironmentSpec(states=tuple(states), H=H, omega=omega, epsilon=epsilon)


def load_model(path: str | Path) -> EnvironmentSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return spec_from_dict(parse_model_text(text))
