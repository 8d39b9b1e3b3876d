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
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ModelError

__all__ = [
    "EnvironmentSpec",
    "ChainTable",
    "ValidationReport",
    "ArithmeticSpan",
    "MinorizationSplit",
    "stationary_distribution",
    "reverse_kernel",
    "validate",
    "detect_arithmetic",
    "minorization_split",
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
        if H.shape != (k, k):
            raise ModelError(f"H must be {k}x{k}, got {H.shape}")
        if omega.shape != (k,):
            raise ModelError(f"omega must have {k} entries, got {omega.shape}")
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

    @property
    def c_rho(self) -> float:
        """Uniform odds bound ``(1 - epsilon) / epsilon``."""
        return (1.0 - self.epsilon) / self.epsilon

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
    for scalar ``bisect`` walks.  Arrays are read-only.  The reversed
    kernel is built, and checked, on first use only.
    """

    H: np.ndarray
    pi: np.ndarray
    cum_pi: np.ndarray
    cum_fwd: np.ndarray
    fwd_rows: list[list[float]]

    @classmethod
    def of(cls, H: np.ndarray) -> ChainTable:
        pi = _read_only(stationary_distribution(H))
        cum_pi = _read_only(np.cumsum(pi))
        cum_fwd = _read_only(np.cumsum(H, axis=1))
        return cls(H, pi, cum_pi, cum_fwd, cum_fwd.tolist())

    @cached_property
    def rev(self) -> np.ndarray:
        rev = (self.H * self.pi[:, None]).T / self.pi[:, None]
        resid = float(np.max(np.abs(rev.sum(axis=1) - 1.0)))
        if resid > 1e-12:
            raise ModelError(f"reversed kernel is not stochastic: residual {resid:.3g}")
        return _read_only(rev)

    @cached_property
    def cum_rev(self) -> np.ndarray:
        return _read_only(np.cumsum(self.rev, axis=1))

    @cached_property
    def rev_rows(self) -> list[list[float]]:
        return self.cum_rev.tolist()


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

    @property
    def ok(self) -> bool:
        """All structural assumptions hold and the walk is right-transient."""
        return (
            self.irreducible
            and self.drift is not None
            and self.drift < 0.0
            and self.a3_negative_beta is not None
            and self.arithmetic_span is not None
            and not self.arithmetic_span.arithmetic
        )


@dataclass(frozen=True)
class MinorizationSplit:
    """Uniform minorization ``H^m >= r * psi`` with residual kernel ``Theta``."""

    m: int
    r: float
    psi: np.ndarray
    theta: np.ndarray


# ---------------------------------------------------------------------------
# Chain structure
# ---------------------------------------------------------------------------


def _strong_components(H: np.ndarray) -> list[list[int]]:
    n, labels = connected_components(csr_matrix(H > 0), connection="strong")
    return [list(np.flatnonzero(labels == c)) for c in range(n)]


def is_irreducible(H: np.ndarray) -> bool:
    return len(_strong_components(np.asarray(H, dtype=float))) == 1


def stationary_distribution(H: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible stochastic matrix.

    Solved as a dense linear system (one balance equation replaced by the
    normalization), which also handles periodic chains; the residual
    ``max |pi H - pi|`` is checked against 1e-12.
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
    resid = float(np.max(np.abs(pi @ H - pi)))
    if resid > 1e-12 or np.any(pi <= 0):
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

    Irreducibility is decided by strongly-connected-component analysis; the
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


def minorization_split(spec: EnvironmentSpec, m: int = 1) -> MinorizationSplit:
    """Split ``H^m`` into ``Theta + r * ones psi^T`` with the largest uniform coin.

    ``psi`` is the normalized column-minimum measure, which maximizes ``r``
    for a uniform minorization; columns whose minimum vanishes simply get no
    ``psi`` mass.  If every column minimum vanishes there is no uniform
    minorization at this power.
    """
    if m < 1:
        raise ModelError(f"kernel power must be >= 1, got {m}")
    if not is_irreducible(spec.H):
        raise ModelError("minorization requires an irreducible chain")
    Hm = np.linalg.matrix_power(spec.H, m)
    mins = Hm.min(axis=0)
    r = float(mins.sum())
    if r <= 0.0:
        raise ModelError(
            f"no uniform minorization at m={m}: every column of H^{m} has a zero "
            "minimum; try a larger m"
        )
    psi = mins / r
    theta = Hm - r * psi[None, :]
    theta[(theta < 0) & (theta > -1e-15)] = 0.0
    if np.any(theta < 0):
        raise ModelError("negative residual kernel entry beyond rounding tolerance")
    return MinorizationSplit(m=m, r=r, psi=psi, theta=theta)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------
#
# Model files are TOML-style key/value documents restricted to scalars,
# strings and (nested) arrays:
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

_TOKEN = re.compile(
    r"""
    (?P<ws>[\s,]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[\[\]=])
  | (?P<bare>[^\s\[\]=,#"]+)
    """,
    re.VERBOSE,
)


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ModelError(f"cannot read model file near: {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        yield m.lastgroup, m.group()


def _parse_value(toks: list[tuple[str, str]], i: int):
    kind, tok = toks[i]
    if kind == "string":
        return tok[1:-1].replace('\\"', '"'), i + 1
    if kind == "punct" and tok == "[":
        out = []
        i += 1
        while True:
            if i >= len(toks):
                raise ModelError("unterminated array in model file")
            if toks[i] == ("punct", "]"):
                return out, i + 1
            val, i = _parse_value(toks, i)
            out.append(val)
    if kind == "bare":
        return tok, i + 1
    raise ModelError(f"unexpected token {tok!r} in model file")


def parse_model_text(text: str) -> dict:
    """Parse a model document into a plain dict of raw values."""
    toks = list(_tokens(text))
    doc = {}
    i = 0
    while i < len(toks):
        kind, key = toks[i]
        if kind != "bare":
            raise ModelError(f"expected a key, got {key!r}")
        if i + 1 >= len(toks) or toks[i + 1] != ("punct", "="):
            raise ModelError(f"expected '=' after key {key!r}")
        value, i = _parse_value(toks, i + 2)
        doc[key] = value
    return doc


def _as_float(value) -> float:
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse number {value!r}") from exc
    if isinstance(value, (int, float)):
        return float(value)
    raise ModelError(f"expected a number, got {value!r}")


def spec_from_dict(doc: dict) -> EnvironmentSpec:
    for key in ("states", "H", "omega", "epsilon"):
        if key not in doc:
            raise ModelError(f"model file is missing field {key!r}")
    states = [str(s) for s in doc["states"]]
    H = np.array([[_as_float(v) for v in row] for row in doc["H"]], dtype=float)
    omega = np.array([_as_float(v) for v in doc["omega"]], dtype=float)
    epsilon = _as_float(doc["epsilon"])
    return EnvironmentSpec(states=tuple(states), H=H, omega=omega, epsilon=epsilon)


def load_model(path: str | Path) -> EnvironmentSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return spec_from_dict(parse_model_text(text))
