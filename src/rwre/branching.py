"""Branching process with one immigrant per generation in the chain environment.

The process counts walker excursions: offspring are geometric in the
current site probability, and partial population sums match hitting times
in law.  Its extinction times, joined with the chain's regeneration times,
cut the path into identically distributed blocks whose population totals
and odds products drive the limit laws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ._rng import derive_rng
from .envmodel import EnvironmentSpec, chain_walk
from .errors import ModelError, NumericalError
from .spectral import REGEN_COIN, REGEN_STATE
from .walksim import forced_crossings, reference_walks

__all__ = [
    "BranchPath",
    "BlockStats",
    "RegenTrace",
    "KSVerdict",
    "sample_chain_path",
    "sample_branching",
    "extinction_times",
    "chain_regenerations",
    "common_regenerations",
    "block_products",
    "regen_trace",
    "branch_population_sums",
    "branching_vs_walk_check",
]

GEOMETRIC_CUTOFF = 10_000
POPULATION_LIMIT = 2**63 - 1
_PATH_CHUNK = 1 << 16  # uniforms per draw of sample_chain_path


@dataclass(frozen=True)
class BranchPath:
    """One realization: populations and the generating chain states.

    ``populations[t]`` is the head count at generation ``t``; the offspring
    law of generation ``t`` uses the chain state ``states[t]``.
    """

    populations: np.ndarray
    states: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.populations) - 1


def sample_chain_path(
    spec: EnvironmentSpec, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Stationary chain trajectory of the given length (states only).

    The moves take their uniforms ``_PATH_CHUNK`` at a time from ``rng``:
    the same draws as one ``rng.random(length - 1)`` call, in bounded memory.
    """
    out = np.empty(length, dtype=np.int64)
    s = out[0] = np.searchsorted(spec.chain.cum_pi, rng.random(), side="right")
    for start in range(1, length, _PATH_CHUNK):
        walk = chain_walk(spec.chain.fwd_rows, int(s),
                          rng.random(min(_PATH_CHUNK, length - start)).tolist())
        out[start:start + len(walk)] = walk
        s = walk[-1]
    return out


def sample_branching(
    spec: EnvironmentSpec,
    horizon: int,
    rng: np.random.Generator,
) -> BranchPath:
    """Simulate the immigration branching process over ``horizon`` generations.

    The chain starts from its stationary law.  Population counts above
    2**63 - 1 abort the replica: that regime means the model diagnostics
    were misconfigured (supercritical environment).
    """
    if horizon < 1:
        raise ModelError("horizon must be >= 1")

    # Hot loop: buffered uniforms and plain-python state, which beats numpy
    # scalar calls by an order of magnitude at typical population sizes.
    cum_rows = spec.chain.fwd_rows
    om_list = [float(v) for v in spec.omega]
    inv_log = [1.0 / math.log1p(-v) for v in om_list]

    states = np.empty(horizon + 1, dtype=np.int64)
    Z = np.zeros(horizon + 1, dtype=np.int64)
    buf = rng.random(1 << 16)
    bi = 0
    blen = len(buf)
    s = int(np.searchsorted(spec.chain.cum_pi, rng.random(), side="right"))
    states[0] = s
    z = 0
    log = math.log
    for t in range(horizon):
        count = z + 1
        if count > GEOMETRIC_CUTOFF:
            if count > 2**53:
                raise NumericalError(f"population explosion at generation {t + 1}")
            # a negative-binomial draw is the same law as the sum of geometric broods
            z = int(rng.negative_binomial(count, om_list[s]))
        else:
            if bi + count + 1 > blen:
                buf = rng.random(max(1 << 16, count + 1))
                bi = 0
                blen = len(buf)
            inv = inv_log[s]
            if count > 16:
                z = int(np.floor(np.log(buf[bi:bi + count]) * inv).sum())
            else:
                z = 0
                for u in buf[bi:bi + count].tolist():
                    z += int(log(u) * inv)
            bi += count
        if z > POPULATION_LIMIT:
            raise NumericalError(f"population explosion at generation {t + 1}")
        Z[t + 1] = z
        if bi == blen:
            buf = rng.random(1 << 16)
            bi = 0
        u = buf[bi]
        bi += 1
        s = bisect_right(cum_rows[s], u)
        states[t + 1] = s
    return BranchPath(populations=Z, states=states)


def extinction_times(populations: np.ndarray) -> np.ndarray:
    """Successive zeros of the population, with the mandatory start at 0."""
    Z = np.asarray(populations)
    zeros = np.flatnonzero(Z[1:] == 0) + 1
    return np.concatenate([[0], zeros]).astype(np.int64)


def chain_regenerations(
    states: np.ndarray,
    regen_state: int,
    coin: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Coin-at-state regeneration times of a finite chain path.

    A time ``k >= 1`` regenerates when the chain sits at the designated
    state and an independent coin with success probability ``coin`` comes
    up; blocks between successive regenerations are independent.
    """
    if not (0.0 < coin <= 1.0):
        raise ModelError(f"regeneration coin must lie in (0, 1], got {coin}")
    states = np.asarray(states)
    hits = (states == regen_state) & (rng.random(states.shape[0]) < coin)
    hits[0] = False
    return np.concatenate([[0], np.flatnonzero(hits)]).astype(np.int64)


def common_regenerations(nu: np.ndarray, regens: np.ndarray) -> np.ndarray:
    """Joint regeneration times: positive times present in both lists."""
    joint = np.intersect1d(np.asarray(nu)[1:], np.asarray(regens)[1:])
    return np.concatenate([[0], joint]).astype(np.int64)


@dataclass(frozen=True)
class BlockStats:
    """Per-block odds product and prefix-sum load, in overflow-safe form."""

    products: np.ndarray  # product of rho over the block
    prefix_sums: np.ndarray  # 1 + sum of leading partial products
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.products)


def block_products(log_rho_path: np.ndarray, boundaries: np.ndarray) -> BlockStats:
    """Odds product and prefix load per block between consecutive boundaries.

    Block ``j`` covers path indices ``b[j] .. b[j+1]-1``; its product is
    ``exp(S[b[j+1]] - S[b[j]])`` and its prefix load is
    ``sum_i exp(S[i] - S[b[j]])`` over ``i`` in the block, with ``S`` the
    cumulative log odds, so the term at ``b[j]`` is the leading 1.  The
    prefix loads of all blocks are one segmented log-sum-exp: the
    per-block maximum and the shifted sum of exponentials are reductions
    over the block segments (``reduceat``), so long blocks cannot overflow.
    Boundaries must be strictly increasing indices into the path (``b[-1]``
    may equal its length).
    """
    logr = np.asarray(log_rho_path, dtype=float)
    b = np.asarray(boundaries, dtype=np.int64)
    if len(b) < 2:
        return BlockStats(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    lengths = np.diff(b)
    if np.any(lengths <= 0) or b[0] < 0 or b[-1] > len(logr):
        raise ModelError("block boundaries must be strictly increasing within the path")
    cums = np.concatenate([[0.0], np.cumsum(logr)])
    starts = b[:-1] - b[0]
    # t[i] = S[i] - S[block start], the log partial products of every block
    t = cums[b[0]:b[-1]] - np.repeat(cums[b[:-1]], lengths)
    peak = np.maximum.reduceat(t, starts)
    t -= np.repeat(peak, lengths)
    np.exp(t, out=t)
    return BlockStats(
        products=np.exp(cums[b[1:]] - cums[b[:-1]]),
        prefix_sums=np.exp(peak) * np.add.reduceat(t, starts),
        lengths=lengths,
    )


@dataclass(frozen=True)
class RegenTrace:
    """Aligned regeneration structure of one branching path."""

    extinctions: np.ndarray  # successive zeros of the population
    chain_regens: np.ndarray  # coin-at-state times of the chain
    joint: np.ndarray  # common refinement of the two
    joint_blocks: np.ndarray  # population totals between joint times


def regen_trace(path: BranchPath, rng: np.random.Generator) -> RegenTrace:
    """Extinctions, chain regenerations at ``REGEN_STATE`` with coin
    ``REGEN_COIN`` (uniforms from ``rng``) and the totals between them."""
    nu = extinction_times(path.populations)
    N = chain_regenerations(path.states, REGEN_STATE, REGEN_COIN, rng)
    joint = common_regenerations(nu, N)
    cz = np.concatenate([[0], np.cumsum(path.populations)])
    w_joint = cz[joint[1:]] - cz[joint[:-1]]
    return RegenTrace(
        extinctions=nu,
        chain_regens=N,
        joint=joint,
        joint_blocks=w_joint,
    )


def branch_population_sums(
    spec: EnvironmentSpec, n: int, replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized ensemble of ``sum_{t < n} Z_t`` over independent replicas.

    With ``Z_0 = 0`` and ``Z_t`` the left moves at the ``t``-th site, the
    sum is the :func:`~rwre.walksim.forced_crossings` total over ``n - 1``
    sites; an exploded count raises ``NumericalError``.
    """
    return forced_crossings(spec, n - 1, replicas, rng)[1]


@dataclass(frozen=True)
class KSVerdict:
    statistic: float
    pvalue: float
    n_left: int
    n_right: int
    significance: float

    @property
    def rejected(self) -> bool:
        return self.pvalue < self.significance


def branching_vs_walk_check(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    significance: float = 0.01,
) -> KSVerdict:
    """Two-sample KS test of the excursion-count identity.

    Left-move totals over sites 1..n of walks run to site ``n`` are compared
    against partial population sums of the branching process over the same
    horizon; the two have the same annealed distribution.
    """
    # left moves at sites 1..n; a walk's deepest site is never above 0
    walk_sums = [rec.left_moves[1 - rec.deepest_site:].sum()
                 for rec in reference_walks(spec, n, replicas, seed) if not rec.censored]
    if len(walk_sums) < replicas // 2:
        raise NumericalError("too many censored walk replicas for the comparison")
    branch_sums = branch_population_sums(spec, n, replicas, derive_rng(seed, 1))
    res = stats.ks_2samp(walk_sums, branch_sums)
    return KSVerdict(
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        n_left=len(walk_sums),
        n_right=replicas,
        significance=significance,
    )
