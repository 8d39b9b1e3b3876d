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
from .envmodel import EnvironmentSpec, MinorizationSplit, chain_move, chain_walk, closed_cumsum
from .errors import ModelError, NumericalError
from .walksim import reference_walks

__all__ = [
    "BranchPath",
    "BlockStats",
    "RegenTrace",
    "KSVerdict",
    "sample_chain_path",
    "sample_branching",
    "extinction_times",
    "chain_regenerations",
    "split_chain_with_regenerations",
    "common_regenerations",
    "block_products",
    "regen_trace",
    "immigrant_progeny",
    "branch_population_sums",
    "branching_vs_walk_check",
]

GEOMETRIC_CUTOFF = 10_000
POPULATION_LIMIT = 2**63 - 1
_PATH_CHUNK = 1 << 16  # uniforms per draw of sample_chain_path


def _offspring_sum(rng: np.random.Generator, count: int, om: float) -> int:
    """Total offspring of ``count`` individuals with geometric(om) broods.

    Individual inverse-CDF draws up to the cutoff; above it a single
    negative-binomial draw, which is the same distribution.
    """
    if count <= 0:
        return 0
    if count > GEOMETRIC_CUTOFF:
        return int(rng.negative_binomial(count, om))
    u = rng.random(count)
    return int(np.floor(np.log(u) / np.log1p(-om)).sum())


@dataclass(frozen=True)
class BranchPath:
    """One realization: populations, generating chain states, optional ledger.

    ``populations[t]`` is the head count at generation ``t``; the offspring
    law of generation ``t`` uses the chain state ``states[t]``.  When the
    ledger is tracked, ``ledger[t]`` maps an immigrant's birth generation to
    the size of its surviving line at generation ``t``.
    """

    spec: EnvironmentSpec
    populations: np.ndarray
    states: np.ndarray
    ledger: list[dict[int, int]] | None = None

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
    track_lineages: bool = False,
) -> BranchPath:
    """Simulate the immigration branching process over ``horizon`` generations.

    The chain starts from its stationary law.  Population counts above
    2**63 - 1 abort the replica: that regime means the model diagnostics
    were misconfigured (supercritical environment).
    """
    if horizon < 1:
        raise ModelError("horizon must be >= 1")
    if track_lineages:
        return _sample_branching_ledger(spec, horizon, rng)

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
    return BranchPath(spec=spec, populations=Z, states=states, ledger=None)


def _sample_branching_ledger(spec, horizon, rng):
    cum_fwd = spec.chain.cum_fwd
    omega = spec.omega
    states = np.empty(horizon + 1, dtype=np.int64)
    states[0] = np.searchsorted(spec.chain.cum_pi, rng.random(), side="right")
    Z = np.zeros(horizon + 1, dtype=np.int64)
    ledger: list[dict[int, int]] = [{}]
    for t in range(horizon):
        om = omega[states[t]]
        broods = {}
        for birth, count in ledger[t].items():
            kids = _offspring_sum(rng, count, om)
            if kids:
                broods[birth] = kids
        kids = _offspring_sum(rng, 1, om)
        if kids:
            broods[t] = kids
        ledger.append(broods)
        total = sum(broods.values())
        if total > POPULATION_LIMIT:
            raise NumericalError(f"population explosion at generation {t + 1}")
        Z[t + 1] = total
        states[t + 1] = np.searchsorted(cum_fwd[states[t]], rng.random(), side="right")
    return BranchPath(spec=spec, populations=Z, states=states, ledger=ledger)


def immigrant_progeny(path: BranchPath) -> np.ndarray:
    """Total progeny of each generation's immigrant, from the ledger."""
    if path.ledger is None:
        raise ModelError("path was sampled without lineage tracking")
    out = np.zeros(path.horizon, dtype=np.int64)
    for broods in path.ledger:
        for birth, count in broods.items():
            out[birth] += count
    return out


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


def split_chain_with_regenerations(
    spec: EnvironmentSpec,
    split: MinorizationSplit,
    n_blocks: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain path plus regeneration times from the minorization splitting.

    Every ``m`` steps the next skeleton state is drawn from the split
    measure with probability ``r`` (a regeneration, recorded at that
    time) or from the normalized residual kernel otherwise; interior
    states are bridged by rejection against the one-step law.  Marginally
    the path follows the original kernel.
    """
    m, r, psi, theta = split.m, split.r, split.psi, split.theta
    cum_psi = closed_cumsum(psi)
    cum_theta = np.cumsum(theta, axis=1)  # rows total 1 - r: scale each draw by its row's end
    cum_fwd = spec.chain.cum_fwd
    col_max = spec.H.max(axis=0)

    states = np.empty(n_blocks * m + 1, dtype=np.int64)
    states[0] = np.searchsorted(spec.chain.cum_pi, rng.random(), side="right")
    regens = [0]
    for j in range(n_blocks):
        x0 = int(states[j * m])
        if r >= 1.0 or rng.random() < r:
            x_m = int(np.searchsorted(cum_psi, rng.random(), side="right"))
            regens.append((j + 1) * m)
        else:
            row = cum_theta[x0]
            x_m = int(np.searchsorted(row, rng.random() * row[-1], side="right"))
        if m > 1:
            states[j * m + 1:(j + 1) * m] = _bridge(
                spec, cum_fwd, col_max, x0, x_m, m, rng
            )
        states[(j + 1) * m] = x_m
    return states, np.asarray(regens, dtype=np.int64)


def _bridge(spec, cum_fwd, col_max, x0, x_m, m, rng, max_tries: int = 1_000_000):
    """Interior states given both skeleton endpoints, by rejection sampling."""
    bound = col_max[x_m]
    for _ in range(max_tries):
        path = np.empty(m - 1, dtype=np.int64)
        s = x0
        for i in range(m - 1):
            s = int(np.searchsorted(cum_fwd[s], rng.random(), side="right"))
            path[i] = s
        if rng.random() * bound < spec.H[s, x_m]:
            return path
    raise NumericalError("bridge rejection sampling did not accept")


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
    extinction_blocks: np.ndarray  # population totals between extinctions
    joint_blocks: np.ndarray  # population totals between joint times
    truncated: bool  # horizon cut the path inside a joint block


def regen_trace(
    path: BranchPath,
    regen_state: int,
    coin: float,
    rng: np.random.Generator,
) -> RegenTrace:
    nu = extinction_times(path.populations)
    N = chain_regenerations(path.states, regen_state, coin, rng)
    joint = common_regenerations(nu, N)
    cz = np.concatenate([[0], np.cumsum(path.populations)])
    w_ext = cz[nu[1:]] - cz[nu[:-1]]
    w_joint = cz[joint[1:]] - cz[joint[:-1]]
    return RegenTrace(
        extinctions=nu,
        chain_regens=N,
        joint=joint,
        extinction_blocks=w_ext,
        joint_blocks=w_joint,
        truncated=bool(joint[-1] != path.horizon),
    )


def branch_population_sums(
    spec: EnvironmentSpec, n: int, replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized ensemble of ``sum_{t < n} Z_t`` over independent replicas.

    Lanes run in lockstep; per-generation offspring use the
    negative-binomial equivalent of the geometric sum.
    """
    cum_fwd = spec.chain.cum_fwd
    states = np.searchsorted(spec.chain.cum_pi, rng.random(replicas), side="right")
    Z = np.zeros(replicas, dtype=np.int64)
    total = np.zeros(replicas, dtype=np.int64)
    for _ in range(n):
        total += Z
        Z = rng.negative_binomial(Z + 1, spec.omega[states])
        states = chain_move(cum_fwd, states, rng.random(replicas))
    return total


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
