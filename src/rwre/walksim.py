"""Quenched walk simulation and hitting-time extraction.

Hitting times come two ways:

* ``reference_walks`` — the reference path and the oracle: one uniform per
  step against the site probability, per-replica derived streams.  A
  record keeps the steps taken, the censoring flag, the deepest site and
  the left moves made from every site, which is what ``simulate-walk`` and
  the per-path identity ``T = n + 2 * (left moves)`` read.
* ``annealed_hitting_sample`` — the sampling API: the per-site left-move
  counts of a right-transient walk form a downward chain of
  negative-binomial draws (one crossing is forced through every edge
  between the origin and the target), so the hitting time is
  reconstructed per site instead of per step: one uniform per geometric
  brood and then the chain move's in one ``rng.random`` call, or numpy's
  negative-binomial draw where a site has many broods per lane and then
  the move's.  It equals the reference path in law, as the tests check.

Environment windows are two-sided, come from a model and extend
themselves on demand.

``reference_walks`` runs the reference path in lockstep over batches of
lanes, each lane on its own streams, and hands the last few live lanes of
a batch to the scalar loop of ``run_to_hit``; every record equals the one
``run_to_hit`` gives that lane alone.

Positions come from ``annealed_position_sample``: lockstep lanes of walks
on one site-major window buffer, filled in place, edges tested on a
countdown.  The buffer holds each site's chain state in the narrowest
unsigned type (one byte a site and lane up to 256 states), each row written
in place by ``chain_move``; a step reads ``omega`` off it.  The buffer
holds every site a lane can reach from the start, so it is never copied,
and batches are as wide as ``_WINDOW_BYTES`` allows for that.  The steps
before a countdown runs out draw their uniforms in one call, as does each
fill of the window.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng, derive_rngs
from .envmodel import EnvironmentSpec, chain_move, chain_walk
from .errors import ModelError, NumericalError

__all__ = [
    "EnvPath",
    "WalkRecord",
    "HittingSample",
    "sample_environment",
    "run_to_hit",
    "reference_walks",
    "forced_crossings",
    "annealed_hitting_sample",
    "annealed_position_sample",
]

DEFAULT_STEP_CAP = 10**9
_EXTEND_CHUNK = 64
_EXPLOSION_LIMIT = 2**60
# Broods per lane above which a left-move call goes to numpy's
# negative_binomial: on 2000 lanes (2-CPU Xeon) a brood costs about 13 ns and
# a numpy draw 80 ns a lane plus 35 us a call, so the two meet near 7 broods
# a lane; 4 also caps a call's brood buffers at 4 floats a lane.
_BROOD_FACTOR = 4
_BATCH_BYTES = 8 << 20  # memory budget of one lockstep batch of reference walks
_FINISH_LANES = 48  # a batch with at most this many live lanes finishes them one by one
_WALK_CHUNK = 256  # walk uniforms drawn per lockstep lane at a time
_SCALAR_CHUNK = 8192  # walk uniforms drawn at a time by the scalar loop
_POSITION_BATCH = 512  # fewest lockstep lanes in a batch of annealed_position_sample
# Bytes of a position batch's lanes at full height, window and a fill's uniforms:
# two 1000-lane batches for 2000 replicas at n = 10**4, _POSITION_BATCH from n of
# about 2.4 * 10**4 up.  One 2000-lane batch (41 MB) ran a little faster, but past
# glibc's 32 MiB mmap threshold it took fresh pages and 8 MB more peak RSS.
_WINDOW_BYTES = 24 << 20


@dataclass
class EnvPath:
    """Two-sided environment window over sites ``[-left, right]``.

    ``omega[i + left]`` is the right-step probability at site ``i``.  Sites
    at and below zero are read off the forward chain; positive sites come
    from the time-reversed kernel, matching the package-wide convention
    that site ``i`` carries the chain state at time ``-i``.
    """

    left: int
    right: int
    omega: np.ndarray
    states: np.ndarray
    spec: EnvironmentSpec
    rng: np.random.Generator

    def extend_left(self) -> None:
        """Grow the window downward by ``_EXTEND_CHUNK`` sites, continuing
        the forward chain."""
        new = chain_walk(self.spec.chain.fwd_rows, int(self.states[0]),
                         self.rng.random(_EXTEND_CHUNK).tolist())
        new_states = np.array(new[::-1], dtype=np.int64)
        self.states = np.concatenate([new_states, self.states])
        self.omega = np.concatenate([self.spec.omega[new_states], self.omega])
        self.left += _EXTEND_CHUNK

    def extend_right(self, count: int = _EXTEND_CHUNK) -> None:
        """Grow the window upward by continuing the reversed chain."""
        new = chain_walk(self.spec.chain.rev_rows, int(self.states[-1]),
                         self.rng.random(count).tolist())
        new_states = np.array(new, dtype=np.int64)
        self.states = np.concatenate([self.states, new_states])
        self.omega = np.concatenate([self.omega, self.spec.omega[new_states]])
        self.right += count


def sample_environment(
    spec: EnvironmentSpec, left: int, right: int, rng: np.random.Generator
) -> EnvPath:
    """Stationary two-sided environment window over ``[-left, right]``.

    The site-0 state is drawn from the stationary law, negative sites follow
    the forward kernel and positive sites the reversed kernel, so the window
    is a stationary stretch of the environment in distribution.  All
    ``left + right + 1`` uniforms come from one ``rng.random`` call and are
    used in a fixed order (origin, then downward, then upward), which is the
    stream and order of one draw per site.  Each move is a ``bisect`` on a
    row of the spec's cached chain table.
    """
    if left < 0 or right < 0:
        raise ModelError("window bounds must be nonnegative")
    table = spec.chain
    u = rng.random(left + right + 1).tolist()
    s0 = int(np.searchsorted(table.cum_pi, u[0], side="right"))
    down = chain_walk(table.fwd_rows, s0, u[1:left + 1])
    up = chain_walk(table.rev_rows, s0, u[left + 1:])
    states = np.array(down[::-1] + [s0] + up, dtype=np.int64)
    return EnvPath(
        left=left,
        right=right,
        omega=spec.omega[states],
        states=states,
        spec=spec,
        rng=rng,
    )


@dataclass(frozen=True)
class WalkRecord:
    """One quenched walk run to a target site (or to the step budget)."""

    n_target: int
    left_moves: np.ndarray  # per-site left-move counts for sites deepest..n_target
    deepest_site: int
    steps: int  # the hitting time of n_target unless censored
    censored: bool

    @property
    def identity_holds(self) -> bool:
        """Exact bookkeeping identity: T = n + 2 * (total left moves)."""
        return not self.censored and self.steps == self.n_target + 2 * int(self.left_moves.sum())


@dataclass
class _WalkState:
    """A reference walk paused after ``t`` steps at site ``pos``.

    ``deepest`` is the lowest site reached and ``U[i + env.left]`` the left
    moves made from site ``i``; the walk's stream stands at its ``t + 1``-th
    uniform.
    """

    pos: int
    t: int
    deepest: int
    U: np.ndarray


def _cover(env: EnvPath, n: int) -> None:
    """Check the target site ``n`` and extend ``env`` up to site ``n - 1``."""
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    while env.right < n - 1:
        env.extend_right(max(_EXTEND_CHUNK, n - 1 - env.right))


def run_to_hit(
    env: EnvPath,
    n: int,
    rng: np.random.Generator,
    step_cap: int = DEFAULT_STEP_CAP,
    resume: _WalkState | None = None,
) -> WalkRecord:
    """Reference quenched walk from the origin to the first visit of ``n``.

    One uniform per step, no shortcuts.  The environment window is extended
    on demand.  ``resume`` continues a walk paused in that state on the
    same ``env`` and ``rng``.
    """
    _cover(env, n)
    if resume is None:
        resume = _WalkState(0, 0, 0, np.zeros(env.left + n + 1, dtype=np.int64))
    # Python lists: indexing them is several times cheaper than numpy's
    omega = env.omega.tolist()
    left = env.left
    U = resume.U.tolist()  # site i at index i + left
    pos, t, deepest = resume.pos, resume.t, resume.deepest
    chunk = 64  # uniforms per draw, doubled up to _SCALAR_CHUNK: a lane near its end draws few
    while pos < n and t < step_cap:
        draws = rng.random(min(chunk, step_cap - t)).tolist()
        chunk = min(2 * chunk, _SCALAR_CHUNK)
        for u in draws:
            t += 1
            if u < omega[pos + left]:
                pos += 1
                if pos == n:
                    break
            else:
                U[pos + left] += 1
                pos -= 1
                if pos < deepest:
                    deepest = pos
                    if pos + left < 0:  # extend before the next step or the cap test
                        env.extend_left()
                        U = [0] * (env.left - left) + U
                        omega = env.omega.tolist()
                        left = env.left
    return WalkRecord(
        n_target=n,
        left_moves=np.array(U[deepest + left:], dtype=np.int64),
        deepest_site=deepest,
        steps=t,
        censored=pos < n,
    )


@dataclass(frozen=True)
class HittingSample:
    """Annealed hitting-time sample; an entry above the step cap is censored."""

    values: np.ndarray
    censored: np.ndarray

    @property
    def complete(self) -> np.ndarray:
        return self.values[~self.censored]


def reference_walks(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Iterator[WalkRecord]:
    """One reference walk to site ``n`` per replica, in replica order.

    Replica ``idx`` samples its window over ``[-_EXTEND_CHUNK, n - 1]`` from
    ``derive_rng(seed, idx, 0)`` and runs its walk on ``derive_rng(seed, idx, 1)``;
    one ``derive_rngs`` call per batch derives both streams of every replica.
    Replicas run in lockstep batches of as many lanes as ``_BATCH_BYTES``
    holds; the records are those of ``run_to_hit`` on each replica alone.
    A batch of at most ``_FINISH_LANES`` lanes (at large ``n`` every batch)
    is walked one replica at a time by ``run_to_hit`` on windows from
    ``sample_environment``, which beats ``_sample_windows`` on few lanes
    (16 against 40 ms for twelve at ``n = 10**4``).
    """
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    if replicas < 0:
        raise ModelError("replicas must be nonnegative")
    width = _batch_width(n)
    for start in range(0, replicas, width):
        ids = np.arange(start, min(start + width, replicas))
        m = ids.size
        rngs = derive_rngs(seed, np.column_stack([np.tile(ids, 2), np.repeat([0, 1], m)]))
        env_rngs, walk_rngs = rngs[:m], rngs[m:]
        if m <= _FINISH_LANES:
            for env_rng, walk_rng in zip(env_rngs, walk_rngs):
                env = sample_environment(spec, _EXTEND_CHUNK, n - 1, env_rng)
                yield run_to_hit(env, n, walk_rng, step_cap)
            continue
        envs = _sample_windows(spec, _EXTEND_CHUNK, n - 1, env_rngs)
        yield from _Lockstep(envs, n, walk_rngs, step_cap).run()


def _batch_width(n: int) -> int:
    """Lanes per batch: a lane is given eight int64 or float64 arrays over
    its window (uniforms, states, omega, left moves, its record and room
    for the buffers to grow), plus its walk uniforms.

    Sizing it to the two lockstep buffers alone (16 bytes a site, hand-off
    at ``2 * omega.nbytes``) keeps the records and cuts a tenth of the CPU
    of 200 walks to ``n = 1000`` on ``chain-mk-k2``, but raises their peak
    resident set from 110 to 127 MB, past the benchmark's 10% bound.
    """
    return max(1, _BATCH_BYTES // (64 * (n + _EXTEND_CHUNK) + 8 * _WALK_CHUNK))


def _sample_windows(spec, left, right, rngs) -> list[EnvPath]:
    """``sample_environment(spec, left, right, rng)`` for every stream in
    ``rngs``: each lane's uniforms come from one call on its stream, and the
    chain moves of every lane are made at once, one ``chain_move`` per site."""
    if left < 0 or right < 0:
        raise ModelError("window bounds must be nonnegative")
    table = spec.chain
    u = np.empty((len(rngs), left + right + 1))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    states = np.empty(u.shape, dtype=np.int64)
    s = states[:, left] = np.searchsorted(table.cum_pi, u[:, 0], side="right")
    for k in range(1, left + 1):
        s = states[:, left - k] = chain_move(table.cum_fwd, s, u[:, k])
    s = states[:, left]
    for k in range(left + 1, left + right + 1):
        s = states[:, k] = chain_move(table.cum_rev, s, u[:, k])
    omega = spec.omega[states]
    return [EnvPath(left, right, w, st, spec, rng) for w, st, rng in zip(omega, states, rngs)]


class _Lockstep:
    """``run_to_hit(envs[i], n, rngs[i], step_cap)`` for every lane ``i``,
    the lanes stepped together while more than ``_FINISH_LANES`` are live
    and the buffers fit ``_BATCH_BYTES``.

    Row ``i`` of ``omega`` and ``U`` (left moves) holds lane ``i``, column
    ``c`` site ``c - z``; a lane at column ``c`` reads flat index
    ``i * width + c``.  Lane ``i``'s window starts at column ``lo[i]``;
    columns below it are head-room for left extensions, added for every
    lane at once when one runs short.  Sites ``n`` and ``n + 1`` are a sink
    (right, then back left), so a lane that hits ``n`` stays there, clear of
    its record, until the next boundary retires it.  Each bounce adds one
    to the lane's ``U`` at ``n + 1``, so a lane at ``pos`` in the sink at
    step ``t`` hit ``n`` at step ``t - 2 * U[n + 1] - (pos - n)``.
    """

    def __init__(self, envs, n, rngs, step_cap):
        for env in envs:
            _cover(env, n)
        self.envs, self.n, self.rngs, self.step_cap = envs, n, rngs, step_cap
        self.z = max(env.left for env in envs)
        self.lo = np.array([self.z - env.left for env in envs], dtype=np.int64)
        shape = (len(envs), self.z + n + 2)
        self.omega = np.empty(shape)
        for row, lo, env in zip(self.omega, self.lo, envs):
            row[lo:self.z + n] = env.omega[:env.left + n]
        self.omega[:, self.z + n:] = (1.0, 0.0)
        self.U = np.zeros(shape, dtype=np.int64)

    def _extend(self, lane, idx, below) -> None:
        """Extend the windows of lanes ``lane[below]``, each one site below
        its window, first adding head-room for every lane if one runs short;
        ``idx`` follows the buffers in place."""
        width = self.omega.shape[1]
        if self.lo[lane[below]].min() < _EXTEND_CHUNK:
            def pad(a):
                return np.concatenate([np.zeros((a.shape[0], width), a.dtype), a], axis=1)
            self.omega, self.U = pad(self.omega), pad(self.U)
            self.z += width
            self.lo += width
            idx += (lane + 1) * width  # flat i * 2 * width + c + width
        for i in lane[below]:
            self.envs[i].extend_left()
            self.lo[i] -= _EXTEND_CHUNK
            self.omega[i, self.lo[i]:self.lo[i] + _EXTEND_CHUNK] = \
                self.envs[i].omega[:_EXTEND_CHUNK]

    def _deepest(self, i: int) -> int:
        # a left move from site s reached s - 1: the lowest such s gives the deepest site
        moved = np.flatnonzero(self.U[i, self.lo[i]:self.z + 1])
        return min(0, int(self.lo[i] + moved[0]) - self.z - 1) if moved.size else 0

    def _record(self, i, steps, censored) -> WalkRecord:
        z, deepest = self.z, self._deepest(i)
        return WalkRecord(
            n_target=self.n,
            left_moves=self.U[i, z + deepest:z + self.n + 1].copy(),
            deepest_site=deepest,
            steps=steps,
            censored=censored,
        )

    def run(self) -> Iterator[WalkRecord]:
        """The lanes' records in lane order.  Lanes still live when the
        lockstep phase ends are finished by ``run_to_hit`` as their turn
        comes, and each lane's window is dropped once its record is out."""
        n, cap = self.n, self.step_cap
        records, paused = self._lockstep()
        for i, rec in enumerate(records):
            env, self.envs[i] = self.envs[i], None
            yield rec if rec is not None else run_to_hit(env, n, self.rngs[i], cap, paused.pop(i))

    def _lockstep(self) -> tuple[list, dict[int, _WalkState]]:
        """Step the lanes together until at most ``_FINISH_LANES`` are live,
        the head-room has outgrown ``_BATCH_BYTES`` or the cap is reached.
        Returns the records of the lanes that ended, ``None`` for the rest,
        and each live lane's paused state; the batch buffers are released."""
        n, cap, chunk = self.n, self.step_cap, _WALK_CHUNK
        records = [None] * len(self.envs)
        lane = np.arange(len(self.envs))  # live lanes
        idx = lane * self.omega.shape[1] + self.z  # flat position of each live lane
        t = 0
        while True:
            # Chunk boundary: retire lanes in the sink, censor at the cap, hand
            # a handful of live lanes, or all once the head-room has outgrown
            # the budget, to the scalar loop.
            width, z = self.omega.shape[1], self.z
            pos = idx - lane * width - z
            done = pos >= n
            for k in np.flatnonzero(done):
                i = lane[k]
                hit = t - 2 * int(self.U[i, z + n + 1]) - int(pos[k] - n)
                records[i] = self._record(i, hit, False)
            if t >= cap:  # censor every live lane
                for k in np.flatnonzero(~done):
                    records[lane[k]] = self._record(lane[k], t, True)
                done[:] = True
            lane, idx, pos = lane[~done], idx[~done], pos[~done]
            # three lane buffers' worth, as _batch_width budgets
            if lane.size <= _FINISH_LANES or 3 * self.omega.nbytes > _BATCH_BYTES:
                paused = {int(i): _WalkState(int(pos[k]), t, self._deepest(i),
                                             self.U[i, self.lo[i]:z + n + 1].copy())
                          for k, i in enumerate(lane)}
                self.omega = self.U = None
                return records, paused
            W = np.empty((lane.size, chunk))
            for row, i in zip(W, lane):
                self.rngs[i].random(out=row)
            om, U = self.omega.ravel(), self.U.ravel()
            lo = lane * width + self.lo[lane]  # flat index of each lane's lowest site
            j, stop = 0, min(chunk, cap - t)
            while j < stop:
                # no lane leaves its window in fewer steps than this
                for _ in range(min(stop - j, int((idx - lo).min()) + 1)):
                    right = W[:, j] < om.take(idx)
                    left = ~right
                    U[idx[left]] += 1
                    idx += right
                    idx -= left
                    j += 1
                # extend before the next step or the cap test, as run_to_hit does
                below = np.flatnonzero(idx < lo)
                if below.size:
                    self._extend(lane, idx, below)
                    om, U = self.omega.ravel(), self.U.ravel()
                    lo = lane * self.omega.shape[1] + self.lo[lane]
            t += stop


def _left_moves(rng, size, states, lanes, omega, log_q, max_odds: float, moves: int = 0):
    """Negative-binomial left-move counts NB(size, omega[states]), checked
    before the draw, and the stream's next ``moves`` uniforms after it.

    A lane's count is the sum of ``size`` geometric broods, the right steps
    before each left step, ``floor(log1p(-U) / log_q[state])`` from one
    uniform each, ``log_q`` being the per-state table ``log1p(-omega)``
    (Devroye 1986, ch. X).  One ``rng.random`` call draws the broods, in
    lane order, and the ``moves``; one ``bincount`` over ``lanes``
    (``arange(size.size)``) sums every lane's broods (whole floats, so exact
    below 2**53); a lane of size 0 gets 0.  Above ``_BROOD_FACTOR`` broods a
    lane, one numpy ``negative_binomial`` call draws the counts instead,
    before the ``moves``.  numpy refuses a mean ``size (1 - p) / p`` near
    2**63 (its Poisson rate limit), long after the count has exploded: a
    bound ``max(size) * max_odds`` above ``_EXPLOSION_LIMIT`` is a
    ``NumericalError``.  The maximum is read only if the float total, never
    below it, is past the bound, and the check consumes no draws.
    """
    total = size.sum(dtype=float)  # a float total cannot wrap
    if total * max_odds > _EXPLOSION_LIMIT and size.max() * max_odds > _EXPLOSION_LIMIT:
        raise NumericalError("left-move count explosion")
    if total > _BROOD_FACTOR * size.size:  # numpy refuses size 0: those lanes' draws are dropped
        counts = np.where(size > 0, rng.negative_binomial(np.maximum(size, 1), omega[states]), 0)
        return counts, rng.random(moves)
    u = rng.random(int(total) + moves)
    broods = u[:int(total)]
    np.log1p(np.negative(broods, out=broods), out=broods)
    lane = lanes.repeat(size)  # each brood's lane, in lane order
    broods /= log_q.take(states).take(lane)
    counts = np.bincount(lane, np.floor(broods, out=broods), size.size).astype(np.int64)
    return counts, u[int(total):]


def forced_crossings(
    spec: EnvironmentSpec, sites: int, replicas: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-move counts of ``replicas`` walks that each cross ``sites``
    sites to the right, read downward from a stationary state.

    A site's count is negative-binomial with size (count above + 1), the
    sum of that many geometric broods (:func:`_left_moves`), then the chain
    moves one site down on the uniforms that draw returns.  Returns the last
    site's counts, each replica's total and the states below the last site:
    one generation per site of the branching process with immigration.
    """
    law = spec.omega, np.log1p(-spec.omega), float(spec.rho.max())
    lanes = np.arange(replicas)
    states = np.searchsorted(spec.chain.cum_pi, rng.random(replicas), side="right")
    spare = np.empty_like(states)  # the chain moves' output, swapped with states
    counts = np.zeros(replicas, dtype=np.int64)
    total = np.zeros(replicas, dtype=np.int64)
    for _ in range(sites):
        counts += 1  # this site's sizes
        counts, u = _left_moves(rng, counts, states, lanes, *law, moves=replicas)
        total += counts
        states, spare = chain_move(spec.chain.cum_fwd, states, u, out=spare), states
    return counts, total, states


def annealed_hitting_sample(
    spec: EnvironmentSpec,
    n: int,
    replicas: int,
    seed: int,
    step_cap: int | None = DEFAULT_STEP_CAP,
) -> HittingSample:
    """Independent environment + walk per replica, reduced to hitting times.

    A hitting time is ``n + 2 * (total left moves)``: the forced crossings
    of sites ``n - 1`` down to 0 (:func:`forced_crossings`), then below the
    origin until a lane's count is zero.  Each site costs one uniform per
    geometric brood, or one negative-binomial call where the site has more
    than ``_BROOD_FACTOR`` broods per lane (:func:`_left_moves`); the
    hitting time is that of :func:`reference_walks` in law, every draw from
    ``derive_rng(seed, 0)`` in a fixed order.  Values above ``step_cap``
    are censored.
    """
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    if replicas < 0:
        raise ModelError("replicas must be nonnegative")
    rng = derive_rng(seed, 0)
    counts, total, states = forced_crossings(spec, n, replicas, rng)
    law = spec.omega, np.log1p(-spec.omega), float(spec.rho.max())

    # Sites below the origin: no forced crossing; lanes retire at zero count.
    active = np.flatnonzero(counts > 0)
    states = states[active]
    counts = counts[active]
    depth = 0
    while active.size:
        depth += 1
        if depth > 100_000:
            raise NumericalError("walk excursion below origin did not terminate")
        counts = _left_moves(rng, counts, states, np.arange(counts.size), *law)[0]
        total[active] += counts
        keep = counts > 0
        active = active[keep]
        counts = counts[keep]
        states = chain_move(spec.chain.cum_fwd, states[keep], rng.random(active.size))

    values = n + 2.0 * total
    censored = np.zeros(replicas, dtype=bool) if step_cap is None else values > step_cap
    return HittingSample(values=values, censored=censored)


def annealed_position_sample(
    spec: EnvironmentSpec,
    n_steps: int,
    replicas: int,
    seed: int,
) -> np.ndarray:
    """Walker positions after ``n_steps`` steps, one fresh environment each.

    Replicas run in as few equal batches as a width of
    ``max(_POSITION_BATCH, _WINDOW_BYTES // lane_bytes)`` lanes allows, a
    lane's bytes being its full-height window column and one fill's
    uniforms; batch ``b`` draws from the stream ``derive_rng(seed, b)``.
    A batch's lanes step in lockstep, one uniform each per step.
    Their environments share one site-major buffer: row ``r`` holds every
    lane's chain state at one site, in the narrowest unsigned type that
    holds ``n_states - 1``, and a lane at row ``r`` reads flat index
    ``r * lanes + lane`` and then that state's ``omega``.  The buffer has
    every row a lane can reach from the start, ``n_steps + _EXTEND_CHUNK``
    on each side of the origin, and is never copied; ``np.empty`` leaves
    rows that are never written out of the resident set.  The window
    starts ``_EXTEND_CHUNK`` sites a side.  After a step that leaves a lane
    on a window edge, that side is filled ``_EXTEND_CHUNK`` sites further
    (left before right) from the edge row's states, in place.  A lane
    moves one site per step, so the edges are re-measured only when a
    countdown, the distance from the nearest edge to its closest lane,
    runs out.  The steps up to then form a segment: no edge moves inside
    it, so its uniforms come from one ``rng.random((steps, lanes))`` call,
    row by row the same stream as one call per step.  Each fill draws its
    ``_EXTEND_CHUNK`` rows of chain uniforms in one call too.
    Deterministic for fixed ``(spec, n_steps, replicas, seed)``.
    """
    if n_steps < 0 or replicas < 0:
        raise ModelError("step count and replicas must be nonnegative")
    state = np.min_scalar_type(spec.n_states - 1)  # a site's chain state, one byte up to 256
    height = 2 * (n_steps + _EXTEND_CHUNK) + 1  # every site a lane reaches, and a fill past it
    lane_bytes = height * state.itemsize + 8 * _EXTEND_CHUNK
    batches = -(-replicas // max(_POSITION_BATCH, _WINDOW_BYTES // lane_bytes))
    out = np.empty(replicas, dtype=np.int64)
    for b in range(batches):
        part = out[b * replicas // batches:(b + 1) * replicas // batches]
        part[:] = _position_batch(spec, n_steps, np.empty((height, part.size), state),
                                  derive_rng(seed, b))
    return out


def _position_batch(spec, n_steps, buf, rng):
    """Positions of ``buf.shape[1]`` lockstep lanes after ``n_steps`` steps,
    their window in ``buf`` (origin in the middle row) and every draw from
    ``rng``; see :func:`annealed_position_sample`."""
    table, chunk, lanes = spec.chain, _EXTEND_CHUNK, buf.shape[1]

    def fill(rows, cum):
        # one lockstep chain move per buffer row from the row before it,
        # written in place, uniforms drawn at once
        for r, u in zip(rows, rng.random((len(rows), lanes))):
            chain_move(cum, buf[r - rows.step], u, out=buf[r])

    origin = len(buf) // 2
    lo, hi = origin - chunk, origin + chunk  # buffer rows of sites -left and right
    buf[origin] = np.searchsorted(table.cum_pi, rng.random(lanes), side="right")
    fill(range(origin - 1, lo - 1, -1), table.cum_fwd)
    fill(range(origin + 1, hi + 1), table.cum_rev)
    idx, flat = origin * lanes + np.arange(lanes), buf.ravel()
    # step buffers; take's default mode would copy through a temporary, and
    # every index here lies inside its table, so "clip" never clips
    st, om = np.empty(lanes, dtype=buf.dtype), np.empty(lanes)
    right, step = np.empty(lanes, dtype=bool), np.empty_like(idx)
    move, side = np.array([-lanes, lanes]), right.view(np.uint8)  # move[side]: buffer offset
    countdown = chunk
    while True:
        # no lane can reach an edge within the segment: its uniforms come at once
        seg = min(countdown, n_steps)
        for u in rng.random((seg, lanes)):
            flat.take(idx, out=st, mode="clip")
            spec.omega.take(st, out=om, mode="clip")
            np.less(u, om, out=right)
            move.take(side, out=step, mode="clip")
            idx += step
        n_steps -= seg
        if not n_steps:
            return idx // lanes - origin
        del u  # the segment's uniform block, before the fills draw theirs
        if idx.min() // lanes == lo:
            fill(range(lo - 1, lo - chunk - 1, -1), table.cum_fwd)
            lo -= chunk
        if idx.max() // lanes == hi:
            fill(range(hi + 1, hi + chunk + 1), table.cum_rev)
            hi += chunk
        countdown = min(idx.min() // lanes - lo, hi - idx.max() // lanes)
