"""Quenched walk simulation and hitting-time extraction.

Hitting times come two ways:

* ``reference_walks`` — the reference path and the oracle: one uniform per
  step against the site probability, full per-site bookkeeping,
  per-replica derived streams.  ``simulate-walk`` and every per-path
  record use it.
* ``annealed_hitting_sample`` — the sampling API: the per-site left-move
  counts of a right-transient walk form a downward chain of
  negative-binomial draws (one crossing is forced through every edge
  between the origin and the target), so the hitting time is
  reconstructed from one draw per site instead of one per step.  It is
  distributionally identical to the reference path and is validated
  against it in the test suite.

Environment windows are two-sided and extend themselves on demand when
they were generated from a model; fixed windows raise instead.

``reference_walks`` runs the reference path in lockstep over batches of
lanes, each lane on its own streams, and hands the last few live lanes of
a batch to the scalar loop of ``run_to_hit``; every record equals the one
``run_to_hit`` gives that lane alone.

Positions come from ``annealed_position_sample``: lockstep lanes of walks
on one site-major window buffer, grown in place, edges tested on a countdown.
The steps before a countdown runs out draw their uniforms in one call, as
does each growth of the window.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng, derive_rngs
from .envmodel import EnvironmentSpec, chain_move, chain_walk
from .errors import ModelError, NumericalError, WindowError

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
_BATCH_BYTES = 8 << 20  # memory budget of one lockstep batch of reference walks
_FINISH_LANES = 48  # a batch with at most this many live lanes finishes them one by one
_WALK_CHUNK = 256  # walk uniforms drawn per lockstep lane at a time
_SCALAR_CHUNK = 8192  # walk uniforms drawn at a time by the scalar loop
_POSITION_BATCH = 512  # lockstep lanes per batch of annealed_position_sample


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
    states: np.ndarray | None = None
    spec: EnvironmentSpec | None = None
    rng: np.random.Generator | None = None

    @property
    def extendable(self) -> bool:
        return self.spec is not None and self.rng is not None and self.states is not None

    def extend_left(self, count: int = _EXTEND_CHUNK) -> None:
        """Grow the window downward by continuing the forward chain."""
        if not self.extendable:
            raise WindowError("window too small and environment is fixed", -self.left)
        new = chain_walk(self.spec.chain.fwd_rows, int(self.states[0]),
                         self.rng.random(count).tolist())
        new_states = np.array(new[::-1], dtype=np.int64)
        self.states = np.concatenate([new_states, self.states])
        self.omega = np.concatenate([self.spec.omega[new_states], self.omega])
        self.left += count

    def extend_right(self, count: int = _EXTEND_CHUNK) -> None:
        """Grow the window upward by continuing the reversed chain."""
        if not self.extendable:
            raise WindowError("window too small and environment is fixed", self.right)
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
    hit_times: np.ndarray  # hit_times[k-1] = first time at site k, k = 1..reached
    left_moves: np.ndarray  # per-site left-move counts for sites deepest..n_target
    deepest_site: int
    final_position: int
    steps: int
    censored: bool

    @property
    def reached(self) -> int:
        return len(self.hit_times)

    @property
    def hitting_time(self) -> int:
        if self.censored:
            raise NumericalError("record is censored: target was not reached")
        return int(self.hit_times[-1])

    @property
    def crossing_times(self) -> np.ndarray:
        """Per-site crossing durations (first differences of the hit times)."""
        return np.diff(self.hit_times, prepend=0)

    @property
    def total_left_moves(self) -> int:
        return int(self.left_moves.sum())

    def left_moves_at(self, site: int) -> int:
        if site < self.deepest_site or site > self.n_target:
            return 0
        return int(self.left_moves[site - self.deepest_site])

    @property
    def identity_holds(self) -> bool:
        """Exact bookkeeping identity: T = n + 2 * (total left moves)."""
        if self.censored:
            return False
        return self.hitting_time == self.n_target + 2 * self.total_left_moves


@dataclass
class _WalkState:
    """A reference walk paused after ``t`` steps at site ``pos``.

    ``best`` and ``deepest`` are the highest and lowest sites reached,
    ``U[i + env.left]`` the left moves made from site ``i`` and ``hit`` the
    hit times so far; the walk's stream stands at its ``t + 1``-th uniform.
    """

    pos: int
    t: int
    best: int
    deepest: int
    U: np.ndarray
    hit: np.ndarray


def _cover(env: EnvPath, n: int) -> None:
    """Check the target site ``n`` and extend ``env`` up to site ``n - 1``."""
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    while env.right < n - 1:
        env.extend_right(max(_EXTEND_CHUNK, n - 1 - env.right))


def _extend_below(env: EnvPath, pos: int) -> None:
    """Grow ``env`` by one chunk under a walk that left it at site ``pos``."""
    if not env.extendable:
        raise WindowError(f"window too small: walk reached site {pos}", pos)
    env.extend_left()


def run_to_hit(
    env: EnvPath,
    n: int,
    rng: np.random.Generator,
    step_cap: int = DEFAULT_STEP_CAP,
    resume: _WalkState | None = None,
) -> WalkRecord:
    """Reference quenched walk from the origin to the first visit of ``n``.

    One uniform per step, no shortcuts.  The environment window is extended
    on demand for model-generated environments; a fixed window raises a
    ``WindowError`` carrying the deepest site reached.  ``resume`` continues
    a walk paused in that state on the same ``env`` and ``rng``.
    """
    _cover(env, n)
    if resume is None:
        resume = _WalkState(0, 0, 0, 0, np.zeros(env.left + n + 1, dtype=np.int64),
                            np.zeros(n, dtype=np.int64))
    # Python lists: indexing them is several times cheaper than numpy's
    omega = env.omega.tolist()
    left = env.left
    U = resume.U.tolist()  # site i at index i + left
    hit = resume.hit.tolist()
    pos, t, best, deepest = resume.pos, resume.t, resume.best, resume.deepest
    chunk = 64  # uniforms per draw, doubled up to _SCALAR_CHUNK: a lane near its end draws few
    while pos < n:
        if t >= step_cap:
            return WalkRecord(
                n_target=n,
                hit_times=np.array(hit[:best], dtype=np.int64),
                left_moves=np.array(U[deepest + left:], dtype=np.int64),
                deepest_site=deepest,
                final_position=pos,
                steps=t,
                censored=True,
            )
        draws = rng.random(min(chunk, step_cap - t)).tolist()
        chunk = min(2 * chunk, _SCALAR_CHUNK)
        for u in draws:
            t += 1
            if u < omega[pos + left]:
                pos += 1
                if pos > best:
                    hit[pos - 1] = t
                    best = pos
                    if pos == n:
                        break
            else:
                U[pos + left] += 1
                pos -= 1
                if pos < deepest:
                    deepest = pos
                    if pos + left < 0:  # extend before the next step or the cap test
                        _extend_below(env, pos)
                        U = [0] * (env.left - left) + U
                        omega = env.omega.tolist()
                        left = env.left
    return WalkRecord(
        n_target=n,
        hit_times=np.array(hit, dtype=np.int64),
        left_moves=np.array(U[deepest + left:], dtype=np.int64),
        deepest_site=deepest,
        final_position=pos,
        steps=t,
        censored=False,
    )


@dataclass(frozen=True)
class HittingSample:
    """Annealed hitting-time sample; an entry above the step cap is censored."""

    n: int
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
    is walked one replica at a time by ``run_to_hit``.
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
    """Lanes per batch: a lane holds about eight int64 or float64 arrays
    over its window (uniforms, states, omega, left moves, hit times, its
    record), plus its walk uniforms."""
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

    Row ``i`` of ``omega``, ``U`` (left moves) and ``hit`` (first hit times)
    holds lane ``i``, column ``c`` site ``c - z``; a lane at column ``c``
    reads flat index ``i * width + c``.  Lane ``i``'s window starts at column
    ``lo[i]``; columns below it are head-room for left extensions, added for
    every lane at once when one runs short.  Sites ``n`` and ``n + 1`` are a
    sink (right, then back left), so a lane that hits ``n`` stays there,
    clear of its record, until the next boundary retires it.
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
        self.hit = np.zeros(shape, dtype=np.int64)

    def _extend(self, lane, idx, best, below) -> None:
        """Extend the windows of lanes ``lane[below]``, each one site below
        its window, first adding head-room for every lane if one runs short;
        ``idx`` and ``best`` follow the buffers in place."""
        width = self.omega.shape[1]
        if self.lo[lane[below]].min() < _EXTEND_CHUNK:
            def pad(a):
                return np.concatenate([np.zeros((a.shape[0], width), a.dtype), a], axis=1)
            self.omega, self.U, self.hit = pad(self.omega), pad(self.U), pad(self.hit)
            self.z += width
            self.lo += width
            idx += (lane + 1) * width  # flat i * 2 * width + c + width
            best += (lane + 1) * width
            width *= 2
        for k in below:
            i = lane[k]
            _extend_below(self.envs[i], int(idx[k] - i * width - self.z))
            self.lo[i] -= _EXTEND_CHUNK
            self.omega[i, self.lo[i]:self.lo[i] + _EXTEND_CHUNK] = \
                self.envs[i].omega[:_EXTEND_CHUNK]

    def _deepest(self, i: int) -> int:
        # a left move from site s reached s - 1: the lowest such s gives the deepest site
        moved = np.flatnonzero(self.U[i, self.lo[i]:self.z + 1])
        return min(0, int(self.lo[i] + moved[0]) - self.z - 1) if moved.size else 0

    def _record(self, i, pos, best, steps, censored) -> WalkRecord:
        z, deepest = self.z, self._deepest(i)
        return WalkRecord(
            n_target=self.n,
            hit_times=self.hit[i, z + 1:z + 1 + best].copy(),
            left_moves=self.U[i, z + deepest:z + self.n + 1].copy(),
            deepest_site=deepest,
            final_position=pos,
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
        best = idx.copy()  # flat index of its highest site
        t = 0
        while True:
            # Chunk boundary: retire lanes that hit n, censor at the cap, hand
            # a handful of live lanes, or all once the head-room has outgrown
            # the budget, to the scalar loop.
            width, z = self.omega.shape[1], self.z
            pos, top = idx - lane * width - z, best - lane * width - z
            done = top >= n
            for k in np.flatnonzero(done):
                i = lane[k]
                records[i] = self._record(i, n, n, int(self.hit[i, z + n]), False)
            if t >= cap:  # censor every live lane
                for k in np.flatnonzero(~done):
                    records[lane[k]] = self._record(lane[k], int(pos[k]), int(top[k]), t, True)
                done[:] = True
            lane, idx, best, pos, top = (a[~done] for a in (lane, idx, best, pos, top))
            if lane.size <= _FINISH_LANES or 3 * self.omega.nbytes > _BATCH_BYTES:
                paused = {int(i): _WalkState(int(pos[k]), t, int(top[k]), self._deepest(i),
                                             self.U[i, self.lo[i]:z + n + 1].copy(),
                                             self.hit[i, z + 1:z + n + 1].copy())
                          for k, i in enumerate(lane)}
                self.omega = self.U = self.hit = None
                return records, paused
            W = np.empty((lane.size, chunk))
            for row, i in zip(W, lane):
                self.rngs[i].random(out=row)
            om, U, hit = self.omega.ravel(), self.U.ravel(), self.hit.ravel()
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
                    new = idx > best
                    best += new
                    hit[idx[new]] = t + j
                # extend before the next step or the cap test, as run_to_hit does
                below = np.flatnonzero(idx < lo)
                if below.size:
                    self._extend(lane, idx, best, below)
                    om, U, hit = self.omega.ravel(), self.U.ravel(), self.hit.ravel()
                    lo = lane * self.omega.shape[1] + self.lo[lane]
            t += stop


def _left_moves(rng, size: np.ndarray, p: np.ndarray, max_odds: float) -> np.ndarray:
    """Negative-binomial left-move counts, checked before the draw.

    numpy refuses a draw whose mean ``size (1 - p) / p`` nears 2**63 (its
    Poisson rate limit).  The count has exploded long before that, so a
    mean bound ``max(size) * max_odds`` above ``_EXPLOSION_LIMIT`` is a
    ``NumericalError``.  The check consumes no draws.
    """
    if np.max(size, initial=0) * max_odds > _EXPLOSION_LIMIT:
        raise NumericalError("left-move count explosion")
    return rng.negative_binomial(size, p)


def forced_crossings(
    spec: EnvironmentSpec, sites: int, replicas: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-move counts of ``replicas`` walks that each cross ``sites``
    sites to the right, read downward from a stationary state.

    A site's count is negative-binomial with size (count above + 1), then
    the chain moves one site down.  Returns the last site's counts, each
    replica's total and the states below the last site.  Read as one
    generation per site, this is the branching process with immigration.
    """
    max_odds = float(spec.rho.max())
    states = np.searchsorted(spec.chain.cum_pi, rng.random(replicas), side="right")
    counts = np.zeros(replicas, dtype=np.int64)
    total = np.zeros(replicas, dtype=np.int64)
    for _ in range(sites):
        counts = _left_moves(rng, counts + 1, spec.omega[states], max_odds)
        total += counts
        states = chain_move(spec.chain.cum_fwd, states, rng.random(replicas))
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
    origin until a lane's count is zero.  One draw per site, the hitting
    time of :func:`reference_walks` in law, every draw from
    ``derive_rng(seed, 0)`` in a fixed order.  Values above ``step_cap``
    are censored.
    """
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    if replicas < 0:
        raise ModelError("replicas must be nonnegative")
    rng = derive_rng(seed, 0)
    counts, total, states = forced_crossings(spec, n, replicas, rng)
    max_odds = float(spec.rho.max())

    # Sites below the origin: no forced crossing; lanes retire at zero count.
    active = np.flatnonzero(counts > 0)
    states = states[active]
    counts = counts[active]
    depth = 0
    while active.size:
        depth += 1
        if depth > 100_000:
            raise NumericalError("walk excursion below origin did not terminate")
        counts = _left_moves(rng, counts, spec.omega[states], max_odds)
        total[active] += counts
        keep = counts > 0
        active = active[keep]
        counts = counts[keep]
        states = chain_move(spec.chain.cum_fwd, states[keep], rng.random(active.size))

    values = n + 2.0 * total
    censored = np.zeros(replicas, dtype=bool) if step_cap is None else values > step_cap
    return HittingSample(n=n, values=values, censored=censored)


def annealed_position_sample(
    spec: EnvironmentSpec,
    n_steps: int,
    replicas: int,
    seed: int,
) -> np.ndarray:
    """Walker positions after ``n_steps`` steps, one fresh environment each.

    Replicas run in batches of ``_POSITION_BATCH`` lanes, batch ``b`` on the
    stream ``derive_rng(seed, b)``; a batch's lanes step in lockstep, one
    uniform each per step.  Their environments share one site-major buffer:
    row ``r`` holds every lane's ``omega`` at one site, and a lane at row
    ``r`` reads flat index ``r * lanes + lane``.  After a step that leaves a
    lane on a window edge, that side grows by ``_EXTEND_CHUNK`` sites (left
    before right) from the kept edge states, in place, or into a copy with
    a window's height of head-room added on both sides once a side runs
    short.  A lane moves one site per step, so the edges are re-measured
    only when a countdown, the distance from the nearest edge to its
    closest lane, runs out.  The steps up to then form a segment: no edge
    grows inside it, so its uniforms come from one ``rng.random((steps,
    lanes))`` call, row by row the same stream as one call per step.  Each
    growth draws its ``_EXTEND_CHUNK`` rows of chain uniforms in one call
    too.  Deterministic for fixed ``(spec, n_steps, seed)``.
    """
    if n_steps < 0 or replicas < 0:
        raise ModelError("step count and replicas must be nonnegative")
    out = np.empty(replicas, dtype=np.int64)
    done = 0
    b = 0
    while done < replicas:
        m = min(_POSITION_BATCH, replicas - done)
        out[done:done + m] = _position_batch(spec, n_steps, m, derive_rng(seed, b))
        done += m
        b += 1
    return out


def _position_batch(spec, n_steps, lanes, rng):
    table, chunk = spec.chain, _EXTEND_CHUNK

    def fill(rows, cum, s):
        # one lockstep chain move from ``s`` per buffer row, uniforms drawn at once
        for r, u in zip(rows, rng.random((len(rows), lanes))):
            s = chain_move(cum, s, u)
            spec.omega.take(s, out=buf[r], mode="clip")
        return s

    s0 = np.searchsorted(table.cum_pi, rng.random(lanes), side="right")
    origin, lo, hi = 2 * chunk, chunk, 3 * chunk  # buffer rows of sites 0, -left, right
    buf = np.empty((4 * chunk + 1, lanes))
    buf[origin] = spec.omega[s0]
    s_lo = fill(range(origin - 1, lo - 1, -1), table.cum_fwd, s0)
    s_hi = fill(range(origin + 1, hi + 1), table.cum_rev, s0)
    idx = origin * lanes + np.arange(lanes)
    # step buffers; take's default mode would copy through a temporary, and
    # every index here lies inside its table, so "clip" never clips
    om, right, step = np.empty(lanes), np.empty(lanes, dtype=bool), np.empty_like(idx)
    move, side = np.array([-lanes, lanes]), right.view(np.uint8)  # move[side]: buffer offset
    countdown = chunk
    while True:
        # no lane can reach an edge within the segment: its uniforms come at once
        seg = min(countdown, n_steps)
        flat = buf.ravel()
        for u in rng.random((seg, lanes)):
            flat.take(idx, out=om, mode="clip")
            np.less(u, om, out=right)
            move.take(side, out=step, mode="clip")
            idx += step
        n_steps -= seg
        if not n_steps:
            return idx // lanes - origin
        if lo < chunk or hi + chunk >= len(buf):  # a side is short of head-room
            shift = hi - lo + 1
            new = np.empty((len(buf) + 2 * shift, lanes))
            new[lo + shift:hi + shift + 1] = buf[lo:hi + 1]
            buf, lo, hi, origin = new, lo + shift, hi + shift, origin + shift
            idx += shift * lanes
        if idx.min() // lanes == lo:
            s_lo = fill(range(lo - 1, lo - chunk - 1, -1), table.cum_fwd, s_lo)
            lo -= chunk
        if idx.max() // lanes == hi:
            s_hi = fill(range(hi + 1, hi + chunk + 1), table.cum_rev, s_hi)
            hi += chunk
        countdown = min(idx.min() // lanes - lo, hi - idx.max() // lanes)
