"""Quenched walk simulation and hitting-time extraction.

Hitting times come two ways:

* ``reference_walks`` — the reference path and the oracle: one uniform per
  step against the site probability.  Replicas run as lanes of lockstep
  batches, every draw of a batch from one stream; the last few live lanes
  of a batch are finished one by one by the scalar loop of
  ``run_to_hit``.  A record keeps the steps taken, the censoring flag, the
  total left moves and those made from sites >= 1, which is what
  ``simulate-walk``, the per-path identity ``T = n + 2 * (left moves)``
  and the branching check read.
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

Positions come from ``annealed_position_sample``.  Both lockstep views
step through one kernel, ``_steps``, on a site-major window of chain
states in the narrowest unsigned type (one byte up to 256 states), each
row written in place by ``chain_move``; a segment's steps draw their
uniforms in one call.  The hitting-time window grows downward by copy and
drops finished lanes; the position window holds every site a lane can
reach, so it is never copied, and is filled on a countdown.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
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
_FINISH_LANES = 48  # a batch with at most this many live lanes finishes them one by one
_SCALAR_CHUNK = 8192  # walk uniforms drawn at a time by the scalar loop
_POSITION_BATCH = 512  # fewest lockstep lanes in a batch of annealed_position_sample
# Bytes of a position batch's lanes at full height, window and a fill's uniforms:
# two 1000-lane batches for 2000 replicas at n = 10**4, _POSITION_BATCH from n of
# about 2.4 * 10**4 up.  One 2000-lane batch (41 MB) ran a little faster, but past
# glibc's 32 MiB mmap threshold it took fresh pages and 8 MB more peak RSS.
_WINDOW_BYTES = 24 << 20
# Largest window a position batch reserves: past n_steps of about 2.6 * 10**5 a
# batch runs narrower than _POSITION_BATCH rather than ask for a GB per 10**6 steps.
_ADDRESS_BYTES = 256 << 20


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
    steps: int  # the hitting time of n_target unless censored
    censored: bool
    left_moves: int  # left moves made, from every site
    left_moves_above: int  # left moves made from sites >= 1

    @property
    def identity_holds(self) -> bool:
        """Exact bookkeeping identity: T = n + 2 * (total left moves).  Only the
        steps :func:`run_to_hit` takes count left moves one by one; a lockstep
        lane's are ``(t - site) // 2``, so on its lockstep steps this checks parity."""
        return not self.censored and self.steps == self.n_target + 2 * self.left_moves


def _check_walks(n, step_cap, replicas=0):
    """Refuse a target below site 1, a negative step cap or replica count."""
    if n < 1:
        raise ModelError(f"target site must be >= 1, got {n}")
    if step_cap is not None and step_cap < 0:
        raise ModelError(f"step cap must be nonnegative, got {step_cap}")
    if replicas < 0:
        raise ModelError("replicas must be nonnegative")


def run_to_hit(
    env: EnvPath,
    n: int,
    rng: np.random.Generator,
    step_cap: int = DEFAULT_STEP_CAP,
    resume: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> WalkRecord:
    """Reference quenched walk from the origin to the first visit of ``n``.

    One uniform per step, no shortcuts.  The environment window is extended
    on demand.  ``resume`` continues, on the same ``env`` and ``rng``, a
    walk paused at site ``pos`` after ``t`` steps with its left-move totals:
    ``(pos, t, left_moves, left_moves_above)``.
    """
    _check_walks(n, step_cap)
    if env.right < n - 1:
        env.extend_right(max(_EXTEND_CHUNK, n - 1 - env.right))
    # Python lists: indexing them is several times cheaper than numpy's
    omega = env.omega.tolist()
    left = env.left
    pos, t, moves, above = resume
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
                moves += 1
                above += pos > 0
                pos -= 1
                if pos + left < 0:  # extend before the next step or the cap test
                    env.extend_left()
                    omega = env.omega.tolist()
                    left = env.left
    return WalkRecord(n_target=n, steps=t, censored=pos < n, left_moves=moves,
                      left_moves_above=above)


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

    Replicas run in as few equal batches as a width of
    ``_WINDOW_BYTES // lane_bytes`` lanes allows, a lane's bytes being its
    starting window column and one segment's uniforms; batch ``b`` draws
    every window site and step from the stream ``derive_rng(seed, b, 0)``
    (:func:`_hitting_batch`).  Deterministic for fixed
    ``(spec, n, replicas, seed, step_cap)``.
    """
    _check_walks(n, step_cap, replicas)
    state = np.min_scalar_type(spec.n_states)  # a chain state or the sink
    height = n + 2 * _EXTEND_CHUNK
    lane_bytes = height * state.itemsize + 8 * _EXTEND_CHUNK
    for b, part in enumerate(_split(replicas, max(1, _WINDOW_BYTES // lane_bytes))):
        yield from _hitting_batch(spec, n, np.empty((height, len(part)), state), step_cap,
                                  derive_rng(seed, b, 0))


def _split(replicas, width):
    """The replica ranges of as few equal batches as ``width`` lanes allow."""
    batches = -(-replicas // width)
    return [range(b * replicas // batches, (b + 1) * replicas // batches) for b in range(batches)]


def _fill(buf, rows, cum, rng):
    """One lockstep chain move per buffer row of ``rows`` from the row before
    it (``rows.step`` back), in place, on ``_EXTEND_CHUNK`` rows of uniforms a call."""
    for k in range(0, len(rows), _EXTEND_CHUNK):
        block = rows[k:k + _EXTEND_CHUNK]
        for r, u in zip(block, rng.random((len(block), buf.shape[1]))):
            chain_move(cum, buf[r - rows.step], u, out=buf[r])


def _start(buf, origin, top, table, rng):
    """A window's first rows, in place: row ``origin`` from ``cum_pi``, the
    ``_EXTEND_CHUNK`` below it from ``cum_fwd`` and those up to ``top`` from ``cum_rev``."""
    buf[origin] = np.searchsorted(table.cum_pi, rng.random(buf.shape[1]), side="right")
    _fill(buf, range(origin - 1, origin - _EXTEND_CHUNK - 1, -1), table.cum_fwd, rng)
    _fill(buf, range(origin + 1, top + 1), table.cum_rev, rng)


def _steps(buf, idx, omega, rng, seg):
    """The lockstep step of both walkers: move the lanes at flat indices
    ``idx`` (``row * lanes + lane``) of the site-major window ``buf``
    ``seg`` steps in place, left where a lane's uniform is not below its
    state's ``omega``, the uniforms from one ``rng.random((seg, lanes))``
    call; yield each step's left-step mask before the lanes move."""
    m = buf.shape[1]
    flat = buf.ravel()
    # step buffers; take's default mode would copy through a temporary, and
    # every index here lies inside its table, so "clip" never clips
    st, om = np.empty(m, dtype=buf.dtype), np.empty(m)
    left, step = np.empty(m, dtype=bool), np.empty_like(idx)
    move, side = np.array([m, -m]), left.view(np.uint8)  # move[side]: buffer offset
    for u in rng.random((seg, m)):
        flat.take(idx, out=st, mode="clip")
        omega.take(st, out=om, mode="clip")
        np.greater_equal(u, om, out=left)
        yield left
        move.take(side, out=step, mode="clip")
        idx += step


def _hitting_batch(spec, n, buf, step_cap, rng) -> list[WalkRecord]:
    """Records of ``buf.shape[1]`` lockstep walks to site ``n``, in lane
    order, every draw from ``rng``.

    Row ``r`` of the site-major window ``buf`` holds every live lane's
    chain state at site ``r - origin``, from :func:`_start` up to site
    ``n - 1``.  The rows from site ``n`` up hold a sink state whose
    ``omega`` is 1: a lane that hits ``n`` walks straight up, and one
    found ``d`` rows above site ``n`` after ``t`` steps hit it at step
    ``t - d``.  A left step from a site >= 1 adds one to the lane's
    total above the origin; its left moves after ``t`` steps are derived,
    ``(t - site) // 2``, the sink's steps all being right steps.

    The steps up to the next boundary form a segment of :func:`_steps`,
    no longer than the distance from the lowest lane to the window's
    bottom row, from the highest to its top row, or to ``step_cap``.  At
    a boundary the lanes in the sink, or every lane at the cap, are
    recorded and their columns dropped, and a lane on the bottom row
    grows the window downward by ``_EXTEND_CHUNK`` rows.  Once at most
    ``_FINISH_LANES`` lanes are live, each is finished in lane order by
    :func:`run_to_hit` on its column and ``rng``.
    """
    table, chunk, omega = spec.chain, _EXTEND_CHUNK, np.append(spec.omega, 1.0)
    origin, goal = chunk, chunk + n  # buffer rows of sites 0 and n
    _start(buf, origin, goal - 1, table, rng)
    buf[goal:] = spec.n_states  # the sink, omega[-1]
    out = np.zeros((4, buf.shape[1]), np.int64)  # steps, censored and both left-move totals
    lane = np.arange(buf.shape[1])  # the live lanes
    row = np.full(lane.size, origin)
    above = np.zeros(lane.size, np.int64)
    t = 0
    while True:
        done = row >= goal if t < step_cap else np.ones(lane.size, bool)
        if done.any():
            out[:, lane[done]] = (t - np.maximum(row[done] - goal, 0), row[done] < goal,
                                  (t - row[done] + origin) // 2, above[done])
            keep = ~done
            lane, row, above, buf = lane[keep], row[keep], above[keep], buf[:, keep]
        if lane.size <= _FINISH_LANES:
            break
        if row.min() == 0:
            buf = np.concatenate([np.empty((chunk, lane.size), buf.dtype), buf])
            _fill(buf, range(chunk - 1, -1, -1), table.cum_fwd, rng)
            row += chunk
            origin += chunk
            goal += chunk
        seg = min(int(row.min()), len(buf) - 1 - int(row.max()), step_cap - t)
        m = lane.size
        # a lane at flat index first or past it is at a site >= 1
        idx, first, up = row * m + np.arange(m), (origin + 1) * m, np.empty(m, dtype=bool)
        for left in _steps(buf, idx, omega, rng, seg):
            np.greater_equal(idx, first, out=up)
            up &= left
            above += up
        t += seg
        row = idx // m
    for k, i in enumerate(lane.tolist()):
        states = buf[:goal, k].astype(np.int64)
        env = EnvPath(origin, n - 1, spec.omega[states], states, spec, rng)
        site = int(row[k]) - origin
        rec = run_to_hit(env, n, rng, step_cap, (site, t, (t - site) // 2, int(above[k])))
        out[:, i] = rec.steps, rec.censored, rec.left_moves, rec.left_moves_above
    return [WalkRecord(n, steps, bool(cens), total, high)
            for steps, cens, total, high in out.T.tolist()]


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


def _left_move_law(spec: EnvironmentSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_left_moves`' per-state tables ``omega`` and ``log1p(-omega)``
    and its bound on the odds."""
    return spec.omega, np.log1p(-spec.omega), float(spec.rho.max())


def forced_crossings(
    spec: EnvironmentSpec, sites: int, replicas: int, rng: np.random.Generator,
    law: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-move counts of ``replicas`` walks that each cross ``sites``
    sites to the right, read downward from a stationary state.

    A site's count is negative-binomial with size (count above + 1), the
    sum of that many geometric broods (:func:`_left_moves`), then the chain
    moves one site down on the uniforms that draw returns.  Returns the last
    site's counts, each replica's total and the states below the last site:
    one generation per site of the branching process with immigration.
    ``law`` is ``_left_move_law(spec)``, built here if not given.
    """
    law = law or _left_move_law(spec)
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
    _check_walks(n, step_cap, replicas)
    rng = derive_rng(seed, 0)
    law = _left_move_law(spec)
    counts, total, states = forced_crossings(spec, n, replicas, rng, law)

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
    uniforms, and no batch wider than ``_ADDRESS_BYTES // lane_bytes``
    (one lane at least); batch ``b`` draws from the stream
    ``derive_rng(seed, b)``.  A batch's lanes step in lockstep, one
    uniform each per step (:func:`_steps`), on one site-major window of
    chain states in the narrowest unsigned type that holds
    ``n_states - 1``.  The window has every row a lane can reach from the
    start, ``n_steps + _EXTEND_CHUNK`` on each side of the origin, and is
    never copied; ``np.empty`` leaves rows that are never written out of
    the resident set.  It starts ``_EXTEND_CHUNK`` sites a side
    (:func:`_start`).  After a step that leaves a lane on a window edge,
    that side is filled ``_EXTEND_CHUNK`` sites further (left before
    right) from the edge row's states, in place.  A lane moves one site
    per step, so the edges are re-measured only when a countdown, the
    distance from the nearest edge to its closest lane, runs out; the
    steps up to then form one segment, inside which no edge moves.
    Deterministic for fixed ``(spec, n_steps, replicas, seed)``.
    """
    if n_steps < 0 or replicas < 0:
        raise ModelError("step count and replicas must be nonnegative")
    state = np.min_scalar_type(spec.n_states - 1)  # a site's chain state, one byte up to 256
    height = 2 * (n_steps + _EXTEND_CHUNK) + 1  # every site a lane reaches, and a fill past it
    lane_bytes = height * state.itemsize + 8 * _EXTEND_CHUNK
    width = min(max(_POSITION_BATCH, _WINDOW_BYTES // lane_bytes),
                max(1, _ADDRESS_BYTES // lane_bytes))
    out = np.empty(replicas, dtype=np.int64)
    for b, part in enumerate(_split(replicas, width)):  # each window freed before the next
        out[part] = _position_batch(spec, n_steps, np.empty((height, len(part)), state),
                                    derive_rng(seed, b))
    return out


def _position_batch(spec, n_steps, buf, rng):
    """Positions of ``buf.shape[1]`` lockstep lanes after ``n_steps`` steps,
    their window in ``buf`` (origin in the middle row) and every draw from
    ``rng``; see :func:`annealed_position_sample`."""
    table, chunk, lanes = spec.chain, _EXTEND_CHUNK, buf.shape[1]
    origin = len(buf) // 2
    lo, hi = origin - chunk, origin + chunk  # buffer rows of sites -left and right
    _start(buf, origin, hi, table, rng)
    idx = origin * lanes + np.arange(lanes)
    countdown = chunk
    while True:
        # no lane can reach an edge within the segment: its uniforms come at once
        seg = min(countdown, n_steps)
        for _ in _steps(buf, idx, spec.omega, rng, seg):
            pass
        n_steps -= seg
        if not n_steps:
            return idx // lanes - origin
        if idx.min() // lanes == lo:
            _fill(buf, range(lo - 1, lo - chunk - 1, -1), table.cum_fwd, rng)
            lo -= chunk
        if idx.max() // lanes == hi:
            _fill(buf, range(hi + 1, hi + chunk + 1), table.cum_rev, rng)
            hi += chunk
        countdown = min(idx.min() // lanes - lo, hi - idx.max() // lanes)
