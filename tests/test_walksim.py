import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import chains
from rwre import envmodel, walksim
from rwre._rng import derive_rng
from rwre.errors import ModelError, NumericalError


def test_environment_deterministic_under_seed():
    spec = chains.chain_mk_k2()
    a = walksim.sample_environment(spec, 50, 50, derive_rng(9, 0))
    b = walksim.sample_environment(spec, 50, 50, derive_rng(9, 0))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.omega, b.omega)


S4 = envmodel.EnvironmentSpec(
    states=("a", "b", "c", "d"),
    H=np.array([[0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1],
                [0.3, 0.0, 0.4, 0.3], [0.25, 0.25, 0.25, 0.25]]),
    omega=np.array([0.3, 0.55, 0.7, 0.45]),
    epsilon=0.05,
)

# sha256 prefix of the state digits of sample_environment(spec, 16, 99,
# derive_rng(3, i, 0)), and the next uniform of the same stream.
ENV_GOLDEN = {
    ("k2", 0): ("38127e6cec8b9ecc", 0.10966509669474411),
    ("k2", 1): ("a4aa4a2cf1db75a4", 0.14321440111556194),
    ("k2", 7): ("4dc803bb9971bb7a", 0.7194680410984262),
    ("s4", 0): ("6a4f2e1f43a8e7c0", 0.10966509669474411),
    ("s4", 1): ("dccda163791eec13", 0.14321440111556194),
    ("s4", 7): ("e251f3c16ca6ae86", 0.7194680410984262),
}
# the i = 0 window after extend_left() and extend_right(5)
EXTEND_GOLDEN = {
    "k2": ("a247c79dcfa6bd14", 0.2318721635616876),
    "s4": ("c1f41135ff48d020", 0.2318721635616876),
}


def _spec(name):
    return chains.chain_mk_k2() if name == "k2" else S4


def _digest(states) -> str:
    return hashlib.sha256("".join(map(str, states.tolist())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,i", sorted(ENV_GOLDEN))
def test_environment_golden_draws(name, i):
    rng = derive_rng(3, i, 0)
    env = walksim.sample_environment(_spec(name), 16, 99, rng)
    assert (_digest(env.states), rng.random()) == ENV_GOLDEN[name, i]
    assert np.array_equal(env.omega, _spec(name).omega[env.states])


@pytest.mark.parametrize("name", sorted(EXTEND_GOLDEN))
def test_environment_extension_golden_draws(name):
    spec = _spec(name)
    rng = derive_rng(3, 0, 0)
    env = walksim.sample_environment(spec, 16, 99, rng)
    env.extend_left()
    env.extend_right(5)
    assert (env.left, env.right) == (80, 104)
    assert (_digest(env.states), rng.random()) == EXTEND_GOLDEN[name]
    assert np.array_equal(env.omega, spec.omega[env.states])


def _sha(values) -> str:
    text = ",".join(map(repr, np.asarray(values).tolist()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# A left-drifting 4-state chain: its walks run a few hundred sites below the
# origin, so the position sampler's window grows on the left several times.
DEEP = envmodel.EnvironmentSpec(
    states=("a", "b", "c", "d"),
    H=np.array([[0.6, 0.2, 0.1, 0.1], [0.25, 0.5, 0.15, 0.1],
                [0.1, 0.2, 0.4, 0.3], [0.3, 0.1, 0.2, 0.4]]),
    omega=np.array([0.35, 0.55, 0.3, 0.45]),
    epsilon=0.05,
)


def _lane_bytes(n_steps):
    """A one-byte-state lane's full-height window and a fill's uniforms."""
    return 2 * (n_steps + walksim._EXTEND_CHUNK) + 1 + 8 * walksim._EXTEND_CHUNK


def test_position_sample_golden_across_batches(monkeypatch):
    # a budget of 300 lanes: 600 replicas run as two batches of 300; the
    # walks drift right, so every batch fills its window on the right
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 300 * _lane_bytes(3000))
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 3000, 600, seed=5)
    assert (x.min(), x.max()) == (1582, 2308)
    assert _sha(x) == "acfa63541640dfd1"


def test_position_sample_golden_deep_left():
    x = walksim.annealed_position_sample(DEEP, 1500, 40, seed=3)
    assert (x.min(), x.max()) == (-346, -60)
    assert _sha(x) == "08cd2f76d6d2fe6f"


def test_position_sample_zero_steps():
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 0, 30, seed=2)
    assert x.dtype == np.int64 and x.tolist() == [0] * 30


def test_position_sample_golden_short_of_first_countdown(monkeypatch):
    # 37 steps end before the first countdown of 64 runs out; no budget, so
    # 70 replicas run as batches of 23, 23 and 24 lanes
    monkeypatch.setattr(walksim, "_POSITION_BATCH", 32)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 0)
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 37, 70, seed=9)
    assert (x.min(), x.max()) == (9, 37)
    assert _sha(x) == "8a0439102b677d2a"


@pytest.mark.parametrize("spec, n_steps, replicas, seed, batch, lo_hi, digest", [
    (chains.chain_mk_k2(), 777, 90, 11, 512, (41, 249), "44afbee90de9e6a9"),
    (DEEP, 1001, 45, 4, 20, (-227, -17), "19f4ef20f59be345"),  # three batches of 15
])
def test_position_sample_golden_off_window_multiple(monkeypatch, spec, n_steps, replicas,
                                                    seed, batch, lo_hi, digest):
    # step counts that are no multiple of the 64-site window extension; no
    # budget, so the batches are _POSITION_BATCH wide
    monkeypatch.setattr(walksim, "_POSITION_BATCH", batch)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 0)
    x = walksim.annealed_position_sample(spec, n_steps, replicas, seed=seed)
    assert (x.min(), x.max()) == lo_hi
    assert _sha(x) == digest


def _wide(k):
    # k states: rows 0.5 * Dirichlet(1) + 0.5 / k, omega uniform on [0.4, 0.8]
    rng = np.random.default_rng(k)
    H = 0.5 * rng.dirichlet(np.ones(k), size=k) + 0.5 / k
    return envmodel.EnvironmentSpec(states=tuple(f"s{i}" for i in range(k)), H=H,
                                    omega=rng.uniform(0.4, 0.8, k), epsilon=0.05)


@pytest.mark.parametrize("k, lo_hi, digest", [
    (256, (26, 116), "7c19b88ba3b8d683"),  # the last chain whose states fit in one byte
    (257, (16, 110), "dfd2eb4533ccd3c8"),
])
def test_position_sample_golden_wide_chain(k, lo_hi, digest):
    x = walksim.annealed_position_sample(_wide(k), 400, 40, seed=3)
    assert (x.min(), x.max()) == lo_hi
    assert _sha(x) == digest


def test_position_sample_on_one_state_is_a_binomial_walk():
    # one state: every step goes right with probability omega, so a position
    # is 2 Bin(n, omega) - n
    spec = chains.single_state(0.5)
    n, replicas, w = 300, 2000, float(spec.omega[0])
    x = walksim.annealed_position_sample(spec, n, replicas, seed=8)
    assert np.all((x + n) % 2 == 0) and np.all(np.abs(x) <= n)
    se = np.sqrt(4 * n * w * (1 - w) / replicas)
    assert abs(x.mean() - n * (2 * w - 1)) < 4 * se


def test_position_batches_narrow_past_the_address_cap(monkeypatch):
    # at the default cap 512 full-height lanes still fit at n = 10**5; a cap
    # of 100 lanes runs 300 replicas as three batches of 100, which draw what
    # a floor of 100 lanes draws, and a cap below one lane runs lanes alone
    assert 512 * _lane_bytes(10**5) <= walksim._ADDRESS_BYTES
    spec, widths, batch = chains.chain_mk_k2(), [], walksim._position_batch

    def spy(spec, n_steps, buf, rng):
        widths.append(buf.shape[1])
        return batch(spec, n_steps, buf, rng)

    monkeypatch.setattr(walksim, "_position_batch", spy)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 0)
    monkeypatch.setattr(walksim, "_ADDRESS_BYTES", 100 * _lane_bytes(500))
    x = walksim.annealed_position_sample(spec, 500, 300, seed=6)
    monkeypatch.setattr(walksim, "_ADDRESS_BYTES", 0)
    walksim.annealed_position_sample(spec, 500, 3, seed=6)
    assert widths == [100] * 3 + [1] * 3
    monkeypatch.setattr(walksim, "_ADDRESS_BYTES", 1 << 40)
    monkeypatch.setattr(walksim, "_POSITION_BATCH", 100)
    assert np.array_equal(x, walksim.annealed_position_sample(spec, 500, 300, seed=6))


def test_position_window_costs_one_byte_per_site_and_lane(monkeypatch):
    # 512 lanes walk about 2,400 sites right in 3000 steps on a full-height
    # window of one-byte states: that buffer, one block of 64 uniforms a lane
    # and the step's and a chain move's lane vectors (under 96 bytes a lane)
    # bound the peak; a growth copy, a second live block of uniforms (512
    # bytes a lane) or 8-byte states would not fit.  Run as two 512-lane
    # batches, 1024 replicas fit it too: a batch's window kept alive into
    # the next batch would not
    spec = chains.nonarith_k2()
    walksim.annealed_position_sample(spec, 10, 8, seed=5)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 0)  # batches of _POSITION_BATCH lanes
    for replicas in (512, 1024):
        tracemalloc.start()
        try:
            walksim.annealed_position_sample(spec, 3000, replicas, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * (_lane_bytes(3000) + 96), replicas


def _positions_alone(spec, n_steps, replicas, seed):
    """Scalar reference for annealed_position_sample: replica ``i`` samples
    its window over every site it can reach from ``derive_rng(seed, i)``,
    then walks it with one uniform per step of the same stream."""
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        rng = derive_rng(seed, i)
        omega = walksim.sample_environment(spec, n_steps, n_steps, rng).omega.tolist()
        pos = n_steps  # the origin's index
        for u in rng.random(n_steps).tolist():
            pos += 1 if u < omega[pos] else -1
        out[i] = pos - n_steps
    return out


@pytest.mark.parametrize("spec", [chains.nonarith_k2(), DEEP, chains.chain_mk_k2()],
                         ids=["nonarith_k2", "deep", "chain_mk_k2"])
def test_position_sample_matches_scalar_reference_in_law(monkeypatch, spec):
    # 2000 replicas of 500 steps: at the default budget one batch of 2000
    # lanes; with none, four batches of 500 (DEEP's windows fill on the left,
    # about 150 sites down)
    ref = _positions_alone(spec, 500, 2000, seed=41)
    full = walksim.annealed_position_sample(spec, 500, 2000, seed=42)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 0)
    several = walksim.annealed_position_sample(spec, 500, 2000, seed=43)
    for x in (full, several):
        assert stats.ks_2samp(ref, x).pvalue > 0.01


@pytest.mark.parametrize("rho, sign", [(1e-15, 1), (1e15, -1)])
@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 640, 1001])
def test_position_sample_reaches_the_full_height_edge(rho, sign, n_steps):
    # omega within 1e-15 of 1 or of 0: every lane walks straight to +n_steps
    # or -n_steps, so one side of its full-height window fills to within a
    # fill of the buffer's end, and no fill overruns it
    spec = chains.single_state(rho, epsilon=1e-16)
    x = walksim.annealed_position_sample(spec, n_steps, 40, seed=1)
    assert x.tolist() == [sign * n_steps] * 40


def test_blocks_sample_golden():
    h = walksim.annealed_hitting_sample(chains.nonarith_k2(), 2000, 300, seed=4)
    assert _sha(h.values) == "6c821924e6b21c7c"


# sha256 prefixes of forced_crossings(spec, n, replicas, derive_rng(seed, 0))
# (counts, totals, states concatenated) and of annealed_hitting_sample(spec,
# n, replicas, seed).values: three_state takes the brood draw at all but one
# site and moves its chain on two cumulative columns; nonarith_sub1 takes
# numpy's negative-binomial draw at all but a few
CROSSINGS_GOLDEN = {
    ("three_state", 400, 500, 12): ("f7517671a41ed7f4", "ce7f611b80482b09"),
    ("nonarith_sub1", 200, 300, 13): ("70d7c72917b2388d", "108933ff2bc9357c"),
}


@pytest.mark.parametrize("name, n, replicas, seed", list(CROSSINGS_GOLDEN))
def test_forced_crossings_and_hitting_sample_golden(name, n, replicas, seed):
    spec = getattr(chains, name)()
    crossings = walksim.forced_crossings(spec, n, replicas, derive_rng(seed, 0))
    hitting = walksim.annealed_hitting_sample(spec, n, replicas, seed)
    digests = _sha(np.concatenate(crossings)), _sha(hitting.values)
    assert digests == CROSSINGS_GOLDEN[name, n, replicas, seed]


def _nbinom_chi2_pvalue(draws, size, p, bins=40):
    """Chi-square p-value of ``draws`` against NB(size, p): the cells lie
    between quantiles of the law, the tails pooled into the end cells."""
    law = stats.nbinom(size, p)
    edges = np.unique(law.ppf(np.linspace(0, 1, bins + 1)[1:-1]))  # cell j: (e[j-1], e[j]]
    expected = np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]])) * draws.size
    observed = np.bincount(np.searchsorted(edges, draws), minlength=edges.size + 1)
    return stats.chisquare(observed, expected).pvalue


# right-step probabilities: a strongly left-drifting site, nonarith-k2's trap
# and drift states, and a near-one site
LEFT_MOVE_P = [0.026, 0.0310, 20 / 23, 0.975]
# per-case level of the 41 chi-square tests below: about 0.4% family-wise;
# a wrong law at 1e5 draws gives p-values far below it
LEFT_MOVE_ALPHA = 1e-4


def _left_moves_checked(rng, size, states, omega, max_odds, moves=0):
    """``_left_moves`` on lanes in ``states`` of the per-state table
    ``omega``, asserting which draw ran: a call with at most
    ``_BROOD_FACTOR`` broods per lane takes one uniform per brood from
    ``rng``, any other one numpy negative-binomial call, size 0 drawn as 1;
    the ``moves`` uniforms it returns are the stream's next ones."""
    twin = copy.deepcopy(rng)
    draws, u = walksim._left_moves(rng, size, states, np.arange(size.size), omega,
                                   np.log1p(-omega), max_odds, moves)
    if size.sum() <= walksim._BROOD_FACTOR * size.size:
        twin.random(int(size.sum()))
    else:
        twin.negative_binomial(np.maximum(size, 1), omega[states])
    assert u.shape == (moves,) and np.array_equal(u, twin.random(moves))
    assert twin.bit_generator.state == rng.bit_generator.state
    return draws


# (size, extra broods on the last lane): sizes 1, 2 and 4 take the brood
# draw, 4 with one brood more (one above the cut-over) and the rest numpy's
@pytest.mark.parametrize("size, extra", [
    pytest.param(s, e, id=f"{s}+{e}" if e else str(s))
    for s, e in [(1, 0), (2, 0), (4, 0), (4, 1), (5, 0), (40, 0), (10**4, 0)]
])
def test_left_moves_follow_negative_binomial(size, extra):
    rng = derive_rng(22, size, extra)
    for p in LEFT_MOVE_P:
        sizes = np.full(10**5, size)
        sizes[-1] += extra
        draws = _left_moves_checked(rng, sizes, np.zeros(10**5, dtype=np.int64),
                                    np.array([p]), 1 / p)[:-1]
        assert _nbinom_chi2_pvalue(draws, size, p) > LEFT_MOVE_ALPHA, (size, p)


def test_left_moves_mixed_lanes_follow_their_own_law():
    # small and large sizes with different p interleaved in one call: each
    # lane's count must follow its own NB(size, p), in lane order; the
    # second class set has 4 broods a lane, the cut-over, and then one more
    heavy = [(1, 0.0310), (10**4, 0.975), (2, 20 / 23), (40, 0.026), (5, 0.975)]
    cut = [(1, 0.0310), (2, 20 / 23), (4, 0.975), (9, 0.026)]
    for key, (cases, extra) in enumerate([(heavy, 0), (cut, 0), (cut, 1)]):
        size = np.tile([s for s, _ in cases], 10**5)
        states = np.tile(np.arange(len(cases)), 10**5)  # lane k of a tile in state k
        omega = np.array([q for _, q in cases])
        size[-1] += extra
        draws = _left_moves_checked(derive_rng(22, 0, key), size, states, omega, 1 / 0.026,
                                    moves=size.size)
        draws = draws[:-len(cases)]  # the last tile holds the extra brood
        for k, (s, q) in enumerate(cases):
            pvalue = _nbinom_chi2_pvalue(draws[k::len(cases)], s, q)
            assert pvalue > LEFT_MOVE_ALPHA, (s, q, extra)


@pytest.mark.parametrize("size", [[], [0], [0, 3, 0, 0, 2, 0], [0, 100, 0]])
def test_left_moves_of_size_zero_are_zero(size):
    # brood draws, where a size-0 lane (lane 0 and the last included) has no
    # brood to count, and a numpy draw ([0, 100, 0]: 33 broods a lane), which
    # refuses size 0 itself
    size = np.array(size, dtype=np.int64)
    draws = _left_moves_checked(derive_rng(23, size.size), size, np.zeros_like(size),
                                np.array([0.3]), 3.0, moves=size.size)
    assert draws.shape == size.shape and draws.dtype == np.int64
    assert np.all(draws[size == 0] == 0) and np.all(draws[size > 0] >= 0)


def test_left_moves_total_beyond_int64_does_not_wrap():
    # 16 lanes of 2**59 broods sum to 2**63, which wraps to a negative int64
    # total; the choice of draw must not read it as a small call
    size = np.full(16, 2**59, dtype=np.int64)
    omega = np.array([0.5])
    draws = walksim._left_moves(derive_rng(24, 0), size, np.zeros_like(size), np.arange(16),
                                omega, np.log1p(-omega), 1.0)[0]
    assert np.all(draws > 2**58)


@pytest.mark.parametrize("n", [5, 50])
def test_blocks_count_explosion_is_numerical_error(n):
    # Sticky chain with a strongly left-drifting state: the left-move counts
    # grow past what numpy's negative-binomial sampler accepts.
    spec = envmodel.EnvironmentSpec(
        states=("a", "b"), H=np.array([[0.999, 0.001], [0.001, 0.999]]),
        omega=np.array([0.05, 0.97]), epsilon=0.01,
    )
    with pytest.raises(NumericalError, match="explosion"):
        walksim.annealed_hitting_sample(spec, n, 200, seed=7)


def test_position_sampler_runs_on_state_of_small_stationary_mass():
    # pi(1) is about 2e-6, so the reversed rows' sums miss 1 by ~1e-11.
    spec = envmodel.EnvironmentSpec(
        states=("a", "b"), H=np.array([[1 - 1e-6, 1e-6], [0.5, 0.5]]),
        omega=np.array([0.6, 0.4]), epsilon=0.05,
    )
    x = walksim.annealed_position_sample(spec, 400, 50, seed=2)
    assert np.all((x + 400) % 2 == 0)
    env = walksim.sample_environment(spec, 5, 200, derive_rng(2, 0))
    assert env.states.shape == (206,)


def test_chain_table_is_cached_and_read_only():
    spec = chains.chain_mk_k2()
    table = spec.chain
    assert spec.chain is table
    assert np.array_equal(table.pi, envmodel.stationary_distribution(spec.H))
    cum_rev = np.cumsum(envmodel.reverse_kernel(spec), axis=1)
    assert np.array_equal(table.cum_rev[:, :-1], cum_rev[:, :-1])
    assert np.all(table.cum_rev[:, -1] == 1.0)  # closed, here from 1 + 2e-16
    assert table.rev_rows == table.cum_rev.tolist()
    with pytest.raises(ValueError):
        table.cum_fwd[0, 0] = 0.0


def test_environment_single_state_constant():
    env = walksim.sample_environment(chains.single_state(0.5), 10, 10, derive_rng(0, 0))
    assert np.all(env.omega == env.omega[0])


def test_environment_state_frequencies_match_stationary():
    spec = chains.chain_mk_k2()
    pi = envmodel.stationary_distribution(spec.H)
    env = walksim.sample_environment(spec, 500_000, 500_000, derive_rng(4, 0))
    for side in (env.states[: env.left], env.states[env.left + 1:]):
        freq = np.mean(side == 0)
        se = np.sqrt(pi[0] * (1 - pi[0]) / side.size)
        # correlated samples: allow the 4-sigma rule a mixing-time factor
        assert abs(freq - pi[0]) < 8 * se


def test_run_to_hit_degenerate_always_right():
    # no model has omega = 1; the walk never leaves this window, so it never
    # extends it and the spec and stream are not read
    env = walksim.EnvPath(left=0, right=10, omega=np.ones(11), states=np.zeros(11, dtype=np.int64),
                          spec=chains.single_state(1.0), rng=derive_rng(1, 1))
    rec = walksim.run_to_hit(env, 10, derive_rng(1, 0))
    assert rec == walksim.WalkRecord(n_target=10, steps=10, censored=False, left_moves=0,
                                     left_moves_above=0)


@pytest.mark.parametrize("make,n", [(chains.chain_mk_k1, 30),
                                    (chains.chain_mk_k2, 60),
                                    (chains.nonarith_sub1, 25),
                                    (chains.iid_k1, 30),
                                    (chains.iid_k2, 60),
                                    (chains.nonarith_k2, 60)])
def test_bookkeeping_identity_exact_on_every_record(make, n):
    # the lockstep walker derives a lane's left moves from its displacement,
    # the scalar finisher counts them: both give T = n + 2 * (left moves)
    for seed in (33, 34, 35):
        for rec in walksim.reference_walks(make(), n, 120, seed=seed):
            assert not rec.censored and 2 * rec.left_moves == rec.steps - n
            assert 0 <= rec.left_moves_above <= rec.left_moves


def test_budget_exhaustion_reports_partial_record():
    spec = chains.chain_mk_k1()
    env = walksim.sample_environment(spec, 16, 999, derive_rng(7, 0))
    rec = walksim.run_to_hit(env, 1000, derive_rng(7, 1), step_cap=50)
    assert rec.censored
    assert rec.steps == 50
    assert not rec.identity_holds


def test_window_auto_extension_on_model_environment():
    spec = chains.chain_mk_k1()
    env = walksim.sample_environment(spec, 1, 39, derive_rng(21, 0))
    rec = walksim.run_to_hit(env, 40, derive_rng(21, 1))
    assert rec.identity_holds
    assert env.left >= 1


def test_fast_engine_matches_reference_in_distribution():
    # nonarith-k2's trap state: most left-move counts are zero, a few large
    for spec in (chains.chain_mk_k2(), chains.iid_k2(), chains.nonarith_k2()):
        # a reference walk stops on the step that hits n: steps is the hitting time
        ref = [rec.steps for rec in walksim.reference_walks(spec, 100, 2500, seed=7)]
        fast = walksim.annealed_hitting_sample(spec, 100, 2500, seed=8)
        res = stats.ks_2samp(ref, fast.values)
        assert res.pvalue > 0.01, res


def test_annealed_sample_empty():
    out = walksim.annealed_hitting_sample(chains.iid_k2(), 10, 0, seed=0)
    assert out.values.size == 0


@pytest.mark.parametrize("n_steps, replicas", [
    (10, -1),
    (-5, 3),   # a negative step count must not count down forever
])
def test_position_sample_rejects_bad_arguments(n_steps, replicas):
    with pytest.raises(ModelError):
        walksim.annealed_position_sample(chains.iid_k2(), n_steps, replicas, 0)


def test_position_sample_empty():
    assert walksim.annealed_position_sample(chains.iid_k2(), 10, 0, seed=0).shape == (0,)


def test_annealed_mean_hitting_time_iid_k2():
    out = walksim.annealed_hitting_sample(chains.iid_k2(), 2000, 300, seed=5)
    ratios = out.values / 2000.0
    se = ratios.std(ddof=1) / np.sqrt(ratios.size)
    assert abs(ratios.mean() - 9.0) < 4 * se


def test_annealed_blocks_deterministic():
    a = walksim.annealed_hitting_sample(chains.chain_mk_k2(), 50, 64, seed=11)
    b = walksim.annealed_hitting_sample(chains.chain_mk_k2(), 50, 64, seed=11)
    assert np.array_equal(a.values, b.values)


def test_position_sampler_deterministic_and_bounded():
    spec = chains.chain_mk_k2()
    a = walksim.annealed_position_sample(spec, 500, 64, seed=13)
    b = walksim.annealed_position_sample(spec, 500, 64, seed=13)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 500)
    assert np.all((a + 500) % 2 == 0)  # parity of a +/-1 step walk


def _walks_alone(spec, n, replicas, seed, step_cap=walksim.DEFAULT_STEP_CAP):
    """The reference walk one replica at a time: a window over [-64, n - 1]
    from ``derive_rng(seed, i, 0)``, then ``run_to_hit`` on
    ``derive_rng(seed, i, 1)``."""
    return [walksim.run_to_hit(walksim.sample_environment(spec, 64, n - 1, derive_rng(seed, i, 0)),
                               n, derive_rng(seed, i, 1), step_cap)
            for i in range(replicas)]


def _assert_same_law(got, want, alpha=0.01):
    # two-sample KS of the steps (a censored walk's read the cap) and of the
    # left moves from sites >= 1, which the branching check compares
    for field in ("steps", "left_moves_above"):
        x, y = ([getattr(r, field) for r in recs] for recs in (got, want))
        assert stats.ks_2samp(x, y).pvalue > alpha, field


@pytest.mark.parametrize("floor", [0, walksim._FINISH_LANES, 10**6])
@pytest.mark.parametrize("name,n,replicas,step_cap,deepest,censored", [
    ("chain_mk_k2", 60, 80, walksim.DEFAULT_STEP_CAP, -12, 0),
    ("nonarith_sub1", 25, 60, walksim.DEFAULT_STEP_CAP, -65, 0),  # one left extension
    ("chain_mk_k1", 120, 70, 400, -24, 70),  # every walk censored
    ("deep", 5, 40, 3000, -493, 29),  # extensions and censoring hundreds of sites down
])
def test_reference_walks_match_walks_alone(monkeypatch, floor, name, n, replicas, step_cap,
                                           deepest, censored, seed=33):
    # floor 0 is pure lockstep, 10**6 the scalar finisher from the first
    # step; the default mixes both.  The walks alone at this seed reach site
    # `deepest` (their windows cover it to within one growth) and `censored`
    # of them stop at the cap; the lockstep walks follow the law of an
    # independent sample of them (36 comparisons, hence the small alpha)
    spec = DEEP if name == "deep" else getattr(chains, name)()
    envs = [walksim.sample_environment(spec, 64, n - 1, derive_rng(seed, i, 0))
            for i in range(replicas)]
    alone = [walksim.run_to_hit(env, n, derive_rng(seed, i, 1), step_cap)
             for i, env in enumerate(envs)]
    assert -deepest <= max(env.left for env in envs) < -deepest + walksim._EXTEND_CHUNK
    assert sum(r.censored for r in alone) == censored
    monkeypatch.setattr(walksim, "_FINISH_LANES", floor)
    got = list(walksim.reference_walks(spec, n, replicas, seed=seed, step_cap=step_cap))
    assert got == list(walksim.reference_walks(spec, n, replicas, seed=seed, step_cap=step_cap))
    assert all(r.steps == step_cap for r in got if r.censored)
    assert all(r.identity_holds for r in got if not r.censored)
    _assert_same_law(got, _walks_alone(spec, n, replicas, seed=seed + 1, step_cap=step_cap),
                     alpha=1e-3)


@pytest.mark.parametrize("floor", [0, walksim._FINISH_LANES, 10**6])
@pytest.mark.parametrize("name,n,replicas,step_cap,deepest,censored", [
    ("chain_mk_k2", 60, 80, walksim.DEFAULT_STEP_CAP, -11, 0),
    ("nonarith_sub1", 25, 60, walksim.DEFAULT_STEP_CAP, -115, 0),
    ("chain_mk_k1", 120, 70, 400, -37, 70),
    ("deep", 5, 40, 3000, -586, 28),
])
def test_reference_walks_match_walks_alone_seed_past_2_64(monkeypatch, floor, name, n, replicas,
                                                          step_cap, deepest, censored):
    # a seed of three 32-bit words
    test_reference_walks_match_walks_alone(monkeypatch, floor, name, n, replicas, step_cap,
                                           deepest, censored, seed=2**64 + 33)


# n = 5 puts the origin's state and its left moves, which a walk to site 5
# makes many of, in the bulk of both laws
@pytest.mark.parametrize("name, n, step_cap", [
    ("chain_mk_k2", 5, walksim.DEFAULT_STEP_CAP),
    ("chain_mk_k2", 60, walksim.DEFAULT_STEP_CAP),
    ("chain_mk_k1", 5, 20_000),  # tail index 1: the hitting time has no mean
    ("chain_mk_k1", 30, 20_000),
    ("three_state", 5, walksim.DEFAULT_STEP_CAP),
    ("three_state", 40, walksim.DEFAULT_STEP_CAP),
])
def test_reference_walks_match_walks_alone_in_law(name, n, step_cap):
    spec = getattr(chains, name)()
    got = list(walksim.reference_walks(spec, n, 2000, seed=33, step_cap=step_cap))
    assert all(r.identity_holds for r in got if not r.censored)
    _assert_same_law(got, _walks_alone(spec, n, 2000, seed=34, step_cap=step_cap))


def _transition_pvalue(rows, P):
    """Chi-square p-value of the moves from each row of ``rows`` to the next
    against the kernel ``P`` (cells of zero probability left out)."""
    k = P.shape[0]
    seen = np.bincount((rows[:-1] * k + rows[1:]).ravel(), minlength=k * k).reshape(k, k)
    expected = seen.sum(axis=1, keepdims=True) * P
    cells = expected > 0
    chi2 = (((seen - expected)[cells]) ** 2 / expected[cells]).sum()
    return stats.chi2.sf(chi2, cells.sum() - k)


def test_reference_window_follows_the_chain(monkeypatch):
    # the window a batch starts from: the origin row stationary, the rows up
    # to site n - 1 moved by the reversed kernel, the 64 below by the forward
    # one, the sink above; three_state's reversed kernel is far from H
    spec, bufs, batch = chains.three_state(), [], walksim._hitting_batch

    def spy(spec, n, buf, step_cap, rng):
        bufs.append(buf)  # filled in place; the walk itself runs on copies
        return batch(spec, n, buf, step_cap, rng)

    monkeypatch.setattr(walksim, "_hitting_batch", spy)
    list(walksim.reference_walks(spec, 40, 2000, seed=5))
    (buf,) = bufs
    origin, goal = 64, 64 + 40
    assert buf.dtype == np.uint8 and np.all(buf[goal:] == spec.n_states)
    pi = spec.chain.pi
    assert stats.chisquare(np.bincount(buf[origin], minlength=3), 2000 * pi).pvalue > 1e-3
    assert _transition_pvalue(buf[origin:goal], spec.chain.rev) > 1e-3
    assert _transition_pvalue(buf[origin::-1], spec.H) > 1e-3


def test_reference_walks_across_batches_growth_and_hand_off(monkeypatch):
    # windows grown 8 sites at a time and a budget of 100 lanes: 400 walks
    # on nonarith_sub1 run as four batches, each of which grows its window
    # downward in lockstep, censors some walks at the cap and hands its last
    # live lanes to run_to_hit mid-walk
    spec, n, replicas, cap = chains.nonarith_sub1(), 25, 400, 5000
    monkeypatch.setattr(walksim, "_EXTEND_CHUNK", 8)
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 100 * (n + 2 * 8 + 8 * 8))
    widths, down_fills, resumed = [], [], []
    batch, fill, scalar = walksim._hitting_batch, walksim._fill, walksim.run_to_hit

    def batch_spy(spec, n, buf, step_cap, rng):
        widths.append(buf.shape[1])
        return batch(spec, n, buf, step_cap, rng)

    def fill_spy(buf, rows, cum, rng):
        down_fills.append(rows.step < 0)
        fill(buf, rows, cum, rng)

    def scalar_spy(env, n, rng, step_cap, resume):
        resumed.append(resume[1])
        return scalar(env, n, rng, step_cap, resume)

    for name, spy in [("_hitting_batch", batch_spy), ("_fill", fill_spy),
                      ("run_to_hit", scalar_spy)]:
        monkeypatch.setattr(walksim, name, spy)
    got = list(walksim.reference_walks(spec, n, replicas, seed=33, step_cap=cap))
    assert widths == [100] * 4
    assert sum(down_fills) > 4  # one at each batch's start, the rest growths
    assert 0 < len(resumed) <= 4 * walksim._FINISH_LANES and min(resumed) > 0
    assert got == list(walksim.reference_walks(spec, n, replicas, seed=33, step_cap=cap))
    assert any(r.censored for r in got) and all(r.steps == cap for r in got if r.censored)
    assert all(r.identity_holds for r in got if not r.censored)
    monkeypatch.undo()
    _assert_same_law(got, _walks_alone(spec, n, replicas, seed=34, step_cap=cap))


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
def test_lockstep_hitting_time_read_off_the_sink(monkeypatch, chunk):
    # omega within 1e-15 of 1: 100 lockstep walks go straight right and hit
    # n = 70 on step 70.  The window grows by chunk rows and its sink is chunk
    # rows high, so segments run 1 to 256 steps and the hit is read off the
    # sink at heights up to 186; a cap at 70 lets every walk finish on the
    # cap's step, one less censors all
    monkeypatch.setattr(walksim, "_EXTEND_CHUNK", chunk)
    spec = chains.single_state(1e-15, epsilon=1e-16)
    for step_cap in (walksim.DEFAULT_STEP_CAP, 70, 69):
        got = list(walksim.reference_walks(spec, 70, 100, seed=2, step_cap=step_cap))
        assert got == [walksim.WalkRecord(70, min(step_cap, 70), step_cap < 70, 0, 0)] * 100


@pytest.mark.parametrize("n,replicas,message", [
    (10, -1, "replicas must be nonnegative"),
    (0, 3, "target site must be >= 1, got 0"),
    (-4, 0, "target site must be >= 1, got -4"),
])
def test_reference_walks_rejects_bad_counts(n, replicas, message):
    with pytest.raises(ModelError, match=message):
        list(walksim.reference_walks(chains.chain_mk_k2(), n, replicas, seed=1))
    with pytest.raises(ModelError, match=message):  # the sampler checks them alike
        walksim.annealed_hitting_sample(chains.chain_mk_k2(), n, replicas, seed=1)


def test_step_cap_zero_is_valid_and_a_negative_cap_is_refused():
    # a censored record reads steps == step_cap, so a cap of 0 censors every
    # walk at 0 steps and a negative cap cannot be honoured
    spec, zero = chains.chain_mk_k2(), walksim.WalkRecord(10, 0, True, 0, 0)
    env = walksim.sample_environment(spec, 64, 9, derive_rng(3, 0))
    assert walksim.run_to_hit(env, 10, derive_rng(3, 1), step_cap=0) == zero
    assert list(walksim.reference_walks(spec, 10, 100, seed=3, step_cap=0)) == [zero] * 100
    assert walksim.annealed_hitting_sample(spec, 10, 100, seed=3, step_cap=0).censored.all()
    refused = "step cap must be nonnegative, got -2"
    with pytest.raises(ModelError, match=refused):
        walksim.run_to_hit(env, 10, derive_rng(3, 1), step_cap=-2)
    with pytest.raises(ModelError, match=refused):
        list(walksim.reference_walks(spec, 10, 3, seed=1, step_cap=-2))
    with pytest.raises(ModelError, match=refused):
        walksim.annealed_hitting_sample(spec, 10, 3, seed=1, step_cap=-2)


def test_censoring_just_below_window_keeps_left_moves():
    # the first step leaves the one-site window; the cap stops the walk there
    spec = chains.single_state(9.0)
    env = walksim.sample_environment(spec, 0, 9, derive_rng(4, 0))
    rec = walksim.run_to_hit(env, 10, derive_rng(4, 1), step_cap=1)
    assert rec.censored and (rec.steps, rec.left_moves, rec.left_moves_above) == (1, 1, 0)
    assert env.left == 64
