import hashlib

import numpy as np
import pytest
from scipy import stats

import chains
from rwre import envmodel, walksim
from rwre._rng import derive_rng
from rwre.errors import ModelError, NumericalError, WindowError


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


def test_position_sample_golden_across_batches():
    # 600 replicas: one full 512-lane batch and one of 88; the walks drift
    # right, so every batch extends its window on the right.
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 3000, 600, seed=5)
    assert (x.min(), x.max()) == (1598, 2334)
    assert _sha(x) == "436f1b163878080b"


def test_position_sample_golden_deep_left():
    x = walksim.annealed_position_sample(DEEP, 1500, 40, seed=3)
    assert (x.min(), x.max()) == (-346, -60)
    assert _sha(x) == "08cd2f76d6d2fe6f"


def test_position_sample_zero_steps():
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 0, 30, seed=2)
    assert x.dtype == np.int64 and x.tolist() == [0] * 30


def test_position_sample_golden_short_of_first_countdown(monkeypatch):
    # 37 steps end before the first countdown of 64 runs out
    monkeypatch.setattr(walksim, "_POSITION_BATCH", 32)
    x = walksim.annealed_position_sample(chains.nonarith_k2(), 37, 70, seed=9)
    assert (x.min(), x.max()) == (15, 33)
    assert _sha(x) == "0de7e72209f6edc0"


@pytest.mark.parametrize("spec, n_steps, replicas, seed, batch, lo_hi, digest", [
    (chains.chain_mk_k2(), 777, 90, 11, 512, (41, 249), "44afbee90de9e6a9"),
    (DEEP, 1001, 45, 4, 20, (-215, -23), "12a426d4c57fca75"),
])
def test_position_sample_golden_off_window_multiple(monkeypatch, spec, n_steps, replicas,
                                                    seed, batch, lo_hi, digest):
    # step counts that are no multiple of the 64-site window extension
    monkeypatch.setattr(walksim, "_POSITION_BATCH", batch)
    x = walksim.annealed_position_sample(spec, n_steps, replicas, seed=seed)
    assert (x.min(), x.max()) == lo_hi
    assert _sha(x) == digest


def test_blocks_sample_golden():
    h = walksim.annealed_hitting_sample(chains.nonarith_k2(), 2000, 300, seed=4)
    assert _sha(h.values) == "57614ffa1aaf7a02"


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
    env = walksim.EnvPath(left=0, right=10, omega=np.ones(11))
    rec = walksim.run_to_hit(env, 10, derive_rng(1, 0))
    assert rec.hitting_time == 10
    assert rec.total_left_moves == 0
    assert list(rec.hit_times) == list(range(1, 11))


@pytest.mark.parametrize("make,n", [(chains.chain_mk_k1, 30),
                                    (chains.chain_mk_k2, 60),
                                    (chains.nonarith_sub1, 25)])
def test_bookkeeping_identity_exact_on_every_record(make, n):
    for rec in walksim.reference_walks(make(), n, 120, seed=33):
        assert rec.identity_holds
        assert (rec.hitting_time - n) % 2 == 0
        tau = rec.crossing_times
        assert np.all(tau >= 1)
        assert np.all(np.diff(rec.hit_times) >= 1)
        assert rec.left_moves_at(rec.deepest_site - 1) == 0


def test_budget_exhaustion_reports_partial_record():
    spec = chains.chain_mk_k1()
    env = walksim.sample_environment(spec, 16, 999, derive_rng(7, 0))
    rec = walksim.run_to_hit(env, 1000, derive_rng(7, 1), step_cap=50)
    assert rec.censored
    assert rec.steps == 50
    assert rec.reached < 1000


def test_window_error_on_fixed_environment():
    env = walksim.EnvPath(left=2, right=9, omega=np.full(12, 0.1))
    with pytest.raises(WindowError) as err:
        walksim.run_to_hit(env, 10, derive_rng(2, 0))
    assert err.value.deepest_site <= -2


def test_window_auto_extension_on_model_environment():
    spec = chains.chain_mk_k1()
    env = walksim.sample_environment(spec, 1, 39, derive_rng(21, 0))
    rec = walksim.run_to_hit(env, 40, derive_rng(21, 1))
    assert rec.identity_holds
    assert env.left >= 1


def test_fast_engine_matches_reference_in_distribution():
    for spec in (chains.chain_mk_k2(), chains.iid_k2()):
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


def _alone(spec, n, replicas, seed, step_cap=walksim.DEFAULT_STEP_CAP):
    """Replica i's walk run on its own: the definition reference_walks keeps."""
    return [walksim.run_to_hit(walksim.sample_environment(spec, 64, n - 1, derive_rng(seed, i, 0)),
                               n, derive_rng(seed, i, 1), step_cap)
            for i in range(replicas)]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("n_target", "deepest_site", "final_position", "steps", "censored"):
            assert getattr(a, field) == getattr(b, field), field
        for field in ("hit_times", "left_moves"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field


@pytest.mark.parametrize("floor", [0, walksim._FINISH_LANES, 10**6])
@pytest.mark.parametrize("name,n,replicas,step_cap,deepest,censored", [
    ("chain_mk_k2", 60, 80, walksim.DEFAULT_STEP_CAP, -12, 0),
    ("nonarith_sub1", 25, 60, walksim.DEFAULT_STEP_CAP, -65, 0),  # one left extension
    ("chain_mk_k1", 120, 70, 400, -24, 70),  # every walk censored
    ("deep", 5, 40, 3000, -493, 29),  # extensions and censoring hundreds of sites down
])
def test_reference_walks_match_walks_alone(monkeypatch, floor, name, n, replicas, step_cap,
                                           deepest, censored, seed=33):
    # floor 0 is pure lockstep, 10**6 pure scalar; the default mixes both
    monkeypatch.setattr(walksim, "_FINISH_LANES", floor)
    spec = DEEP if name == "deep" else getattr(chains, name)()
    got = list(walksim.reference_walks(spec, n, replicas, seed=seed, step_cap=step_cap))
    _assert_same_records(got, _alone(spec, n, replicas, seed=seed, step_cap=step_cap))
    assert min(r.deepest_site for r in got) == deepest
    assert sum(r.censored for r in got) == censored
    assert all(r.steps == step_cap for r in got if r.censored)


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


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_reference_walks_batching_does_not_move_draws(monkeypatch, offset):
    n = 40
    monkeypatch.setattr(walksim, "_BATCH_BYTES", 30 * (64 * (n + 64) + 8 * walksim._WALK_CHUNK))
    monkeypatch.setattr(walksim, "_FINISH_LANES", 4)
    width = walksim._batch_width(n)
    assert width == 30
    for replicas in (1, width + offset, 3 * width + offset):
        got = list(walksim.reference_walks(chains.chain_mk_k2(), n, replicas, seed=8))
        _assert_same_records(got, _alone(chains.chain_mk_k2(), n, replicas, seed=8))


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


def test_lockstep_hands_lanes_to_scalar_loop_past_memory_budget(monkeypatch):
    # floor 0: only the budget ends the lockstep phase before the cap; DEEP
    # walks drift left, so their head-room outgrows a 20-lane budget
    n, replicas, cap = 5, 40, 3000
    monkeypatch.setattr(walksim, "_FINISH_LANES", 0)
    monkeypatch.setattr(walksim, "_BATCH_BYTES", 20 * (64 * (n + 64) + 8 * walksim._WALK_CHUNK))
    paused_at = []
    scalar = walksim.run_to_hit

    def spy(env, n, rng, step_cap, resume):
        paused_at.append(resume.t)
        return scalar(env, n, rng, step_cap, resume)

    monkeypatch.setattr(walksim, "run_to_hit", spy)
    got = list(walksim.reference_walks(DEEP, n, replicas, seed=33, step_cap=cap))
    monkeypatch.setattr(walksim, "run_to_hit", scalar)
    _assert_same_records(got, _alone(DEEP, n, replicas, seed=33, step_cap=cap))
    assert paused_at and max(paused_at) < cap


def test_batched_windows_match_sample_environment():
    spec = S4
    envs = walksim._sample_windows(spec, 16, 99, [derive_rng(3, i, 0) for i in range(8)])
    for i, env in enumerate(envs):
        rng = derive_rng(3, i, 0)
        alone = walksim.sample_environment(spec, 16, 99, rng)
        assert (env.left, env.right) == (16, 99)
        assert np.array_equal(env.states, alone.states)
        assert np.array_equal(env.omega, alone.omega)
        assert env.rng.random() == rng.random()


@pytest.mark.parametrize("lanes", [1, 5])
def test_lockstep_fixed_window_raises_like_scalar(monkeypatch, lanes):
    monkeypatch.setattr(walksim, "_FINISH_LANES", 0)

    def fixed():
        return walksim.EnvPath(left=2, right=9, omega=np.full(12, 0.1))

    with pytest.raises(WindowError) as alone:
        walksim.run_to_hit(fixed(), 10, derive_rng(2, 0))
    with pytest.raises(WindowError) as batch:
        list(walksim._Lockstep([fixed() for _ in range(lanes)], 10,
                               [derive_rng(2, i) for i in range(lanes)],
                               walksim.DEFAULT_STEP_CAP).run())
    assert batch.value.deepest_site == alone.value.deepest_site == -3
    assert str(batch.value) == str(alone.value)


def test_censoring_just_below_window_keeps_left_moves():
    # the first step leaves the one-site window; the cap stops the walk there
    spec = chains.single_state(9.0)
    env = walksim.sample_environment(spec, 0, 9, derive_rng(4, 0))
    rec = walksim.run_to_hit(env, 10, derive_rng(4, 1), step_cap=1)
    assert rec.censored and rec.final_position == rec.deepest_site == -1
    assert rec.left_moves.tolist() == [0, 1] + [0] * 10
    assert env.left == 64
