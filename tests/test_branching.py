import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import chains
from rwre import branching, envmodel
from rwre._rng import derive_rng
from rwre.errors import ModelError, NumericalError


def test_offspring_law_in_every_draw_branch():
    # Supercritical single state, omega = 0.4 (m = 1.5): 40 generations carry
    # the count c = Z[t] + 1 through all three draws of the hot loop (scalar
    # sum for c <= 16, numpy sum up to GEOMETRIC_CUTOFF, negative binomial
    # above).  Given c, Z[t+1] sums c geometric broods, with mean c*m and
    # variance c*m/omega, so each standardised residual has mean 0, variance 1.
    om = 0.4
    m = (1 - om) / om
    spec = envmodel.EnvironmentSpec(states=("hot",), H=np.array([[1.0]]),
                                    omega=np.array([om]), epsilon=0.1)
    c, nxt = [], []
    for seed in range(300):
        Z = branching.sample_branching(spec, 40, derive_rng(seed, 0)).populations
        c.append(Z[:-1] + 1)
        nxt.append(Z[1:])
    c = np.concatenate(c).astype(float)
    r = (np.concatenate(nxt) - c * m) / np.sqrt(c * m / om)
    branches = {
        "scalar": c <= 16,
        "numpy": (c > 16) & (c <= branching.GEOMETRIC_CUTOFF),
        "negative binomial": c > branching.GEOMETRIC_CUTOFF,
    }
    for name, sel in branches.items():
        x = r[sel]
        n = x.size
        assert n > 1000, name
        assert abs(x.mean()) < 4 * x.std(ddof=1) / np.sqrt(n), name
        # the sample variance is a mean of the n terms x**2, whose own
        # variance is E x**4 - 1: bound it at 4 of its standard errors
        assert abs(np.mean(x**2) - 1.0) < 4 * np.sqrt((np.mean(x**4) - 1.0) / n), name


def test_quiet_environment_stays_small():
    spec = envmodel.EnvironmentSpec(states=("q",), H=np.array([[1.0]]),
                                    omega=np.array([0.99]), epsilon=0.005)
    path = branching.sample_branching(spec, 20_000, derive_rng(3, 0))
    mean_off = (1 - 0.99) / 0.99
    assert path.populations.max() < 20
    assert abs(path.populations.mean() - mean_off / (1 - mean_off)) < 0.01


def test_extinction_times_definitions():
    assert list(branching.extinction_times(np.zeros(5, dtype=int))) == [0, 1, 2, 3, 4]
    assert list(branching.extinction_times(np.array([0, 2, 1, 0, 3, 0]))) == [0, 3, 5]


def test_chain_regenerations_full_coin_single_state():
    states = np.zeros(10, dtype=int)
    N = branching.chain_regenerations(states, 0, 1.0, derive_rng(4, 0))
    assert list(N) == list(range(10))


def test_chain_path_chunks_match_single_call():
    # one uniform past a chunk boundary, against one rng.random(length - 1) call
    spec = chains.chain_mk_k2()
    length = branching._PATH_CHUNK + 2
    got = branching.sample_chain_path(spec, length, derive_rng(6, 0))
    rng = derive_rng(6, 0)
    s = int(np.searchsorted(spec.chain.cum_pi, rng.random(), side="right"))
    walk = envmodel.chain_walk(spec.chain.fwd_rows, s, rng.random(length - 1).tolist())
    assert got.dtype == np.int64
    assert got.tolist() == [s, *walk]
    assert branching.sample_chain_path(spec, 1, derive_rng(6, 0)).tolist() == [s]


def test_chain_regeneration_gap_renewal_oracle():
    spec = chains.chain_mk_k2()
    rng = derive_rng(5, 0)
    states = branching.sample_chain_path(spec, 400_000, rng)
    N = branching.chain_regenerations(states, 1, 0.8, rng)
    gaps = np.diff(N)
    pi = envmodel.stationary_distribution(spec.H)
    expected = 1.0 / (pi[1] * 0.8)
    se = gaps.std(ddof=1) / np.sqrt(gaps.size)
    assert abs(gaps.mean() - expected) < 4 * se
    assert np.all(states[N[1:]] == 1)


def test_common_regenerations_frozen_examples():
    nu = np.array([0, 2, 5, 9])
    N = np.array([0, 3, 5, 8, 9])
    assert list(branching.common_regenerations(nu, N)) == [0, 5, 9]
    assert list(branching.common_regenerations(nu, nu)) == list(nu)


def test_block_products_frozen_examples():
    # single-length block at the rough state of K1: M = rho = 2, Q = 1
    logr = np.log(np.array([2.0, 2.0]))
    bs = branching.block_products(logr, np.array([0, 1]))
    assert bs.products[0] == pytest.approx(2.0, rel=1e-14)
    assert bs.prefix_sums[0] == pytest.approx(1.0, rel=1e-14)
    # block (calm, rough) with odds (1/2, 2): M = 1, Q = 1 + 1/2
    logr = np.log(np.array([0.5, 2.0]))
    bs = branching.block_products(logr, np.array([0, 2]))
    assert bs.products[0] == pytest.approx(1.0, rel=1e-14)
    assert bs.prefix_sums[0] == pytest.approx(1.5, rel=1e-14)


def _check_block_oracle(logr, bounds, rel):
    bs = branching.block_products(logr, bounds)
    rho = np.exp(logr)
    assert len(bs) == len(bounds) - 1
    assert np.array_equal(bs.lengths, np.diff(bounds))
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        assert bs.products[j] == pytest.approx(np.prod(rho[a:b]), rel=rel)
        q = 1.0 + sum(np.prod(rho[a:a + i + 1]) for i in range(b - a - 1))
        assert bs.prefix_sums[j] == pytest.approx(q, rel=rel)


def test_block_products_brute_force_oracle():
    rng = np.random.default_rng(6)
    logr = np.log(rng.uniform(0.3, 3.0, 60))
    _check_block_oracle(logr, np.array([0, 7, 8, 20, 41, 60]), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(0, 10),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=10),
    tail=st.integers(0, 5),
    logs=st.lists(st.floats(-50.0, 50.0), min_size=135, max_size=135),
)
def test_block_products_property_oracle(offset, lengths, tail, logs):
    # Strictly increasing boundaries from b[0] >= 0, length-1 blocks, and
    # odds up to e^50 per step, so partial products reach e^600.  Products
    # are differences of one cumulative sum over the whole path, so their
    # relative error grows with the absolute size of that sum.
    bounds = offset + np.concatenate([[0], np.cumsum(lengths)])
    logr = np.array(logs[:bounds[-1] + tail])
    _check_block_oracle(logr, bounds, rel=1e-14 * (1.0 + np.abs(logr).sum()))


def test_block_products_bounded_partial_sums_in_long_block():
    # |log rho| = 50 at every step of a 400-step block, partial sums in [0, 50]
    logr = np.concatenate([np.zeros(3), np.tile([50.0, -50.0], 200)])
    bs = branching.block_products(logr, np.array([3, 403]))
    assert bs.products[0] == pytest.approx(1.0, abs=1e-12)
    assert bs.prefix_sums[0] == pytest.approx(200 + 200 * np.exp(50.0), rel=1e-12)


def test_block_products_rejects_empty_or_reversed_blocks():
    logr = np.zeros(5)
    with pytest.raises(ModelError, match="strictly increasing"):
        branching.block_products(logr, np.array([0, 2, 2, 5]))
    with pytest.raises(ModelError, match="strictly increasing"):
        branching.block_products(logr, np.array([0, 3, 1]))
    with pytest.raises(ModelError, match="within the path"):
        branching.block_products(logr, np.array([0, 2, 6]))
    assert len(branching.block_products(logr, np.array([2]))) == 0


def test_block_moment_identity_k1():
    # mean of the block odds product at the tail index is one
    spec = chains.chain_mk_k1()
    rng = derive_rng(7, 0)
    states = branching.sample_chain_path(spec, 300_000, rng)
    N = branching.chain_regenerations(states, 1, 0.5, rng)
    bs = branching.block_products(np.log(spec.rho)[states], N)
    m = bs.products  # kappa = 1
    se = m.std(ddof=1) / np.sqrt(m.size)
    assert abs(m.mean() - 1.0) < 4 * se


def test_regen_trace_block_partition():
    spec = chains.chain_mk_k2()
    rng = derive_rng(10, 0)
    path = branching.sample_branching(spec, 50_000, rng)
    tr = branching.regen_trace(path, rng)
    assert np.all(path.populations[tr.extinctions] == 0)
    assert set(tr.joint[1:]).issubset(set(tr.extinctions[1:]) & set(tr.chain_regens[1:]))
    last = tr.joint[-1]
    assert tr.joint_blocks.sum() == path.populations[:last].sum()


def test_one_dependence_and_stationarity_proxies():
    spec = chains.chain_mk_k2()
    rng = derive_rng(11, 0)
    path = branching.sample_branching(spec, 400_000, rng)
    tr = branching.regen_trace(path, rng)
    W = tr.joint_blocks[1:].astype(float)
    B = len(W)
    assert B > 10_000
    Wc = W - W.mean()
    denom = float((Wc**2).sum())
    for lag in (1, 2):
        ac = float((Wc[:-lag] * Wc[lag:]).sum() / denom)
        assert abs(ac) < 4 / np.sqrt(B)
    half = B // 2
    m1, m2 = W[:half].mean(), W[half:].mean()
    pooled_se = np.sqrt(W[:half].var(ddof=1) / half + W[half:].var(ddof=1) / (B - half))
    assert abs(m1 - m2) < 4 * pooled_se


def test_joint_gap_lln_stabilizes():
    spec = chains.chain_mk_k2()
    rng = derive_rng(12, 0)
    path = branching.sample_branching(spec, 80_000, rng)
    tr = branching.regen_trace(path, rng)
    gaps = np.diff(tr.joint)[:10_000]
    assert gaps.size == 10_000
    half_mean = gaps[: gaps.size // 2].mean()
    full_mean = gaps.mean()
    assert abs(half_mean - full_mean) / full_mean < 0.01


def test_joint_gap_clt_shape():
    spec = chains.chain_mk_k1()
    rng = derive_rng(13, 0)
    path = branching.sample_branching(spec, 120_000, rng)
    tr = branching.regen_trace(path, rng)
    gaps = np.diff(tr.joint).astype(float)
    g = 100
    batches = gaps[: (gaps.size // g) * g].reshape(-1, g).sum(axis=1)
    z = (batches - batches.mean()) / batches.std(ddof=1)
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_population_explosion_aborts():
    spec = envmodel.EnvironmentSpec(states=("hot",), H=np.array([[1.0]]),
                                    omega=np.array([0.25]), epsilon=0.1)
    with pytest.raises(NumericalError, match="explosion"):
        branching.sample_branching(spec, 5000, derive_rng(16, 0))


@pytest.mark.parametrize("make, n, digest", [
    (chains.chain_mk_k2, 200, "8806800de3859a8f"),
    (chains.chain_mk_k2, 2, "d279205b8bc78256"),  # one generation summed past Z_0 = 0
    (chains.nonarith_sub1, 200, "dc250ec4566a9c75"),  # heavy counts, up to about 2e10
])
def test_branch_population_sums_golden(make, n, digest):
    sums = branching.branch_population_sums(make(), n, 2000, derive_rng(6, 2))
    text = ",".join(map(str, sums.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_branching_vs_walk_single_site_trivial():
    # at target 1 both sides are identically zero
    spec = chains.single_state(0.5)
    import rwre.walksim as walksim
    env = walksim.sample_environment(spec, 8, 0, derive_rng(17, 0))
    rec = walksim.run_to_hit(env, 1, derive_rng(17, 1))
    assert rec.left_moves_at(1) == 0
    sums = branching.branch_population_sums(spec, 1, 50, derive_rng(18, 0))
    assert np.all(sums == 0)


def test_branching_vs_walk_mean_agreement():
    spec = chains.single_state(1 / 9)  # omega = 0.9
    import rwre.walksim as walksim
    walk = np.array([rec.left_moves[1 - rec.deepest_site:].sum()
                     for rec in walksim.reference_walks(spec, 100, 2000, seed=19)])
    branch = branching.branch_population_sums(spec, 100, 2000, derive_rng(19, 1))
    se = np.sqrt(walk.var(ddof=1) / 2000 + branch.var(ddof=1) / 2000)
    assert abs(walk.mean() - branch.mean()) < 4 * se


def test_branching_vs_walk_ks_check():
    verdict = branching.branching_vs_walk_check(chains.chain_mk_k2(), 100, 2500, seed=21)
    assert not verdict.rejected, verdict
