import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

import chains
from rwre import envmodel, spectral
from rwre.errors import LightTailedError, ModelError, NumericalError

ALL_CHAINS = [
    chains.chain_mk_k1,
    chains.chain_mk_k2,
    chains.iid_k1,
    chains.iid_k2,
    chains.nonarith_k2,
    chains.nonarith_sub1,
]


def test_tilt_zero_is_identity_on_H():
    spec = chains.chain_mk_k1()
    assert np.array_equal(spec.H, spectral.tilt(spec, 0.0))


def test_tilt_k1_beta_one_worked_example():
    spec = chains.chain_mk_k1()
    M = spectral.tilt(spec, 1.0)
    assert np.max(np.abs(M - np.array([[0.4, 0.4], [0.3, 0.8]]))) < 1e-15


def test_tilt_single_state_power():
    spec = chains.single_state(0.7)
    assert spectral.tilt(spec, 3.0)[0, 0] == pytest.approx(0.7**3, rel=1e-14)


def test_tilt_preserves_adjacency():
    spec = chains.chain_mk_k2()
    M = spectral.tilt(spec, 2.5)
    assert np.array_equal(M > 0, spec.H > 0)


def test_spectral_radius_2x2_closed_form():
    M = np.array([[1.4, 0.15], [0.6, 0.35]])
    tr, det = 1.75, 1.4 * 0.35 - 0.15 * 0.6
    expected = (tr + math.sqrt(tr * tr - 4 * det)) / 2
    res = spectral.spectral_radius(M)
    assert res.radius == pytest.approx(expected, abs=1e-12)
    assert np.max(np.abs(M @ res.eigenvector - res.radius * res.eigenvector)) < 1e-10


def test_spectral_radius_identity_and_diagonal():
    assert spectral.spectral_radius(np.eye(3)).radius == pytest.approx(1.0)
    res = spectral.spectral_radius(np.diag([2.0, 0.5]))
    assert res.radius == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_periodic():
    M = np.array([[0.0, 2.0], [0.5, 0.0]])  # eigenvalues +1 and -1
    res = spectral.spectral_radius(M)
    assert res.radius == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(M @ res.eigenvector - res.radius * res.eigenvector)) < 1e-10
    assert np.all(res.eigenvector > 0)


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ModelError):
        spectral.spectral_radius(np.array([[0.5, -0.1], [0.2, 0.3]]))


@pytest.mark.parametrize("make", ALL_CHAINS)
def test_lyapunov_zero_at_zero(make):
    assert spectral.lyapunov_exponent(make(), 0.0) == 0.0


@pytest.mark.parametrize("make", [chains.iid_k1, chains.iid_k2])
def test_lyapunov_iid_identity(make):
    spec = make()
    pi = envmodel.stationary_distribution(spec.H)
    for beta in (0.5, 1.0, 2.0, 4.0):
        exact = math.log(float(pi @ spec.rho**beta))
        assert abs(spectral.lyapunov_exponent(spec, beta) - exact) < 1e-12


def test_lyapunov_k1_root_at_one():
    # radius of [[0.4, 0.4], [0.3, 0.8]] is 1: char poly x^2 - 1.2x + 0.2
    assert abs(spectral.lyapunov_exponent(chains.chain_mk_k1(), 1.0)) < 1e-12


def test_solve_kappa_exact_roots():
    assert abs(spectral.solve_kappa(chains.chain_mk_k1()).kappa - 1.0) < 1e-10
    assert abs(spectral.solve_kappa(chains.chain_mk_k2()).kappa - 2.0) < 1e-10
    assert abs(spectral.solve_kappa(chains.iid_k1()).kappa - 1.0) < 1e-10
    assert abs(spectral.solve_kappa(chains.iid_k2()).kappa - 2.0) < 1e-10


def test_solve_kappa_report_normalization_and_residual():
    spec = chains.chain_mk_k2()
    rep = spectral.solve_kappa(spec)
    x = spectral.REGEN_STATE
    assert rep.f_kappa[x] * spec.rho[x] ** rep.kappa == pytest.approx(1.0, abs=1e-12)
    tilted = spectral.tilt(spec, rep.kappa)
    assert np.max(np.abs(tilted @ rep.f_kappa - rep.f_kappa)) < 1e-10
    assert np.all(rep.f_kappa > 0)
    assert rep.theta_kappa_radius < 1.0


def test_f_kappa_equals_block_expectation_solve():
    # Independent route: f = coin * (I - Theta_kappa)^{-1} s with s(x) = H(x, x*).
    spec = chains.chain_mk_k1()
    assert (spectral.REGEN_STATE, spectral.REGEN_COIN) == (0, 0.5)
    rep = spectral.solve_kappa(spec)
    theta = spec.H.copy()
    theta[:, 0] *= 1.0 - 0.5
    theta_k = theta * spec.rho[None, :] ** rep.kappa
    s = spec.H[:, 0]
    f_alt = 0.5 * np.linalg.solve(np.eye(2) - theta_k, s)
    assert np.max(np.abs(f_alt - rep.f_kappa)) < 1e-9


@pytest.mark.parametrize("make", [chains.chain_mk_k1, chains.chain_mk_k2,
                                  chains.iid_k2, chains.nonarith_sub1])
def test_condition_b_sign_structure_and_convexity(make):
    spec = make()
    rep = spectral.solve_kappa(spec)
    lams = rep.lambdas
    grid = rep.beta_grid
    assert np.all((grid - rep.kappa) * lams >= -1e-9)
    # geometric grid: convexity in beta still forces chord dominance pointwise
    for i in range(1, len(grid) - 1):
        t = (grid[i] - grid[i - 1]) / (grid[i + 1] - grid[i - 1])
        chord = (1 - t) * lams[i - 1] + t * lams[i + 1]
        assert lams[i] <= chord + 1e-9


def test_solve_kappa_wrong_direction_drift():
    spec = envmodel.EnvironmentSpec(
        states=("a", "b"), H=np.array([[0.9, 0.1], [0.775, 0.225]]),
        omega=np.array([1 / 3, 2 / 3]), epsilon=0.05,
    )  # odds flipped: drift positive
    with pytest.raises(NumericalError, match="drift condition fails"):
        spectral.solve_kappa(spec)
    # the halving below the grid stops before Lambda sinks into rounding noise
    assert envmodel.validate(spec).a3_negative_beta is None


def test_solve_kappa_light_tails():
    with pytest.raises(LightTailedError, match="light-tailed"):
        spectral.solve_kappa(chains.single_state(0.5))
    assert issubclass(LightTailedError, NumericalError)  # CLI exit code 2


def test_sub_stochastic_radius_k1_frozen():
    spec = chains.chain_mk_k1()
    radius, margin = spectral.sub_stochastic_radius(spec, 1.0)
    expected = (1.0 + math.sqrt(0.6)) / 2.0  # radius of [[0.2,0.4],[0.15,0.8]]
    assert radius == pytest.approx(expected, abs=1e-10)
    assert margin == pytest.approx(1 - expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Dense oracle and property tests
# ---------------------------------------------------------------------------


def _oracle_lambda(spec, beta):
    return float(np.log(np.max(np.abs(np.linalg.eigvals(spec.H * spec.rho**beta)))))


def _oracle_kappa(spec):
    """Positive root of Lambda by brentq on dense eigvals; None if light-tailed."""
    lo = 1.0
    while _oracle_lambda(spec, lo) >= 0.0:
        lo /= 2.0
    hi = 2.0 * lo
    while _oracle_lambda(spec, hi) < 0.0:
        if hi >= 64.0:
            return None
        hi *= 2.0
    return optimize.brentq(lambda b: _oracle_lambda(spec, b), hi / 2.0, hi,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps)


def _spec(H, omega):
    states = tuple(f"s{i}" for i in range(len(omega)))
    return envmodel.EnvironmentSpec(states=states, H=H, omega=omega, epsilon=0.05)


@st.composite
def random_chains(draw):
    """Random 1-8-state chains; some rows sit near a cyclic shift (near-periodic)
    or near the identity (near-reducible), with leakage ``e``."""
    k = draw(st.integers(1, 8))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k * k, max_size=k * k))
    H = np.array(weights).reshape(k, k)
    H /= H.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["generic", "near-periodic", "near-reducible"]))
    if kind != "generic":
        e = draw(st.sampled_from([1e-2, 1e-4, 1e-6]))
        P = np.roll(np.eye(k), 1, axis=1) if kind == "near-periodic" else np.eye(k)
        H = (1.0 - e) * P + e * H
        H /= H.sum(axis=1, keepdims=True)
    omega = np.array(draw(st.lists(st.floats(0.25, 0.9), min_size=k, max_size=k)))
    return _spec(H, omega)


def _drift(spec):
    return float(envmodel.stationary_distribution(spec.H) @ spec.log_rho())


@settings(max_examples=150, deadline=None)
@given(spec=random_chains())
def test_solve_kappa_matches_dense_oracle(spec):
    assume(_drift(spec) < 0.0)
    expected = _oracle_kappa(spec)
    if expected is None:
        with pytest.raises(LightTailedError):
            spectral.solve_kappa(spec)
        return
    rep = spectral.solve_kappa(spec)
    kappa = rep.kappa
    assert kappa == pytest.approx(expected, rel=1e-12)
    assert spectral.lyapunov_exponent(spec, kappa / 2) < 0.0 < \
        spectral.lyapunov_exponent(spec, 2 * kappa)
    assert rep.residual < 1e-10
    assert np.all(rep.f_kappa > 0)


def test_kappa_reported_when_regeneration_margin_below_resolution():
    # Near-periodic 3-cycle: the tilted residual radius at kappa rounds to
    # 1 (40-digit arithmetic gives 1 - 2.2e-16); kappa itself is exact.
    e = 1e-6
    H = (1.0 - e) * np.roll(np.eye(3), 1, axis=1) + e / 3.0
    spec = _spec(H, np.array([0.75, 0.75, 0.40625]))
    with pytest.warns(RuntimeWarning, match="coin too weak"):
        rep = spectral.solve_kappa(spec)
    assert rep.kappa == pytest.approx(_oracle_kappa(spec), rel=1e-12)
    assert rep.kappa == pytest.approx(39.30047620177031, rel=1e-12)
    assert rep.theta_margin < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    row=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    omega=st.lists(st.floats(0.1, 0.9), min_size=8, max_size=8),
    beta=st.floats(0.0, 64.0),
)
def test_lyapunov_independent_rows_closed_form(row, omega, beta):
    p = np.array(row) / sum(row)
    spec = _spec(np.tile(p, (p.size, 1)), np.array(omega[: p.size]))
    exact = math.log(float(p @ spec.rho**beta))
    assert spectral.lyapunov_exponent(spec, beta) == pytest.approx(exact, rel=1e-12, abs=1e-12)


@st.composite
def nonnegative_matrices(draw):
    """Nonnegative k x k matrices: dense, sparse, or periodic with period p,
    with links only from cyclic class c to class c + 1 (mod p)."""
    k = draw(st.integers(1, 8))
    M = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=k * k, max_size=k * k)))
    M = M.reshape(k, k)
    kind = draw(st.sampled_from(["dense", "sparse", "periodic"]))
    if kind == "sparse":
        keep = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
        M = M * keep.reshape(k, k)
    elif kind == "periodic":
        p = draw(st.integers(1, k))
        cls = np.arange(k) % p
        M = M * ((cls[None, :] - cls[:, None]) % p == 1 % p)
    return M


@settings(max_examples=150, deadline=None)
@given(M=nonnegative_matrices())
def test_spectral_radius_matches_eigvals(M):
    res = spectral.spectral_radius(M)
    expected = float(np.max(np.abs(np.linalg.eigvals(M))))
    assert res.radius == pytest.approx(expected, rel=1e-12, abs=1e-12)
    v = res.eigenvector
    if envmodel.is_irreducible(M) and np.all(v > 0):
        assert np.max(np.abs(M @ v - res.radius * v)) <= 1e-10 * res.radius


@pytest.mark.filterwarnings("ignore:regeneration coin too weak")
@pytest.mark.parametrize("e, expected", [(1e-4, 22.715386400901), (1e-6, 34.0732408093)])
def test_solve_kappa_stiff_near_periodic_chain(e, expected):
    # Power iteration needed 31.7 s and 37.4 s here; one eigensolve per probe
    # takes milliseconds, so the bound catches a return to iteration.
    spec = _spec(np.array([[e, 1 - e], [1 - e, e]]), np.array([0.7, 0.4]))
    start = time.perf_counter()
    kappa = spectral.solve_kappa(spec).kappa
    assert time.perf_counter() - start < 1.0
    assert kappa == pytest.approx(expected, rel=1e-11)
    assert kappa == pytest.approx(_oracle_kappa(spec), rel=1e-12)


def test_solve_kappa_below_probe_grid():
    spec = _spec(np.array([[0.999, 0.001], [0.001, 0.999]]), np.array([0.7, 0.4]))
    kappa = spectral.solve_kappa(spec).kappa
    assert kappa == pytest.approx(0.0012873682684796, rel=1e-12)
    rep = envmodel.validate(spec)
    assert rep.a3_negative_beta < kappa <= rep.a3_nonnegative_beta
    assert rep.irreducible and rep.drift < 0 and not rep.arithmetic_span.arithmetic


def _assert_grid_is_per_point(spec):
    lams, lo, hi = spectral.moment_bracket(spec)
    want = [spectral.lyapunov_exponent(spec, float(b)) for b in spectral.BETA_GRID]
    assert lams.tolist() == want  # bit for bit
    return lo, hi


@pytest.mark.parametrize("make, bracket", [
    (chains.chain_mk_k1, (0.5, 1.0)), (chains.chain_mk_k2, (1.0, 2.0)),
    (chains.iid_k1, (0.5, 1.0)), (chains.iid_k2, (1.0, 2.0)),
    (chains.nonarith_k2, (1.0, 2.0)), (chains.nonarith_sub1, (0.5, 1.0)),
])
def test_moment_grid_equals_per_point_solves_on_shipped_models(make, bracket):
    assert _assert_grid_is_per_point(make()) == bracket


@settings(max_examples=150, deadline=None)
@given(spec=random_chains().filter(lambda s: s.n_states >= 2))
def test_moment_grid_equals_per_point_solves(spec):
    lo, hi = _assert_grid_is_per_point(spec)
    # the bracket is still two adjacent powers of two straddling the root
    if lo is not None and hi is not None:
        assert hi == 2.0 * lo
        assert spectral.lyapunov_exponent(spec, lo) < 0.0 <= spectral.lyapunov_exponent(spec, hi)
