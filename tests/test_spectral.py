import math

import numpy as np
import pytest

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
    assert np.array_equal(spec.H, spectral.tilt(spec, 0.0).M)


def test_tilt_k1_beta_one_worked_example():
    spec = chains.chain_mk_k1()
    M = spectral.tilt(spec, 1.0).M
    assert np.max(np.abs(M - np.array([[0.4, 0.4], [0.3, 0.8]]))) < 1e-15


def test_tilt_single_state_power():
    spec = chains.single_state(0.7)
    assert spectral.tilt(spec, 3.0).M[0, 0] == pytest.approx(0.7**3, rel=1e-14)


def test_tilt_preserves_adjacency():
    spec = chains.chain_mk_k2()
    M = spectral.tilt(spec, 2.5).M
    assert np.array_equal(M > 0, spec.H > 0)


def test_spectral_radius_2x2_closed_form():
    M = np.array([[1.4, 0.15], [0.6, 0.35]])
    tr, det = 1.75, 1.4 * 0.35 - 0.15 * 0.6
    expected = (tr + math.sqrt(tr * tr - 4 * det)) / 2
    res = spectral.spectral_radius(M)
    assert res.radius == pytest.approx(expected, abs=1e-12)
    assert np.max(np.abs(M @ res.eigenvector - res.radius * res.eigenvector)) < 1e-10
    assert res.reliable_eigenvector


def test_spectral_radius_identity_and_diagonal():
    assert spectral.spectral_radius(np.eye(3)).radius == pytest.approx(1.0)
    res = spectral.spectral_radius(np.diag([2.0, 0.5]))
    assert res.radius == pytest.approx(2.0, abs=1e-12)
    assert not res.reliable_eigenvector


def test_spectral_radius_periodic_regularized():
    res = spectral.spectral_radius(np.array([[0.0, 2.0], [0.5, 0.0]]))
    assert res.radius == pytest.approx(1.0, abs=1e-10)
    assert res.regularized


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
    assert rep.f_kappa[rep.regen_state] * spec.rho[rep.regen_state] ** rep.kappa == \
        pytest.approx(1.0, abs=1e-12)
    tilted = spectral.tilt(spec, rep.kappa).M
    assert np.max(np.abs(tilted @ rep.f_kappa - rep.f_kappa)) < 1e-10
    assert np.all(rep.f_kappa > 0)
    assert rep.theta_kappa_radius < 1.0


def test_f_kappa_equals_block_expectation_solve():
    # Independent route: f = coin * (I - Theta_kappa)^{-1} s with s(x) = H(x, x*).
    spec = chains.chain_mk_k1()
    rep = spectral.solve_kappa(spec, regen_state=0, coin=0.5)
    theta = spec.H.copy()
    theta[:, 0] *= 1.0 - rep.coin
    theta_k = theta * spec.rho[None, :] ** rep.kappa
    s = spec.H[:, 0]
    f_alt = rep.coin * np.linalg.solve(np.eye(2) - theta_k, s)
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


def test_solve_kappa_light_tails():
    with pytest.raises(LightTailedError, match="light-tailed"):
        spectral.solve_kappa(chains.single_state(0.5))
    assert issubclass(LightTailedError, NumericalError)  # CLI exit code 2


def test_sub_stochastic_radius_k1_frozen():
    spec = chains.chain_mk_k1()
    radius, margin = spectral.sub_stochastic_radius(spec, 0.5, 1.0, regen_state=0)
    expected = (1.0 + math.sqrt(0.6)) / 2.0  # radius of [[0.2,0.4],[0.15,0.8]]
    assert radius == pytest.approx(expected, abs=1e-10)
    assert margin == pytest.approx(1 - expected, abs=1e-10)


def test_sub_stochastic_radius_full_coin_single_state():
    spec = chains.single_state(0.5)
    radius, _ = spectral.sub_stochastic_radius(spec, 1.0, 1.0, regen_state=0)
    assert radius == pytest.approx(0.0, abs=1e-15)


def test_sub_stochastic_radius_rejects_zero_coin():
    with pytest.raises(ModelError):
        spectral.sub_stochastic_radius(chains.chain_mk_k1(), 0.0, 1.0)


def test_sub_stochastic_radius_weak_coin_warns():
    spec = chains.chain_mk_k1()
    with pytest.warns(RuntimeWarning, match="too weak"):
        spectral.sub_stochastic_radius(spec, 1e-12, 1.0, regen_state=0)
