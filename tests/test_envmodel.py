import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chains
from rwre import envmodel
from rwre.envmodel import EnvironmentSpec
from rwre.errors import ModelError

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_rho_derived_from_omega():
    spec = chains.chain_mk_k1()
    assert np.allclose(spec.rho, [0.5, 2.0], rtol=0, atol=1e-15)


def test_stationary_k2_closed_form():
    pi = envmodel.stationary_distribution(chains.chain_mk_k2().H)
    assert np.max(np.abs(pi - np.array([31 / 35, 4 / 35]))) < 1e-12


def test_stationary_two_state_formula():
    H = np.array([[0.8, 0.2], [0.6, 0.4]])
    pi = envmodel.stationary_distribution(H)
    assert np.max(np.abs(pi - np.array([0.75, 0.25]))) < 1e-12
    assert np.max(np.abs(pi @ H - pi)) < 1e-12


def test_stationary_doubly_stochastic_uniform():
    pi = envmodel.stationary_distribution(np.array([[0.3, 0.7], [0.7, 0.3]]))
    assert np.max(np.abs(pi - 0.5)) < 1e-12


def test_stationary_periodic_chain():
    pi = envmodel.stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(pi - 0.5)) < 1e-12


def test_stationary_reducible_names_components():
    with pytest.raises(ModelError, match="strongly connected components"):
        envmodel.stationary_distribution(np.eye(2))


def test_stationary_mass_below_resolution_named():
    # Dirichlet(0.05) rows from default_rng(1): pi(0) = H[1,0] / (H[0,1] + H[1,0])
    # is 2.7e-41, but 1 - H[1,1] rounds to 0 and the solve returns pi(0) = 0.
    H = np.array([[0.0962308604878652, 0.9037691395121348], [2.4058383179789245e-41, 1.0]])
    with pytest.raises(ModelError, match=r"mass of state 0 .* pi\[0\] = 0$"):
        envmodel.stationary_distribution(H)


def test_validate_identity_chain_not_irreducible():
    spec = EnvironmentSpec(states=("a", "b"), H=np.eye(2),
                           omega=np.array([2 / 3, 1 / 3]), epsilon=0.05)
    rep = envmodel.validate(spec)
    assert not rep.irreducible
    assert len(rep.components) == 2
    assert rep.drift is None


def test_validate_k2_report():
    spec = chains.chain_mk_k2()
    rep = envmodel.validate(spec)
    assert rep.irreducible
    drift_oracle = float(
        envmodel.stationary_distribution(spec.H) @ np.log(spec.rho)
    )
    assert rep.drift == pytest.approx(drift_oracle, abs=1e-12)
    assert rep.drift < 0
    assert rep.a3_negative_beta is not None and rep.a3_nonnegative_beta is not None
    # Jensen consequence: both witnesses present implies negative drift.
    assert rep.drift < 0
    assert rep.arithmetic_span.arithmetic
    assert rep.ellipticity_margin == pytest.approx(1 / 3, abs=1e-12)


def test_ellipticity_boundary_rejected():
    with pytest.raises(ModelError, match="ellipticity"):
        EnvironmentSpec(states=("a", "b"), H=np.array([[0.5, 0.5], [0.5, 0.5]]),
                        omega=np.array([0.05, 0.5]), epsilon=0.05)


def test_non_stochastic_row_rejected_with_index():
    with pytest.raises(ModelError, match="row 1"):
        EnvironmentSpec(states=("a", "b"),
                        H=np.array([[0.5, 0.5], [0.6, 0.35]]),
                        omega=np.array([0.4, 0.6]), epsilon=0.1)


def test_omega_outside_unit_interval_rejected():
    with pytest.raises(ModelError, match="omega"):
        EnvironmentSpec(states=("a",), H=np.array([[1.0]]),
                        omega=np.array([1.0]), epsilon=0.1)


def test_reverse_kernel_detailed_balance_case():
    spec = EnvironmentSpec(states=("a", "b"), H=np.array([[0.8, 0.2], [0.6, 0.4]]),
                           omega=np.array([2 / 3, 1 / 3]), epsilon=0.05)
    rev = envmodel.reverse_kernel(spec)
    # pi_1 H_12 = 0.75 * 0.2 = 0.15 = pi_2 H_21: reversible, so unchanged.
    assert np.max(np.abs(rev - spec.H)) < 1e-12


def test_reverse_kernel_every_two_state_chain_reversible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = rng.uniform(0.05, 0.95, 2)
        spec = EnvironmentSpec(states=("a", "b"),
                               H=np.array([[1 - p, p], [q, 1 - q]]),
                               omega=np.array([0.4, 0.6]), epsilon=0.1)
        assert np.max(np.abs(envmodel.reverse_kernel(spec) - spec.H)) < 1e-12


def test_reverse_kernel_involution_and_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        H = rng.uniform(0.05, 1.0, (3, 3))
        H /= H.sum(axis=1, keepdims=True)
        spec = EnvironmentSpec(states=("a", "b", "c"), H=H,
                               omega=np.array([0.3, 0.5, 0.7]), epsilon=0.1)
        pi = envmodel.stationary_distribution(H)
        rev = envmodel.reverse_kernel(spec)
        assert np.max(np.abs(pi @ rev - pi)) < 1e-12
        spec_rev = EnvironmentSpec(states=spec.states, H=rev,
                                   omega=spec.omega, epsilon=spec.epsilon)
        assert np.max(np.abs(envmodel.reverse_kernel(spec_rev) - H)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 8),
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=64, max_size=64),
    states=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=40, max_size=40),
)
def test_chain_move_matches_searchsorted_on_closed_rows(k, weights, states, u):
    w = np.reshape(weights[:k * k], (k, k))
    assume(np.all(w.sum(axis=1) > 0))
    cum = envmodel.closed_cumsum(w / w.sum(axis=1, keepdims=True))  # zero entries kept
    s = np.array(states) % k
    top = np.nextafter(1.0, 0.0)
    # arbitrary uniforms, every cumulative entry below 1 itself (ties), and the
    # largest uniform in place of the closing 1.0
    ties = np.minimum(cum[s, np.arange(s.size) % k], top)
    for uu in (np.array(u[:s.size]), ties, np.full(s.size, top)):
        got = envmodel.chain_move(cum, s, uu)
        assert got.dtype == np.int64
        want = [np.searchsorted(cum[a], b, side="right") for a, b in zip(s, uu)]
        assert got.tolist() == want


def test_chain_move_ties_match_chain_walk():
    # u equal to a cumulative entry moves past it, as bisect_right does, so
    # u = 0.0 never enters a state of probability zero
    cum = envmodel.closed_cumsum(np.array([[0.0, 0.3, 0.7], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
    s = np.array([0, 1, 1, 2, 0])
    u = np.array([0.0, 0.5, 0.0, 0.2, 0.3])
    got = envmodel.chain_move(cum, s, u)
    assert got.tolist() == [1, 1, 0, 1, 2]
    walked = [envmodel.chain_walk(cum.tolist(), int(a), [float(b)])[0] for a, b in zip(s, u)]
    assert got.tolist() == walked


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_reverse_kernel_accepts_sparse_dirichlet_chains(k, seed):
    # Dirichlet(0.05) rows leave states of tiny stationary mass, where an
    # absolute bound on the reversed rows' sums rejected valid chains.
    H = np.random.default_rng(seed).dirichlet(np.full(k, 0.05), size=k)
    assume(envmodel.is_irreducible(H))
    try:
        table = envmodel.ChainTable.of(H)
    except ModelError:
        assume(False)  # the stationary solve itself is out of reach
    rev = table.rev
    assert np.all(rev >= 0)
    assert np.max(np.abs(rev.sum(axis=1) - 1.0) * table.pi) <= 1e-12
    balance = table.pi[:, None] * H - (table.pi[:, None] * rev).T
    assert np.max(np.abs(balance)) <= 1e-15
    assert np.all(table.cum_rev[:, -1] == 1.0)


def test_cumulative_rows_close_at_one():
    # Row 0 sums to 1 - 5e-13 (within ROW_SUM_TOL) and ends in a zero.
    H = np.array([[0.3, 0.7 - 5e-13, 0.0], [0.2, 0.3, 0.5], [0.5, 0.25, 0.25]])
    spec = EnvironmentSpec(states=("a", "b", "c"), H=H,
                           omega=np.array([0.3, 0.5, 0.7]), epsilon=0.1)
    table = spec.chain
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(H, axis=1)[0, -1] < top
    for cum in (table.cum_fwd, table.cum_rev, table.cum_pi[None, :]):
        assert np.all(cum[:, -1] == 1.0)
    u = np.full(3, top)
    # the gap goes to the last state of positive probability, not past it
    assert envmodel.chain_move(table.cum_fwd, np.arange(3), u).tolist() == [1, 2, 2]
    assert table.fwd_rows[0] == [0.3, 1.0, 1.0]
    assert table.cum_fwd[0, 0] == 0.3


def test_arithmetic_half_two_span_log2():
    span = envmodel.detect_arithmetic(chains.chain_mk_k1())
    assert span.arithmetic
    assert span.alpha == pytest.approx(math.log(2.0), abs=1e-9)
    shifted = np.minimum(span.gamma, span.alpha - span.gamma)
    assert np.max(shifted) < 1e-9  # gamma is zero modulo the span


def test_arithmetic_rejects_incommensurable_odds():
    span = envmodel.detect_arithmetic(chains.nonarith_sub1())
    assert not span.arithmetic


def test_arithmetic_single_state():
    span = envmodel.detect_arithmetic(chains.single_state(0.4))
    assert span.arithmetic
    assert span.alpha == pytest.approx(abs(math.log(0.4)), abs=1e-12)


def test_arithmetic_scale_consistency():
    base = chains.chain_mk_k1()
    squared = EnvironmentSpec(
        states=base.states, H=base.H,
        omega=1.0 / (1.0 + base.rho**2), epsilon=0.04,
    )
    a1 = envmodel.detect_arithmetic(base).alpha
    a2 = envmodel.detect_arithmetic(squared).alpha
    assert a2 == pytest.approx(2.0 * a1, abs=1e-9)


def test_model_files_match_programmatic_fixtures():
    pairs = {
        "chain-mk-k1.toml": chains.chain_mk_k1(),
        "chain-mk-k2.toml": chains.chain_mk_k2(),
        "iid-k1.toml": chains.iid_k1(),
        "iid-k2.toml": chains.iid_k2(),
        "nonarith-k2.toml": chains.nonarith_k2(),
        "nonarith-sub1.toml": chains.nonarith_sub1(),
    }
    for name, ref in pairs.items():
        spec = envmodel.load_model(MODELS / name)
        assert np.array_equal(spec.H, ref.H), name
        assert np.array_equal(spec.omega, ref.omega), name
        assert spec.epsilon == ref.epsilon, name
        assert spec.states == ref.states, name


def test_model_text_exact_values_and_fractions():
    doc = envmodel.parse_model_text(
        'states = ["x"]\nepsilon = "0.05"\nH = [["1"]]\nomega = ["2/3"]\n'
    )
    spec = envmodel.spec_from_dict(doc)
    assert spec.omega[0] == 2 / 3
    assert spec.epsilon == 0.05


def test_model_text_accepts_bare_numbers_and_comments():
    spec = envmodel.spec_from_dict(envmodel.parse_model_text(
        "# comment\nstates = [\"a\", \"b\"]  # trailing\nepsilon = 0.05\n"
        "H = [[0.9, 0.1], [0.775, 0.225]]\nomega = [0.4, 0.6]\n"
    ))
    assert spec.H[1, 0] == 0.775


def test_model_text_errors():
    with pytest.raises(ModelError, match="missing field"):
        envmodel.spec_from_dict(envmodel.parse_model_text('states = ["a"]'))
    with pytest.raises(ModelError):
        envmodel.parse_model_text('H = [[0.5, 0.5]')  # unterminated array
    with pytest.raises(ModelError, match="cannot parse number"):
        envmodel.spec_from_dict(envmodel.parse_model_text(
            'states = ["a"]\nepsilon = "abc"\nH = [["1"]]\nomega = ["0.5"]'
        ))
    # values TOML reads but a model must not hold, and documents that are
    # not TOML: a bare fraction, a missing comma
    doc = 'states = ["a", "b"]\nepsilon = 0.1\nH = [[0.5, 0.5], [0.5, 0.5]]\nomega = [{}]\n'
    for omega in ("nan, 0.5", "inf, 0.5", "true, 0.5", "2/3, 0.5", "0.4 0.5"):
        with pytest.raises(ModelError):
            envmodel.spec_from_dict(envmodel.parse_model_text(doc.format(omega)))
    # a scalar where an array belongs, and ragged rows
    square = "H = [[0.5, 0.5], [0.5, 0.5]]"
    for old, new in (("omega = [0.4, 0.5]", "omega = 0.5"), (square, "H = 1"),
                     (square, "H = [[1], [0.5, 0.5]]")):
        with pytest.raises(ModelError, match="malformed model field"):
            envmodel.spec_from_dict(envmodel.parse_model_text(
                doc.format("0.4, 0.5").replace(old, new)))
    with pytest.raises(ModelError, match="finite"):
        envmodel.spec_from_dict(envmodel.parse_model_text(
            doc.format("0.4, 0.5").replace("[[0.5, 0.5]", "[[nan, 1]")))
    with pytest.raises(ModelError, match="expected a number"):
        envmodel.spec_from_dict(envmodel.parse_model_text(
            doc.format("0.4, 0.5").replace("0.1", "true")))


def test_non_finite_spec_rejected():
    H = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ModelError, match="finite"):
        EnvironmentSpec(states=("a", "b"), H=H, omega=np.array([np.nan, 0.5]), epsilon=0.1)
    with pytest.raises(ModelError, match="finite"):
        EnvironmentSpec(states=("a", "b"), H=np.array([[np.nan, 1.0], [0.5, 0.5]]),
                        omega=np.array([0.4, 0.5]), epsilon=0.1)
