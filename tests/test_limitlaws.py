import hashlib
import logging
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr
from scipy.stats import levy_stable

import chains
from rwre import limitlaws, spectral, walksim
from rwre._rng import derive_rng
from rwre.errors import ModelError, NumericalError
from rwre.limitlaws import StableParams, fit_b, fit_shift_b, normalization, stable_cdf


# Reference values at b = 0.7 from an independent evaluator (adaptive
# quadrature of the characteristic-function inversion integral), as
# (kappa, x / sigma, F) with sigma = b**(1/kappa).
_GOLDEN_B = 0.7
_GOLDEN_CDF = [
    (0.3, 0.001, 1.650241227740823e-05),
    (0.3, 0.01, 0.00979970762562743),
    (0.3, 1.0, 0.386865126013058),
    (0.3, 100.0, 0.8002982293264715),
    (0.3, 1000.0, 0.8955985248456839),
    (0.3, 10000.0, 0.9465700462040232),
    (0.3, 100000.0, 0.9729414133500391),
    (0.3, 1000000.0, 0.9863678978749035),
    (0.668, 0.001, 0.0),
    (0.668, 0.01, 0.0),
    (0.668, 1.0, 0.10598434869105466),
    (0.668, 100.0, 0.9645192594076106),
    (0.668, 1000.0, 0.9925579532836526),
    (0.668, 10000.0, 0.9984098226558553),
    (0.668, 100000.0, 0.9996588373082012),
    (0.668, 1000000.0, 0.9999267414413164),
    (1.0, 0.001, 0.42264438564721407),
    (1.0, -0.001, 0.4221630215084315),
    (1.0, 0.01, 0.4248054959193717),
    (1.0, -0.01, 0.419991866723506),
    (1.0, 1.0, 0.6127995222019392),
    (1.0, -1.0, 0.15155979614083553),
    (1.0, 100.0, 0.9934766461615953),
    (1.0, -100.0, 0.0),
    (1.0, 1000.0, 0.9993608890802406),
    (1.0, -1000.0, 2.1421753260142395e-13),
    (1.0, 10000.0, 0.9999363038382023),
    (1.0, -10000.0, 1.0547118733938987e-15),
    (1.0, 100000.0, 0.9999936333672392),
    (1.0, -100000.0, 0.0),
    (1.0, 1000000.0, 0.9999993633749444),
    (1.0, -1000000.0, 4.440892098500626e-16),
    (1.1, 0.001, 0.9091069297709695),
    (1.1, -0.001, 0.9090748833123664),
    (1.1, 0.01, 0.909250890566182),
    (1.1, -0.01, 0.9089304252566752),
    (1.1, 1.0, 0.9229238960559155),
    (1.1, -1.0, 0.8901335976271321),
    (1.1, 100.0, 0.9963861081610665),
    (1.1, -100.0, 1.6485884879458013e-10),
    (1.1, 1000.0, 0.9997012477695792),
    (1.1, -1000.0, 1.597626475557945e-10),
    (1.1, 10000.0, 0.9999761920552404),
    (1.1, -10000.0, 1.592188603183331e-10),
    (1.1, 100000.0, 0.9999981082332383),
    (1.1, -100000.0, 1.5916101769875013e-10),
    (1.1, 1000000.0, 0.9999998498763855),
    (1.1, -1000000.0, 4.529531194563674e-10),
    (1.5, 0.001, 0.666864131147196),
    (1.5, -0.001, 0.6664690988034414),
    (1.5, 0.01, 0.6686366593369965),
    (1.5, -0.01, 0.6646863359021481),
    (1.5, 1.0, 0.8158030293684506),
    (1.5, -1.0, 0.4232389985647002),
    (1.5, 100.0, 0.9996010593091744),
    (1.5, -100.0, 1.5856760349208798e-10),
    (1.5, 1000.0, 0.9999873842121589),
    (1.5, -1000.0, 1.9267903939024222e-10),
    (1.5, 10000.0, 0.9999996009670211),
    (1.5, -10000.0, 2.2657536957737534e-10),
    (1.5, 100000.0, 0.9999999872273495),
    (1.5, -100000.0, 1.6128648416824376e-10),
    (1.5, 1000000.0, 0.999999999441972),
    (1.5, -1000000.0, 1.5922246854316313e-10),
    (1.9, 0.001, 0.5265954386354714),
    (1.9, -0.001, 0.5260361138500615),
    (1.9, 0.01, 0.5291110669102512),
    (1.9, -0.01, 0.5235178658995131),
    (1.9, 1.0, 0.7728841972325995),
    (1.9, -1.0, 0.2574598616166765),
    (1.9, 100.0, 0.9999848081881211),
    (1.9, -100.0, 2.2870011440190297e-10),
    (1.9, 1000.0, 0.9999998087308646),
    (1.9, -1000.0, 1.5987899892877522e-10),
    (1.9, 10000.0, 0.9999999974349538),
    (1.9, -10000.0, 1.5914902729008418e-10),
    (1.9, 100000.0, 0.9999999998105586),
    (1.9, -100000.0, 1.5915380124909007e-10),
    (1.9, 1000000.0, 0.999999999840464),
    (1.9, -1000000.0, 1.59154744938661e-10),
]


def test_cdf_golden_table():
    for kappa, u, F in _GOLDEN_CDF:
        x = u * _GOLDEN_B ** (1.0 / kappa)
        assert abs(stable_cdf(StableParams(kappa, _GOLDEN_B), x) - F) < 1e-8, (kappa, u)


def test_cdf_gaussian_identification():
    for b in (0.3, 1.0, 4.7):
        sd = math.sqrt(2 * b)
        xs = np.linspace(-5 * sd, 5 * sd, 41)
        assert np.array_equal(stable_cdf(StableParams(2.0, b), xs), ndtr(xs / sd))
        assert stable_cdf(StableParams(2.0, b), xs[3]) == ndtr(xs[3] / sd)


def test_cdf_levy_identification():
    for b in (0.5, 1.0, 1.3, 2.0):
        xs = np.geomspace(1e-3, 1e6, 60)
        F = stable_cdf(StableParams(0.5, b), xs)
        assert np.max(np.abs(F - erfc(b / np.sqrt(2 * xs)))) < 1e-9


@given(kappa=st.one_of(st.just(1.0), st.just(2.0), st.floats(0.2, 2.0)),
       b=st.floats(0.05, 20.0), s=st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_cdf_properties(kappa, b, s):
    sigma = b ** (1.0 / kappa)
    mags = np.geomspace(1e-3, 1e4, 40)
    x = sigma * np.concatenate([-mags[::-1], [0.0], mags])
    F = stable_cdf(StableParams(kappa, b), x)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert np.all(np.diff(F) >= -1e-9)
    # s X has scale s**kappa b; at index one it also moves by (2/pi) s b log s
    shift = 2.0 / math.pi * s * b * math.log(s) if kappa == 1.0 else 0.0
    G = stable_cdf(StableParams(kappa, s**kappa * b), s * x + shift)
    assert np.max(np.abs(F - G)) < 1e-8
    if kappa != 1.0:
        assert F[mags.size] == pytest.approx(0.0 if kappa < 1.0 else 1.0 / kappa, abs=1e-15)


def test_cdf_non_finite_points():
    for kappa in (0.5, 1.0, 1.5, 2.0):
        params = StableParams(kappa, 1.3)
        assert math.isnan(stable_cdf(params, math.nan))
        F = stable_cdf(params, np.array([-np.inf, np.nan, 0.7, np.inf]))
        assert F[0] == 0.0 and math.isnan(F[1]) and F[3] == 1.0
        assert abs(F[2] - stable_cdf(params, 0.7)) < 1e-12


def test_cdf_symmetric_at_index_two():
    assert stable_cdf(StableParams(2.0, 1.3), 0.0) == pytest.approx(0.5, abs=1e-9)


def test_cdf_positive_support_below_index_one():
    for kappa in (0.3, 0.66, 0.9):
        params = StableParams(kappa, 1.0)
        for x in (-10.0, -1.0, 0.0):
            assert stable_cdf(params, x) <= 1e-8


def test_cdf_monotone_with_limits():
    for kappa in (0.5, 0.99, 1.0, 1.01, 1.5, 2.0):
        params = StableParams(kappa, 1.0)
        F = stable_cdf(params, np.linspace(-60, 160, 111))
        assert np.all(np.diff(F) >= -1e-8)
        assert F[0] < 0.99 and F[-1] > 0.4
    assert stable_cdf(StableParams(1.5, 1.0), -1e6) < 1e-6
    assert stable_cdf(StableParams(1.5, 1.0), 1e7) > 1 - 1e-4


def test_cdf_scaling_identity():
    s = 2.0
    for kappa in (0.5, 1.5, 2.0):
        pa = StableParams(kappa, 1.3)
        pb = StableParams(kappa, s**kappa * 1.3)
        for x in np.linspace(-6, 6, 25):
            assert abs(stable_cdf(pa, x) - stable_cdf(pb, s * x)) < 1e-8


def test_cdf_agrees_with_scipy_family(monkeypatch):
    # S1, beta = 1, scale b**(1/kappa), on 0.01 <= |x| / scale <= 100.
    # levy_stable itself is off by 1.6e-4 there at kappa = 1.1.
    monkeypatch.setattr(levy_stable, "parameterization", "S1")
    b = 1.3
    mags = np.geomspace(0.01, 100.0, 25)
    for kappa in (0.3, 0.5, 0.668, 0.7, 0.9, 1.0, 1.2, 1.5, 1.8, 1.9):
        sigma = b ** (1.0 / kappa)
        xs = sigma * np.concatenate([-mags, mags])
        ref = levy_stable.cdf(xs, kappa, 1.0, loc=0.0, scale=sigma)
        assert np.max(np.abs(stable_cdf(StableParams(kappa, b), xs) - ref)) < 1e-9, kappa


def test_cdf_zero_mean_above_index_one():
    # numerical mean of the law via tail integrals, kappa = 1.8
    kappa, b = 1.8, 1.0
    params = StableParams(kappa, b)
    grid = np.linspace(0.0, 200.0, 2001)
    upper = np.trapezoid(1.0 - stable_cdf(params, grid), grid)
    lower = np.trapezoid(stable_cdf(params, -grid), grid)
    c_k = (1 - kappa) / (math.gamma(2 - kappa) * math.cos(math.pi * kappa / 2))
    tail_bound = abs(c_k) * 2 * b * 200.0 ** (1 - kappa) / (kappa - 1)
    assert abs(upper - lower) < tail_bound + 1e-3


def test_fit_gaussian_oracle():
    b0 = 1.7
    x = derive_rng(1, 0).normal(0.0, math.sqrt(2 * b0), 10_000)
    fit = fit_b(x, 2.0)
    assert abs(fit.b / b0 - 1.0) < 0.1
    assert fit.ks < 0.02


def test_fit_levy_oracle():
    c = 2.3
    x = c / derive_rng(2, 0).normal(0.0, 1.0, 10_000) ** 2
    fit = fit_b(x, 0.5)
    assert abs(fit.b / math.sqrt(c) - 1.0) < 0.1


def test_fit_scale_equivariance():
    b0 = 1.1
    rng = derive_rng(3, 0)
    x = rng.normal(0.0, math.sqrt(2 * b0), 10_000)
    ratio = fit_b(3.0 * x, 2.0).b / fit_b(x, 2.0).b
    assert abs(ratio / 9.0 - 1.0) < 0.05  # scale s multiplies b by s**kappa


def test_fit_index_one_direct_path():
    # scipy's S1 parametrization at alpha=1 matches this family with scale=b
    b0 = 1.5
    x = levy_stable.rvs(1.0, 1.0, loc=0.0, scale=b0, size=3000,
                        random_state=np.random.default_rng(9))
    fit = fit_b(x, 1.0)
    assert abs(fit.b / b0 - 1.0) < 0.25
    assert fit.ks < 0.05


def _exact_fit_b(samples, kappa):
    """The scale fit with every candidate scored exactly: the reference
    that fit_b's table scores must reproduce bit for bit."""
    x, _, _, s0 = limitlaws._fit_input(samples, kappa)
    thin = x[:: max(1, x.size // limitlaws.FIT_POINTS)]

    def cdf(log_s, at):
        return stable_cdf(StableParams(kappa, math.exp(log_s) ** kappa), at)

    def f(log_s):
        return limitlaws._ks_distance(thin, cdf(log_s, thin))

    coarse = np.linspace(math.log(s0 / 32.0), math.log(s0 * 32.0), 17)
    j = int(np.argmin([f(v) for v in coarse]))
    a, d = coarse[max(j - 1, 0)], coarse[min(j + 1, len(coarse) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    p, q = d - inv_phi * (d - a), a + inv_phi * (d - a)
    fp, fq = f(p), f(q)
    while d - a > 1e-3:
        if fp <= fq:
            d, q, fq = q, p, fp
            p = d - inv_phi * (d - a)
            fp = f(p)
        else:
            a, p, fp = p, q, fq
            q = a + inv_phi * (d - a)
            fq = f(q)
    log_s = 0.5 * (a + d)
    exact = cdf(log_s, x)
    return limitlaws.FitResult(b=math.exp(log_s) ** kappa,
                               ks=limitlaws._ks_distance(x, exact), cdf_at_samples=exact)


_SWEEP = (0.3, 0.67, 0.9, 1.0, 1.3, 1.7)


@lru_cache(maxsize=None)
def _fit_case(name):
    """(samples, kappa, exact fit) for one oracle input."""
    if name.startswith("levy-"):
        kappa = float(name.split("-")[1])
        x = levy_stable.rvs(kappa, 1.0, loc=0.0, scale=1.3, size=2000,
                            random_state=np.random.default_rng(int(10 * kappa)))
    elif name == "thinned-1.5":
        kappa = 1.5
        x = levy_stable.rvs(kappa, 1.0, loc=0.0, scale=0.8, size=12_000,
                            random_state=np.random.default_rng(5))
    else:  # the T side of `limit-check --seed 0` on nonarith-sub1, n = 1000
        spec = chains.nonarith_sub1()
        kappa = spectral.solve_kappa(spec).kappa
        sample = walksim.annealed_hitting_sample(spec, 1000, 2000, limitlaws.child_seed(0, 1))
        x = np.sort(sample.complete / 1000 ** (1.0 / kappa))
        if name == "sub1-inf":
            x[-1] = np.inf
        else:
            x[0] = 0.0
    return x, kappa, _exact_fit_b(x, kappa)


def _logged_fit(caplog, x, kappa):
    """fit_b's result and its debug line: table nodes, eps, exact re-scores."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rwre.limitlaws"):
        fit = fit_b(x, kappa)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "rwre.limitlaws"]
    m = re.fullmatch(r"fit_b: (\d+) table nodes, eps (\S+), (\d+) exact re-scores", line)
    return fit, int(m[1]), float(m[2]), int(m[3])


def _assert_same_fit(fit, ref):
    assert fit.b == ref.b and fit.ks == ref.ks
    assert np.array_equal(fit.cdf_at_samples, ref.cdf_at_samples)


@pytest.mark.parametrize("name", [f"levy-{k}" for k in _SWEEP]
                         + ["thinned-1.5", "sub1-inf", "sub1-zero"])
def test_fit_b_matches_exact_search(name, caplog):
    x, kappa, ref = _fit_case(name)
    fit, nodes, eps, rescores = _logged_fit(caplog, x, kappa)
    _assert_same_fit(fit, ref)
    assert nodes > 0 and eps <= 1e-5
    if name.startswith("sub1-"):
        # the +inf or 0.0 point is read off stable_cdf alone, never a whole candidate
        assert rescores == 0
        assert fit.b == 1.7861922349360952


@pytest.mark.parametrize("name, step", [
    ("levy-0.9", 0.3), ("levy-1.0", 0.3), ("sub1-inf", 0.3),
    # here the table's coarse-scan minimum is not the exact one
    ("levy-0.9", 1.0),
])
def test_fit_b_rescores_near_ties_exactly(name, step, monkeypatch, caplog):
    # a table this coarse leaves many comparisons within twice its error bound
    monkeypatch.setattr(limitlaws, "TABLE_STEP", step)
    x, kappa, ref = _fit_case(name)
    fit, _, eps, rescores = _logged_fit(caplog, x, kappa)
    assert eps > 1e-3 and rescores >= 10
    _assert_same_fit(fit, ref)


@pytest.mark.parametrize("kappa", _SWEEP)
def test_unit_table_error_bound(kappa):
    mags = np.geomspace(1e-6, 1e8, 15)
    table = limitlaws._UnitTable(kappa, np.concatenate([-mags, mags]))
    # the bound is for speed: beyond it near-ties only cost exact re-scores
    assert 0.0 < table.eps <= 1e-5
    # midway between nodes, where a cubic errs most, the table stays inside it
    u = np.exp(limitlaws.TABLE_STEP * (np.arange(-1380, 1840, 7) + 0.5))
    u = np.concatenate([-u, u])
    assert np.max(np.abs(table.read(u) - stable_cdf(StableParams(kappa, 1.0), u))) <= table.eps


def test_fit_b_debug_line_goes_through_rwre_logger(caplog):
    x = 2.3 / derive_rng(2, 0).normal(0.0, 1.0, 2000) ** 2
    fit, nodes, eps, rescores = _logged_fit(caplog, x, 0.5)
    assert caplog.records[0].name.startswith("rwre.")
    assert nodes > 100 and 0.0 < eps <= 1e-5 and rescores >= 0
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="rwre"):
        assert fit_b(x, 0.5).b == fit.b
    assert caplog.records == []


def test_fit_shift_gaussian_oracle():
    b0, shift0 = 0.85, -0.2
    sd = math.sqrt(2 * b0)
    x = derive_rng(5, 0).normal(shift0, sd, 2000)
    fit = fit_shift_b(x)
    assert abs(fit.shift - shift0) < 0.1 * sd
    assert abs(fit.b / b0 - 1.0) < 0.15
    assert fit.ks < 0.03
    # shape check: no normal location and scale fits a skewed law
    e = derive_rng(5, 1).exponential(1.0, 2000) - 1.0
    assert fit_shift_b(e).ks > 0.05


def test_fit_degenerate_samples_rejected():
    with pytest.raises(ModelError, match="spread"):
        fit_b(np.full(2000, 3.0), 2.0)
    with pytest.raises(ModelError):
        fit_b(np.ones(10), 2.0)
    with pytest.raises(ModelError, match="spread"):
        fit_shift_b(np.full(2000, 3.0))


def test_normalization_schedules_frozen():
    center, scale = normalization(2.0, 10_000, v=7 / 41)
    assert center == pytest.approx(10_000 * 41 / 7, rel=1e-12)
    assert scale == pytest.approx(math.sqrt(10_000 * math.log(10_000)), rel=1e-12)
    center, scale = normalization(0.5, 10_000)
    assert center == 0.0
    assert scale == pytest.approx(1e8, rel=1e-12)
    center, scale = normalization(1.0, 100, samples=np.array([1.0, 2.0, 9.0]))
    assert center == 2.0 and scale == 100.0
    center, scale = normalization(1.7, 1000, v=0.25)
    assert center == pytest.approx(4000.0)
    assert scale == pytest.approx(1000 ** (1 / 1.7), rel=1e-12)


def test_normalization_rejects_clt_regime():
    with pytest.raises(NumericalError, match="CLT"):
        normalization(3.0, 100, v=0.5)


def test_normalization_requires_inputs():
    with pytest.raises(ModelError):
        normalization(1.0, 100)
    with pytest.raises(ModelError):
        normalization(1.5, 100)


def _fake_t_report(kappa, b, z, shift=0.0, v=None):
    return limitlaws.LimitCheckReport(
        side="T", regime=limitlaws.regime_name(kappa), kappa=kappa, b=b, ks=0.0,
        ks_threshold=0.05, passed=True, censored_fraction=0.0,
        normalized=np.sort(z), fitted_cdf=np.linspace(0, 1, len(z)), shift=shift, v=v,
    )


def test_transfer_gaussian_synthetic_round_trip():
    kappa, b_t, v, n = 2.0, 1.4, 0.25, 10_000
    for shift_t in (0.0, -0.3):
        rng = derive_rng(4, 0)
        s = rng.normal(shift_t, math.sqrt(2 * b_t), 4000)  # T-side limit draws
        xs = n * v - v ** (1.0 + 1.0 / kappa) * math.sqrt(n * math.log(n)) * s
        t_rep = _fake_t_report(kappa, b_t, s, shift=shift_t, v=v)
        rep = limitlaws.transfer_T_to_X(t_rep, xs, n)
        assert rep.ks < 0.05
        assert rep.b == pytest.approx(b_t * v**3, rel=1e-12)
        assert rep.shift == pytest.approx(-(v**1.5) * shift_t, abs=1e-15)
    # the transferred shift is what makes the shifted law fit
    unshifted = limitlaws.transfer_T_to_X(_fake_t_report(kappa, b_t, s, v=v), xs, n)
    assert unshifted.ks > 0.05 > rep.ks


def test_transfer_mid_regime_synthetic():
    kappa, b_t, v, n = 1.5, 0.9, 0.3, 10_000
    s = levy_stable.rvs(kappa, 1.0, loc=0.0, scale=b_t ** (1 / kappa), size=4000,
                        random_state=np.random.default_rng(7))
    xs = n * v - v ** (1.0 + 1.0 / kappa) * n ** (1.0 / kappa) * s
    rep = limitlaws.transfer_T_to_X(_fake_t_report(kappa, b_t, s, v=v), xs, n)
    assert rep.ks < 0.05
    assert rep.b == pytest.approx(b_t * v ** (kappa + 1.0), rel=1e-12)
    assert rep.shift == 0.0


def test_transfer_heavy_regime_synthetic():
    kappa, b_t, n = 0.6, 1.2, 10_000
    s = levy_stable.rvs(kappa, 1.0, loc=0.0, scale=b_t ** (1 / kappa), size=4000,
                        random_state=np.random.default_rng(8))
    xs = n**kappa * s ** (-kappa)  # inverse-power transform of the T-side law
    rep = limitlaws.transfer_T_to_X(_fake_t_report(kappa, b_t, s), xs, n)
    assert rep.ks < 0.05
    assert rep.b == b_t


def test_limit_check_T_smoke_sub_ballistic():
    rep = limitlaws.limit_check_T(chains.nonarith_sub1(), 400, 1200, seed=6)
    assert rep.regime == "(0,1)"
    assert rep.censored_fraction == 0.0
    assert rep.ks < 0.08
    assert rep.shift == 0.0
    assert np.all(np.diff(rep.normalized) >= 0)
    assert rep.passed is not None


def test_limit_check_warns_on_arithmetic_model():
    with pytest.warns(RuntimeWarning, match="arithmetic"):
        limitlaws.limit_check_T(chains.chain_mk_k2(), 50, 1100, seed=7)


def test_child_seed_streams_are_distinct():
    assert limitlaws.child_seed(1, 1) != limitlaws.child_seed(1, 2)
    assert limitlaws.child_seed(1, 1) == limitlaws.child_seed(1, 1)


@pytest.mark.filterwarnings("ignore:model is arithmetic")
def test_limit_check_X_index_one_solves_no_speed(monkeypatch):
    # the index-one schedules never read the speed
    from rwre import speed
    calls = []
    solve = speed.compute_speed
    monkeypatch.setattr(speed, "compute_speed", lambda *a, **k: calls.append(a) or solve(*a, **k))
    rep = limitlaws.limit_check_X(chains.chain_mk_k1(), 200, 1000, seed=3)
    assert rep.regime == "{1}" and rep.side == "X"
    assert calls == []


def _array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def test_limit_check_mid_regime_golden():
    # (1,2) on a non-arithmetic chain: the n / v centring and n**(1/kappa)
    # scale on the T side, and the transfer of b * v**(kappa + 1) to X
    spec = chains.nonarith_k15()
    t_rep = limitlaws.limit_check_T(spec, 1000, 1000, limitlaws.child_seed(3, 1))
    x_rep = limitlaws.limit_check_X(spec, 1000, 1000, seed=3)
    pinned = [
        ("T", 33.309758829116426, 0.05540988934703672, "520dea71fb82efb1", "36534eb2ed79ff7d"),
        ("X", 0.4097463283708782, 0.12382599799153682, "4b6b1420ae74a52d", "fd83966cb899e059"),
    ]
    for rep, (side, b, ks, z_digest, cdf_digest) in zip((t_rep, x_rep), pinned):
        assert (rep.side, rep.regime, rep.kappa) == (side, "(1,2)", 1.5000000000000004)
        assert (rep.b, rep.ks, rep.shift) == (b, ks, 0.0)
        assert _array_digest(rep.normalized) == z_digest
        assert _array_digest(rep.fitted_cdf) == cdf_digest


@pytest.mark.parametrize("check", [limitlaws.limit_check_T, limitlaws.limit_check_X])
@pytest.mark.parametrize("n, replicas, message", [
    (1, 1000, "needs n >= 2, got 1"),
    (0, 1000, "needs n >= 2, got 0"),
    (10, 999, "needs at least 1000 replicas, got 999"),
])
def test_limit_checks_reject_small_runs(check, n, replicas, message):
    with pytest.raises(ModelError, match=message):
        check(chains.nonarith_k2(), n, replicas, seed=1)
