import hashlib

import numpy as np
import pytest

import chains
from rwre import envmodel, spectral, tails
from rwre._rng import derive_rng
from rwre.errors import ModelError, NumericalError


def _sha(values) -> str:
    text = ",".join(map(repr, np.asarray(values).tolist()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_perpetuity_golden_draws():
    r = tails.sample_perpetuity(chains.chain_mk_k2(), 20000, derive_rng(6, 0))
    assert _sha(r) == "5ac8f771669cb4f3"


def test_perpetuity_golden_across_chunks(monkeypatch):
    # 96-lane chunks: lanes retire over many terms in each of six chunks,
    # and the stream goes on where the last chunk left it.
    monkeypatch.setattr(tails, "_CHUNK", 96)
    rng = derive_rng(8, 0)
    r = tails.sample_perpetuity(chains.chain_mk_k2(), 500, rng)
    assert (r.min(), r.max()) == (1.9999999999990905, 192.5001094341272)
    assert _sha(r) == "1bc0863f5c10e738"
    assert rng.random() == 0.4093643271792127


def test_tilted_sampler_golden_weights():
    # the estimate's mean, standard error and ESS move with any weight
    spec = chains.chain_mk_k2()
    sol = spectral.solve_kappa(spec)
    e = tails.tilted_tail_sampler(spec, sol.kappa, sol.f_kappa, 500.0, 3000, derive_rng(6, 1))
    summary = [e.probability, e.std_error, e.effective_sample_size, e.successes]
    assert _sha(summary) == "6482a738158323ef"


@pytest.mark.parametrize("tilted, threshold, digest, next_uniform", [
    # the kappa twist: every lane hits, after a varying number of terms
    (True, 500.0, "406b8b1490768259", 0.10889135706923048),
    # no twist: 24 lanes hit, the rest retire on the running product
    (False, 10.0, "ebd805837b5daf56", 0.9502598999194979),
])
def test_tilted_sampler_golden_across_chunks(monkeypatch, tilted, threshold, digest,
                                             next_uniform):
    monkeypatch.setattr(tails, "_CHUNK", 96)
    spec = chains.chain_mk_k2()
    sol = spectral.solve_kappa(spec)
    kappa, f = (sol.kappa, sol.f_kappa) if tilted else (0.0, np.ones(2))
    rng = derive_rng(8, 1)
    e = tails.tilted_tail_sampler(spec, kappa, f, threshold, 500, rng)
    summary = [e.probability, e.std_error, e.effective_sample_size, e.successes]
    assert _sha(summary) == digest
    assert rng.random() == next_uniform


def test_perpetuity_single_state_geometric_sum():
    vals = tails.sample_perpetuity(chains.single_state(0.5), 8, derive_rng(0, 0))
    assert np.max(np.abs(vals - 2.0)) < 4e-12
    c = 0.8
    vals = tails.sample_perpetuity(chains.single_state(c), 8, derive_rng(0, 0))
    assert np.max(np.abs(vals - 1.0 / (1.0 - c))) < 1e-11


def test_perpetuity_k2_mean_matches_speed_formula():
    vals = tails.sample_perpetuity(chains.chain_mk_k2(), 200_000, derive_rng(1, 0))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 24 / 7) < 4 * se


def test_perpetuity_monotone_in_tolerance():
    spec = chains.chain_mk_k2()
    small = tails.sample_perpetuity(spec, 1, derive_rng(2, 0), tol=1e-12)[0]
    large = tails.sample_perpetuity(spec, 1, derive_rng(2, 0), tol=1e-7)[0]
    assert large <= small
    assert small - large < 1e-6


def test_perpetuity_tolerance_bounds():
    with pytest.raises(ModelError):
        tails.sample_perpetuity(chains.chain_mk_k2(), 4, derive_rng(0, 0), tol=1e-3)


def test_perpetuity_replica_count():
    with pytest.raises(ModelError):
        tails.sample_perpetuity(chains.chain_mk_k2(), -1, derive_rng(0, 0))
    assert tails.sample_perpetuity(chains.chain_mk_k2(), 0, derive_rng(0, 0)).shape == (0,)


def test_perpetuity_hill_insensitive_to_tolerance_doubling():
    spec = chains.chain_mk_k2()
    a = tails.sample_perpetuity(spec, 300_000, derive_rng(3, 0), tol=1e-12)
    b = tails.sample_perpetuity(spec, 300_000, derive_rng(3, 0), tol=2e-12)
    ha = tails.hill_estimator(a, 0.005).index
    hb = tails.hill_estimator(b, 0.005).index
    assert abs(ha - hb) < 0.02


def test_hill_pareto_synthetic_oracles():
    rng = derive_rng(4, 0)
    x2 = rng.random(1_000_000) ** (-1.0 / 2.0)
    est = tails.hill_estimator(x2, 0.01)
    assert abs(est.index - 2.0) < 0.1
    assert est.ci_low < 2.0 < est.ci_high
    x05 = rng.random(1_000_000) ** (-1.0 / 0.5)
    est = tails.hill_estimator(x05, 0.01)
    assert abs(est.index - 0.5) < 0.03


def test_hill_exponential_has_no_plateau():
    rng = derive_rng(5, 0)
    x = rng.exponential(1.0, 400_000)
    shallow = tails.hill_estimator(x, 0.05).index
    deep = tails.hill_estimator(x, 0.005).index
    assert deep / shallow > 1.3  # light tails: estimate drifts upward


def test_hill_rejects_ties_and_small_samples():
    with pytest.raises(ModelError, match="ties"):
        tails.hill_estimator(np.full(5000, 7.0), 0.01)
    with pytest.raises(ModelError):
        tails.hill_estimator(np.arange(1, 100, dtype=float), 0.01)
    with pytest.raises(ModelError):
        tails.hill_estimator(np.arange(1, 5000, dtype=float), 0.5)


def test_loglog_slope_pareto():
    rng = derive_rng(6, 0)
    x = rng.random(500_000) ** (-1.0 / 1.5)
    assert abs(tails.loglog_slope(x, 0.01) - 1.5) < 0.15


def test_tail_curve_pareto_flat_on_top_decade():
    rng = derive_rng(7, 0)
    x = 2.0 * rng.random(1_000_000) ** (-1.0 / 2.0)  # survival (t/2)^-2, scale 2
    curve = tails.tail_curve(x, 2.0)
    assert curve.top_decade_ratio() < 1.6
    hi = curve.thresholds >= curve.thresholds[-1] / 10
    assert np.median(curve.curve[hi]) == pytest.approx(4.0, rel=0.2)


def test_tail_curve_misspecified_index_trends_up():
    rng = derive_rng(8, 0)
    x = rng.random(1_000_000) ** (-1.0 / 2.0)
    curve = tails.tail_curve(x, 3.0)  # one too high: curve grows like t
    assert curve.top_decade_ratio() > 5.0
    assert curve.curve[-1] > curve.curve[0]


def test_tail_curve_needs_tail_mass():
    with pytest.raises(NumericalError):
        tails.tail_curve(np.arange(50, dtype=float), 1.0)


def test_tilted_table_closed_at_top_uniform():
    # Row 1 of the kappa = 1 tilted kernel sums to 1 - 2**-52 after its
    # cumsum, so before the table was closed the top uniform moved to
    # state 2 of 2 and the likelihood-ratio lookup raised IndexError.
    spec = envmodel.EnvironmentSpec(states=("a", "b"),
                                    H=np.array([[0.08, 0.92], [0.64, 0.36]]),
                                    omega=np.array([0.78, 0.52]), epsilon=0.1)
    tilted = spec.H * spec.rho
    tilted /= tilted.sum(axis=1, keepdims=True)
    assert np.cumsum(tilted, axis=1)[1, -1] < chains.TopUniforms.TOP
    # start in state 1; 1 + rho[1] < 2 < 1 + rho[1] + rho[1]**2: one move, then a hit
    est = tails.tilted_tail_sampler(spec, 1.0, np.ones(2), 2.0, 1, chains.TopUniforms())
    assert est.successes == 1
    assert est.probability == pytest.approx(spec.H[1, 1] / tilted[1, 1], rel=1e-15)


def test_tilted_single_state_is_plain_monte_carlo():
    spec = chains.single_state(0.5)
    est = tails.tilted_tail_sampler(spec, 1.0, np.ones(1), 1.5, 2000, derive_rng(9, 0))
    assert est.probability == 1.0  # series is deterministically 2 > 1.5
    est = tails.tilted_tail_sampler(spec, 1.0, np.ones(1), 2.5, 2000, derive_rng(9, 1))
    assert est.probability == 0.0


def test_tilted_matches_plain_below_median():
    spec = chains.chain_mk_k2()
    rep = spectral.solve_kappa(spec)
    samples = tails.sample_perpetuity(spec, 200_000, derive_rng(10, 0))
    thr = float(np.median(samples))
    plain, plain_se = tails.plain_tail_probability(samples, thr)
    tilt = tails.tilted_tail_sampler(spec, rep.kappa, rep.f_kappa, thr, 40_000,
                                     derive_rng(10, 1))
    assert abs(tilt.probability - plain) < 4 * np.hypot(plain_se, tilt.std_error)
    assert not tilt.unreliable


def test_tilted_deep_tail_against_plain_oracle():
    spec = chains.chain_mk_k2()
    rep = spectral.solve_kappa(spec)
    samples = tails.sample_perpetuity(spec, 2_000_000, derive_rng(11, 0))
    thr = float(np.quantile(samples, 1.0 - 2e-4))
    plain, plain_se = tails.plain_tail_probability(samples, thr)
    tilt = tails.tilted_tail_sampler(spec, rep.kappa, rep.f_kappa, thr, 20_000,
                                     derive_rng(11, 1))
    assert tilt.effective_sample_size >= 50
    assert not tilt.unreliable
    assert abs(tilt.probability - plain) < 4 * np.hypot(plain_se, tilt.std_error)
    # the tilted estimator used 1% of the plain sample budget
    assert 20_000 <= samples.size // 100


def test_tail_report_fields():
    spec = chains.chain_mk_k2()
    rep = spectral.solve_kappa(spec)
    samples = tails.sample_perpetuity(spec, 50_000, derive_rng(12, 0))
    report = tails.tail_report(rep.kappa, samples)
    assert set(report.hill) == {0.05, 0.02, 0.01, 0.005}
    assert report.loglog_index > 0


def test_tail_report_equals_the_public_estimators():
    # the report sorts once; each public estimator sorts its own input
    spec = chains.chain_mk_k2()
    samples = tails.sample_perpetuity(spec, 20_000, derive_rng(13, 0))
    report = tails.tail_report(2.0, samples)
    for f, h in report.hill.items():
        assert h == tails.hill_estimator(samples, f)
    assert report.loglog_index == tails.loglog_slope(samples)
    curve = tails.tail_curve(samples, 2.0)
    for field in ("thresholds", "survival", "curve"):
        assert np.array_equal(getattr(report.curve, field), getattr(curve, field))
