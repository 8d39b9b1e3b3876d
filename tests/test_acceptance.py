"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single PASS/FAIL line with
the measured quantities.  Every tolerance is pinned here, not computed.
Monte Carlo criteria use fixed seeds, so results are reproducible bit for
bit.

Criterion 10's boundary-index (kappa = 2) parts check the shape of the
hitting-time and position laws with the location of the normal limit
fitted: at this scale the bulk sits about 0.2 normalized units left of the
exact mean ``n / v`` (a ``1 / log n`` gap, see "Known limitations" in the
README).  The centering itself is checked separately, through the exact
identity ``E T_n = n / v``.
"""

import math

import numpy as np
import pytest
from scipy import stats

import chains
from rwre import branching, envmodel, limitlaws, spectral, speed, tails, walksim
from rwre._rng import derive_rng
from rwre.limitlaws import StableParams, stable_cdf


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_tail_index_exactness():
    k1 = spectral.solve_kappa(chains.chain_mk_k1()).kappa
    k2 = spectral.solve_kappa(chains.chain_mk_k2()).kappa
    ok = abs(k1 - 1.0) < 1e-10 and abs(k2 - 2.0) < 1e-10
    assert _verdict("1 tail-index exactness", ok,
                    f"kappa(K1)-1={k1 - 1.0:.2e}, kappa(K2)-2={k2 - 2.0:.2e}")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_independent_rows_embedding():
    worst = 0.0
    for make, root in ((chains.iid_k1, 1.0), (chains.iid_k2, 2.0)):
        spec = make()
        pi = envmodel.stationary_distribution(spec.H)
        for beta in (0.5, 1.0, 2.0, 4.0):
            exact = math.log(float(pi @ spec.rho**beta))
            worst = max(worst, abs(spectral.lyapunov_exponent(spec, beta) - exact))
        kappa = spectral.solve_kappa(spec).kappa
        worst_k = abs(kappa - root)
        assert worst_k < 1e-10
    ok = worst < 1e-12
    assert _verdict("2 independent-rows embedding", ok,
                    f"max |Lambda - log E(rho^beta)| = {worst:.2e}")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_speed_exactness():
    v2 = speed.compute_speed(chains.chain_mk_k2()).v
    vi = speed.compute_speed(chains.iid_k2()).v
    v1 = speed.compute_speed(chains.chain_mk_k1()).v
    ok = abs(v2 - 7 / 41) < 1e-10 and abs(vi - 1 / 9) < 1e-10 and v1 == 0.0
    assert _verdict("3 speed exactness", ok,
                    f"v(K2)-7/41={v2 - 7 / 41:.2e}, v(IID2)-1/9={vi - 1 / 9:.2e}, v(K1)={v1}")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_speed_consistency_triangle():
    spec = chains.chain_mk_k2()
    rep = speed.compute_speed(spec)
    series = tails.sample_perpetuity(spec, 1_000_000, derive_rng(104, 0))
    chk = speed.cross_check(rep, series)

    # reference walks: a walk stops on the step that hits n, so steps is T_n
    hits = [rec.steps for rec in walksim.reference_walks(spec, 10_000, 500, seed=104)]
    ratios = np.array(hits) / 10_000.0
    se_t = ratios.std(ddof=1) / math.sqrt(ratios.size)
    z_tv = abs(ratios.mean() - rep.inverse_speed) / se_t
    z_tr = abs(ratios.mean() - chk.series_estimate) / math.hypot(se_t, chk.std_error)
    ok = chk.consistent and z_tv < 4 and z_tr < 4
    assert _verdict("4 speed consistency triangle", ok,
                    f"z(series)={chk.z_score:.2f}, z(T/n vs 1/v)={z_tv:.2f}, "
                    f"z(T/n vs series)={z_tr:.2f}")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_per_path_identity():
    total = 0
    holds = 0
    for make, n, base in ((chains.chain_mk_k2, 60, 105_000),
                          (chains.chain_mk_k1, 30, 205_000)):
        for rec in walksim.reference_walks(make(), n, 5000, seed=base):
            total += 1
            holds += int(rec.identity_holds)
    ok = total == 10_000 and holds == total
    assert _verdict("5 per-path identity", ok, f"{holds}/{total} records exact")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_block_moment_normalization():
    results = []
    for make, kappa, state, coin, horizon in (
        (chains.chain_mk_k1, 1.0, 1, 0.5, 850_000),
        (chains.chain_mk_k2, 2.0, 1, 0.8, 1_200_000),
    ):
        spec = make()
        rng = derive_rng(106, state)
        states = branching.sample_chain_path(spec, horizon, rng)
        regens = branching.chain_regenerations(states, state, coin, rng)
        blocks = branching.block_products(np.log(spec.rho)[states], regens)
        m = blocks.products**kappa
        n_blocks = len(m)
        se = m.std(ddof=1) / math.sqrt(n_blocks)
        z = abs(m.mean() - 1.0) / se
        results.append((n_blocks, m.mean(), z))
    ok = all(n >= 100_000 and z < 4 for n, _, z in results)
    assert _verdict("6 block moment normalization", ok,
                    "; ".join(f"B={n} mean={mu:.4f} z={z:.2f}" for n, mu, z in results))


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_series_tail_index():
    cases = (
        (chains.chain_mk_k1, 1.0, 4_000_000, 0.002, 107),
        (chains.chain_mk_k2, 2.0, 10_000_000, 0.0001, 11),
        (chains.nonarith_sub1, chains.SUB1_KAPPA, 3_000_000, 0.002, 109),
    )
    details = []
    ok = True
    for make, kappa, n, frac, seed in cases:
        spec = make()
        samples = tails.sample_perpetuity(spec, n, derive_rng(seed, 0))
        hill = tails.hill_estimator(samples, frac).index
        ratio = tails.tail_curve(samples, kappa).top_decade_ratio()
        ok = ok and abs(hill - kappa) < 0.1 and ratio < 10.0
        details.append(f"hill={hill:.3f} (target {kappa:.3f}) ratio={ratio:.2f}")
    assert _verdict("7 series tail index", ok, "; ".join(details))


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_regeneration_structure():
    details = []
    ok = True
    for make, kappa, horizon, frac, seed in (
        (chains.chain_mk_k1, 1.0, 1_500_000, 0.002, 108),
        (chains.chain_mk_k2, 2.0, 1_500_000, 0.005, 118),
    ):
        spec = make()
        rng = derive_rng(seed, 0)
        path = branching.sample_branching(spec, horizon, rng)
        trace = branching.regen_trace(path, rng)
        gaps = np.diff(trace.joint)
        W = trace.joint_blocks[1:].astype(float)

        gmax = int(np.quantile(gaps, 0.999))
        ns = np.arange(1, max(gmax, 3))
        sf = np.array([(gaps > v).mean() for v in ns])
        keep = sf > 0
        slope = np.polyfit(ns[keep], np.log(sf[keep]), 1)[0]

        Wc = W - W.mean()
        lag2 = float((Wc[:-2] * Wc[2:]).sum() / (Wc**2).sum())
        hill = tails.hill_estimator(W[W > 0], frac).index

        this_ok = slope < 0 and abs(lag2) < 4 / math.sqrt(len(W)) and abs(hill - kappa) < 0.15
        ok = ok and this_ok
        details.append(f"slope={slope:.3f} lag2={lag2:.4f} hill={hill:.3f}/{kappa}")
    assert _verdict("8 regeneration structure", ok, "; ".join(details))


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_stable_numerics():
    worst_gauss = 0.0
    b = 1.3
    sd = math.sqrt(2 * b)
    for x in np.linspace(-5 * sd, 5 * sd, 81):
        worst_gauss = max(worst_gauss, abs(
            stable_cdf(StableParams(2.0, b), x) - stats.norm.cdf(x, scale=sd)))
    worst_levy = 0.0
    for x in np.geomspace(0.005, 5e3, 80):
        from scipy.special import erfc
        worst_levy = max(worst_levy, abs(
            stable_cdf(StableParams(0.5, b), x) - erfc(b / math.sqrt(2 * x))))
    ok = worst_gauss < 1e-6 and worst_levy < 1e-6
    assert _verdict("9 stable numerics", ok,
                    f"gauss err={worst_gauss:.2e}, levy err={worst_levy:.2e}")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10a_limit_law_boundary_index_T_side():
    spec = chains.nonarith_k2()
    rep = limitlaws.limit_check_T(spec, 10_000, 2000, seed=1)
    # E T_n = n / v holds exactly, so the self-normalized mean of the
    # normalized sample is asymptotically N(0, 1) (normal domain of attraction)
    z = rep.normalized
    t_mean = z.mean() / (z.std(ddof=1) / math.sqrt(z.size))
    ok = rep.ks < 0.05 and abs(t_mean) < 4
    assert _verdict("10a boundary-index hitting-time law", ok,
                    f"KS={rep.ks:.4f} threshold 0.05, b={rep.b:.3f}, "
                    f"shift={rep.shift:.3f}, centering t={t_mean:.2f}")


def test_criterion_10b_limit_law_boundary_index_X_side():
    spec = chains.nonarith_k2()
    t_rep = limitlaws.limit_check_T(spec, 10_000, 2000, seed=1)
    x_rep = limitlaws.limit_check_X(spec, 10_000, 2000, seed=1, t_report=t_rep)
    ok = x_rep.ks < 0.07
    assert _verdict("10b boundary-index position law", ok,
                    f"KS={x_rep.ks:.4f} threshold 0.07, transferred b={x_rep.b:.4f}, "
                    f"shift={x_rep.shift:.3f}")


def test_criterion_10c_limit_law_sub_ballistic():
    # replica count is free here.  With 12k replicas the median drift is not
    # well below the 10% stability tolerance: it reads 4.2-8.5% on seeds
    # 110-114 (5.2% on seed 110), so this check sits near its bar
    spec = chains.nonarith_sub1()
    kappa = spectral.solve_kappa(spec).kappa
    rep3 = limitlaws.limit_check_T(spec, 1_000, 12_000, seed=110)
    rep4 = limitlaws.limit_check_T(spec, 10_000, 12_000, seed=110)
    hill = tails.hill_estimator(rep4.normalized, 0.05).index
    med3 = float(np.median(rep3.normalized))
    med4 = float(np.median(rep4.normalized))
    drift = abs(med4 / med3 - 1.0)
    ok = abs(hill - kappa) < 0.15 and drift < 0.10
    assert _verdict("10c sub-ballistic scaling", ok,
                    f"hill={hill:.3f} (target {kappa:.3f}), median drift={drift:.2%}")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_branching_walk_equivalence():
    details = []
    ok = True
    for make, seed in ((lambda: chains.single_state(1 / 9), 111),
                       (chains.chain_mk_k2, 112)):
        verdict = branching.branching_vs_walk_check(make(), 100, 10_000, seed=seed)
        ok = ok and not verdict.rejected
        details.append(f"KS={verdict.statistic:.4f} p={verdict.pvalue:.3f}")
    assert _verdict("11 branching/walk equivalence", ok, "; ".join(details))


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_determinism_across_threads(tmp_path):
    from rwre import cli
    model = str((tmp_path / "k2.toml"))
    import shutil
    from pathlib import Path
    shutil.copy(Path(__file__).resolve().parent.parent / "models" / "chain-mk-k2.toml",
                model)
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"out{threads}.csv"
        code = cli.run(["simulate-walk", "--config", model, "--n", "80",
                        "--replicas", "40", "--seed", "9", "--threads",
                        str(threads), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    same_cli = outs[0] == outs[1]
    a = walksim.annealed_hitting_sample(chains.chain_mk_k2(), 200, 500, seed=12)
    b = walksim.annealed_hitting_sample(chains.chain_mk_k2(), 200, 500, seed=12)
    same_blocks = np.array_equal(a.values, b.values)
    ok = same_cli and same_blocks
    assert _verdict("12 determinism", ok,
                    f"cli bytes equal={same_cli}, block engine equal={same_blocks}")
