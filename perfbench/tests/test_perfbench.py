"""Tests of the benchmark itself: span arithmetic, metric names, the fixed
form of BENCHMARK.json, and that every output check rejects a perturbed
output.  Run with ``python -m pytest perfbench/tests`` from the repo root."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks as C  # noqa: E402
import tracer as T  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- spans ----------------------------------------------------------------


def span(i, parent, cpu0, cpu1, name="x", tag=""):
    return T.Span(i, name, parent, tag, cpu0, 0.0, cpu1, 0.0)


def test_self_time_subtracts_direct_children_only():
    # root 0..10 has children 1..4 and 5..6; 1..4 has a child 2..3.
    spans = [span(0, None, 0, 10), span(1, 0, 1, 4), span(2, 1, 2, 3), span(3, 0, 5, 6)]
    assert T.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(T.self_times(spans)) == pytest.approx(spans[0].cpu)


def test_layer_metrics_split_stiff_and_divide_by_work():
    spans = [
        span(0, None, 0.0, 3.0, "spectral.solve_kappa", "stiff"),
        span(1, None, 3.0, 3.002, "spectral.solve_kappa", "easy"),
        span(2, None, 3.002, 3.006, "spectral.solve_kappa", "easy"),
        span(3, None, 4.0, 5.0, "walksim.run_to_hit"),
    ]
    spans[3].work = 1e6
    got = T.layer_metrics(spans, T.Counter())
    assert got["spectral.solve_kappa.stiff_s"][0] == pytest.approx(3.0)
    assert got["spectral.solve_kappa.easy_ms"][0] == pytest.approx(3.0)
    assert got["walksim.run_to_hit.ns_per_step"][0] == pytest.approx(1000.0)
    assert got["walksim.run_to_hit.steps"][0] == 1_000_000
    assert got["limitlaws.stable_cdf.us"][0] == 0.0


def test_tracer_records_only_while_active_and_uninstalls():
    import rwre.envmodel as envmodel
    import rwre.spectral as spectral

    original = envmodel.stationary_distribution
    tr = T.Tracer()
    T.install_rwre(tr)
    try:
        assert spectral.stationary_distribution is not original
        H = np.array([[0.9, 0.1], [0.775, 0.225]])
        envmodel.stationary_distribution(H)
        assert tr.counts["envmodel.stationary_distribution.calls"] == 0
        tr.active = True
        envmodel.stationary_distribution(H)
        assert tr.counts["envmodel.stationary_distribution.calls"] == 1
    finally:
        tr.uninstall()
    assert spectral.stationary_distribution is original
    assert envmodel.stationary_distribution is original


# -- names and BENCHMARK.json -----------------------------------------------


def test_metric_names_follow_the_grammar():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and name[0].isalnum(), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_per_layer_list_matches_what_the_tracer_reports():
    produced = dict(T.layer_metrics([], T.Counter()))
    produced.update({"setup.import_s": (0, "s"), "setup.warmup_s": (0, "s"),
                     "trace.overhead_s": (0, "s")})
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert listed == {k: u for k, (_, u) in produced.items()}


def test_benchmark_json_has_its_fixed_form():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == [
        "limit-check", "walk-branching", "kappa-tails"]
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert list(e2e) == ["cpu_s", "setup_s", "peak_rss_mb"]
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] == "lower"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# -- each check rejects a perturbed output ------------------------------------

MK2_H = np.array([[0.9, 0.1], [0.775, 0.225]])
MK2_RHO = np.array([0.5, 2.0])


def test_kappa_check_rejects_kappa_off_by_1e8():
    assert C.check_kappa(MK2_H, MK2_RHO, 2.0, exact=2.0)["kappa"] == 2.0
    with pytest.raises(C.CheckFailed):
        C.check_kappa(MK2_H, MK2_RHO, 2.0 + 1e-8, exact=2.0)
    with pytest.raises(C.CheckFailed):  # the root at zero is not kappa
        C.check_kappa(MK2_H, MK2_RHO, 1e-14)


def test_kappa_reference_matches_closed_form():
    assert C.kappa_reference(MK2_H, MK2_RHO) == pytest.approx(2.0, abs=1e-12)


def test_speed_and_drift_checks_reject_perturbations():
    pi = C.stationary(MK2_H)
    assert pi == pytest.approx([31 / 35, 4 / 35])
    C.check_speed(2.0, 7 / 41, exact=7 / 41)
    with pytest.raises(C.CheckFailed):
        C.check_speed(2.0, 7 / 41 + 1e-9, exact=7 / 41)
    with pytest.raises(C.CheckFailed):
        C.check_speed(0.9, 0.1)
    drift = float(pi @ np.log(MK2_RHO))
    C.check_drift(MK2_H, MK2_RHO, float(f"{drift:.6g}"))
    with pytest.raises(C.CheckFailed):
        C.check_drift(MK2_H, MK2_RHO, float(f"{drift:.6g}") * (1 + 1e-4))


def test_walk_check_rejects_a_hitting_time_off_by_one():
    n = 1000
    T_ = 1000 + 2 * np.arange(200)
    C.check_integer_walk(T_, np.zeros(200), n, hitting=True)
    bad = T_.copy()
    bad[17] += 1
    with pytest.raises(C.CheckFailed):
        C.check_integer_walk(bad, np.zeros(200), n, hitting=True)
    with pytest.raises(C.CheckFailed):
        C.check_integer_walk(T_ - 2, np.zeros(200), n, hitting=True)
    X = np.array([-4, 0, 1000, 998])
    C.check_integer_walk(X, np.zeros(4), n, hitting=False)
    with pytest.raises(C.CheckFailed):
        C.check_integer_walk(np.array([1002, 0]), np.zeros(2), n, hitting=False)


def _gauss_side(shift=-0.15, b=0.87, size=2000):
    z = np.sort(np.random.default_rng(3).normal(shift, math.sqrt(2 * b), size))
    F = stats.norm.cdf(z, loc=shift, scale=math.sqrt(2 * b))
    return {"z": z, "F": F, "b": b, "ks": C.ks_distance(z, F)}


def test_gaussian_cdf_check_rejects_a_column_shifted_by_1e6():
    side = _gauss_side()
    printed = float(f"{-0.15:.4g}")
    assert C.check_gaussian_cdf(side, printed)["cdf_err"] < 1e-12
    with pytest.raises(C.CheckFailed):
        C.check_gaussian_cdf({**side, "F": side["F"] + 1e-6}, printed)
    with pytest.raises(C.CheckFailed):
        C.check_gaussian_cdf(side, -0.1501)


def test_stable_cdf_check_rejects_a_column_shifted_by_1e6():
    kappa, b = 0.668245734726, 1.75
    z = np.sort(np.random.default_rng(4).pareto(kappa, 200) + 0.05)
    dist = stats.levy_stable
    old = dist.parameterization
    dist.parameterization = "S1"
    try:
        F = dist.cdf(z, kappa, 1.0, loc=0.0, scale=b ** (1 / kappa))
    finally:
        dist.parameterization = old
    side = {"z": z, "F": F, "b": b}
    assert C.check_stable_cdf(side, kappa, points=8)["cdf_err"] < 1e-9
    with pytest.raises(C.CheckFailed):
        C.check_stable_cdf({**side, "F": F + 1e-6}, kappa, points=8)


def test_ks_check_rejects_a_misreported_ks():
    side = _gauss_side()
    C.check_ks(side)
    with pytest.raises(C.CheckFailed):
        C.check_ks({**side, "ks": side["ks"] + 1e-6})


def test_block_check_rejects_perturbed_products():
    rng = np.random.default_rng(5)
    states = rng.integers(0, 2, 400)
    pops = rng.integers(1, 5, 400)
    joint = np.array([0, 40, 130, 131, 300])
    pops[joint] = 0
    states[joint] = 0
    rho_path = MK2_RHO[states]
    cz = np.concatenate([[0], np.cumsum(pops)])
    rows = []
    for j in range(len(joint) - 1):
        p = np.cumprod(rho_path[joint[j]:joint[j + 1]])
        rows.append([str(j), str(joint[j + 1] - joint[j]), str(cz[joint[j + 1]] - cz[joint[j]]),
                     f"{p[-1]:.12g}", f"{1 + p[:-1].sum():.12g}"])
    C.check_blocks(rho_path, pops, states, 0, rows)
    bad = [r[:] for r in rows]
    bad[1][3] = f"{float(rows[1][3]) * (1 + 1e-8):.12g}"
    with pytest.raises(C.CheckFailed):
        C.check_blocks(rho_path, pops, states, 0, bad)
    bad = [r[:] for r in rows]
    bad[2][2] = str(int(rows[2][2]) + 1)
    with pytest.raises(C.CheckFailed):
        C.check_blocks(rho_path, pops, states, 0, bad)


def test_mean_and_tail_checks():
    x = np.random.default_rng(6).normal(5.0, 1.0, 10_000)
    C.check_mean(x, 5.0)
    with pytest.raises(C.CheckFailed):
        C.check_mean(x, 5.1)
    C.check_tail_agreement(1.5e-5, 3.9e-6, 1.37e-5, 1.1e-6)
    with pytest.raises(C.CheckFailed):
        C.check_tail_agreement(3.0e-5, 3.9e-6, 1.37e-5, 1.1e-6)
