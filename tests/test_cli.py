import csv
import hashlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwre import cli, limitlaws, walksim

MODELS = Path(__file__).resolve().parent.parent / "models"
K2 = str(MODELS / "chain-mk-k2.toml")
SUB1 = str(MODELS / "nonarith-sub1.toml")
NONARITH_K2 = str(MODELS / "nonarith-k2.toml")


def run_cli(*argv):
    return cli.run([str(a) for a in argv])


def _sha256(path) -> str:
    """Golden CSV digests: the draw order and the formatting are pinned."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_writer_file(path, header, rows, conf_hash, seed):
    """The reference for the CLI's CSV writers: ``csv.writer`` rows and the
    metadata comment."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
        fh.write(f"# config_hash={conf_hash} seed={seed}\n")


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half of the CLI's import time and memory, and
    # only the branching-versus-walk check reads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rwre.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_validate_ok(capsys):
    assert run_cli("validate", "--config", K2) == 0
    out = capsys.readouterr().out
    assert "irreducible:        True" in out
    assert "drift" in out and "OK" in out


def test_validate_reducible_model_fails(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('states = ["a", "b"]\nepsilon = "0.05"\n'
                   'H = [["1", "0"], ["0", "1"]]\nomega = ["0.4", "0.6"]\n')
    assert run_cli("validate", "--config", bad) == 1
    assert "reducible" in capsys.readouterr().out


def test_model_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('states = ["a", "b"]\nepsilon = "0.05"\n'
                   'H = [["0.7", "0.2"], ["0.5", "0.5"]]\nomega = ["0.4", "0.6"]\n')
    assert run_cli("validate", "--config", bad) == 1
    assert "row 0" in capsys.readouterr().err


def test_missing_model_file_is_clean_model_error(capsys):
    assert run_cli("validate", "--config", "/no/such/model.toml") == 1
    assert "cannot read model file" in capsys.readouterr().err


def test_light_tailed_kappa_exits_2(tmp_path, capsys):
    light = tmp_path / "light.toml"
    light.write_text('states = ["only"]\nepsilon = "0.05"\nH = [["1"]]\nomega = ["2/3"]\n')
    assert run_cli("kappa", "--config", light) == 2
    assert "light-tailed" in capsys.readouterr().err


def test_kappa_below_probe_grid(tmp_path, capsys):
    # kappa = 0.0012874 lies below the 2**-6 .. 2**6 probe grid
    slow = tmp_path / "slow.toml"
    slow.write_text('states = ["a", "b"]\nepsilon = "0.05"\n'
                    'H = [["0.999", "0.001"], ["0.001", "0.999"]]\nomega = ["0.7", "0.4"]\n')
    assert run_cli("kappa", "--config", slow) == 0
    assert "kappa = 0.001287368268" in capsys.readouterr().out
    assert run_cli("speed", "--config", slow) == 0
    assert "kappa = 0.001287368268" in capsys.readouterr().out
    assert run_cli("validate", "--config", slow) == 0
    out = capsys.readouterr().out
    assert "negative at beta=0.0009765625, nonnegative at beta=0.001953125" in out
    assert out.splitlines()[-1] == "OK"


def test_kappa_when_the_probe_grid_overflows(tmp_path, capsys):
    # odds up to 99999: rho**64 overflows on the grid's top point, whose
    # Lambda is then evaluated with the tilt shifted; kappa lies in (1/32, 1/16)
    stiff = tmp_path / "stiff.toml"
    stiff.write_text('states = ["a", "b"]\nepsilon = "1e-6"\n'
                     'H = [["0.99", "0.01"], ["0.5", "0.5"]]\nomega = ["0.9", "1e-5"]\n')
    assert run_cli("validate", "--config", stiff) == 0
    assert "nonnegative at beta=0.0625" in capsys.readouterr().out
    assert run_cli("kappa", "--config", stiff, "--out", tmp_path / "k.csv") == 0
    assert run_cli("speed", "--config", stiff) == 0
    kappas = [float(k) for k in re.findall(r"^kappa = (\S+)$", capsys.readouterr().out, re.M)]
    assert len(kappas) == 2 and all(1 / 32 < k < 1 / 16 for k in kappas)
    beta, lam, radius = (tmp_path / "k.csv").read_text().splitlines()[-2].split(",")
    assert (beta, radius) == ("64", "inf")  # Lambda = 736.13 lies past log(DBL_MAX)
    assert 64 * np.log(99999.0) + np.log(0.5) - 1e-6 < float(lam) < 64 * np.log(99999.0)


def test_kappa_and_speed_when_regeneration_margin_below_resolution(tmp_path, capsys):
    # near-periodic 3-cycle, leakage 1e-6: the margin only warns
    e = 1e-6
    H = (1.0 - e) * np.roll(np.eye(3), 1, axis=1) + e / 3.0
    rows = ", ".join("[" + ", ".join(repr(float(x)) for x in r) + "]" for r in H)
    cycle = tmp_path / "cycle.toml"
    cycle.write_text(f'states = ["a", "b", "c"]\nepsilon = "0.05"\nH = [{rows}]\n'
                     'omega = ["0.75", "0.75", "0.40625"]\n')
    for command in ("kappa", "speed"):
        with pytest.warns(RuntimeWarning, match="coin too weak"):
            assert run_cli(command, "--config", cycle) == 0
        assert "kappa = 39.300476201" in capsys.readouterr().out


def test_every_flag_is_read():
    # --threads is accepted for old scripts and ignored (see the README)
    unread = {"help", "threads"}
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    missing = [(name, action.option_strings[0])
               for name, parser in sub.choices.items()
               for action in parser._actions
               if action.dest not in unread
               and f"args.{action.dest}" not in inspect.getsource(cli._COMMANDS[name])]
    assert missing == []


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as err:
        run_cli("kappa", "--config", K2, "--bogus")
    assert err.value.code == 64


def test_kappa_prints_value_and_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run_cli("kappa", "--config", K2, "--out", out) == 0
    assert "kappa = 2.000000000000" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,lambda,radius"
    assert lines[-1].startswith("# config_hash=")
    assert len(lines) == 15  # header + 13 grid rows + metadata comment


def test_speed_with_cross_check(tmp_path, capsys):
    from rwre import tails
    from rwre._rng import derive_rng
    import chains
    samples = tails.sample_perpetuity(chains.chain_mk_k2(), 50_000, derive_rng(1, 0))
    sfile = tmp_path / "r.txt"
    np.savetxt(sfile, samples)
    assert run_cli("speed", "--config", K2, "--r-samples", sfile) == 0
    out = capsys.readouterr().out
    assert "speed = 0.170731707317" in out
    assert "consistent" in out


def test_speed_reads_tails_dump(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run_cli("tails", "--config", K2, "--samples", 50_000, "--seed", 1,
                   "--dump", "--out", out) == 0
    assert run_cli("speed", "--config", K2, "--r-samples", f"{out}.samples.csv") == 0
    assert "-> consistent" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, "value\r\n1.5\r\nabc\r\n", "", "value\r\n2.5\r\n",
                                     "value\r\n1.5\r\nnan\r\n", "value\r\n1.5\r\ninf\r\n",
                                     "value\r\n1.5\r\n-3\r\n"])
def test_speed_unreadable_samples_exit_1(tmp_path, capsys, recwarn, content):
    # a missing file, a bad value, no values, one value, and values no series
    # draw takes (NaN, infinity, below 1): rejected before the report
    sfile = tmp_path / "r.csv"
    if content is not None:
        sfile.write_bytes(content.encode())
    assert run_cli("speed", "--config", K2, "--r-samples", sfile) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "model error: cannot read series samples" in err
    assert not recwarn.list


def test_speed_zero_regime(capsys):
    assert run_cli("speed", "--config", str(MODELS / "chain-mk-k1.toml")) == 0
    assert "speed = 0" in capsys.readouterr().out


def test_simulate_walk_csv_schema_and_censoring(tmp_path):
    out = tmp_path / "walk.csv"
    code = run_cli("simulate-walk", "--config", K2, "--n", 40, "--replicas", 20,
                   "--seed", 3, "--step-cap", 25, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "replica,hitting_time,steps,censored"
    body = [l.split(",") for l in lines[1:-1]]
    assert len(body) == 20
    assert any(row[3] == "1" for row in body)  # cap 25 < typical T_40: censored rows kept
    assert lines[-1].startswith("# config_hash=")
    assert _sha256(out) == "b0d5cdfba67e7427e529e0f803cbaf13971b172200686e0b9f343f5f6f0b8495"


def test_simulate_walk_thread_count_invariance(tmp_path):
    outs = []
    for threads in (1, 8):
        path = tmp_path / f"walk{threads}.csv"
        run_cli("simulate-walk", "--config", K2, "--n", 60, "--replicas", 30,
                "--seed", 5, "--threads", threads, "--out", path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == (
        "a0d4ca359b6a2c6abf536c3e165d136dec25c95946936306f82aea9288bef824")


def test_simulate_walk_lockstep_batches_golden(tmp_path, monkeypatch):
    # a budget of 330 lanes runs 700 replicas at n = 300 as lockstep batches
    # of 233, 233 and 234, each on its own stream; the seed spans three
    # 32-bit words
    monkeypatch.setattr(walksim, "_WINDOW_BYTES", 330 * (300 + 2 * 64 + 8 * 64))
    widths, batch = [], walksim._hitting_batch

    def spy(spec, n, buf, step_cap, rng):
        widths.append(buf.shape[1])
        return batch(spec, n, buf, step_cap, rng)

    monkeypatch.setattr(walksim, "_hitting_batch", spy)
    out = tmp_path / "walk.csv"
    assert run_cli("simulate-walk", "--config", K2, "--n", 300, "--replicas", 700,
                   "--seed", 2**64 + 5, "--out", out) == 0
    assert widths == [233, 233, 234]
    assert _sha256(out) == "0f6d9346d0e05e5e4d25ded679fc9304ccfd06f48bd4483be73dd48fec0803ea"


@pytest.mark.parametrize("argv", [
    ("simulate-walk", "--config", K2, "--n", 10, "--replicas", 3),
    ("simulate-branching", "--config", K2, "--n", 100),
    ("tails", "--config", K2, "--samples", 100),
    ("limit-check", "--config", K2, "--n", 10, "--replicas", 3),
])
def test_negative_seed_is_model_error(argv, capsys):
    assert run_cli(*argv, "--seed", -1) == cli.EXIT_MODEL
    assert "model error: stream seed and keys must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("n,replicas,message", [
    (10, -3, "replicas must be nonnegative"),
    (0, 3, "target site must be >= 1, got 0"),
])
def test_simulate_walk_bad_counts_are_model_errors(n, replicas, message, capsys):
    assert run_cli("simulate-walk", "--config", K2, "--n", n, "--replicas", replicas) == (
        cli.EXIT_MODEL)
    assert f"model error: {message}" in capsys.readouterr().err


def test_simulate_walk_negative_step_cap_is_a_model_error(capsys):
    # a censored walk's steps read the cap, which a negative cap cannot give
    assert run_cli("simulate-walk", "--config", K2, "--n", 5, "--replicas", 4,
                   "--step-cap", -3) == cli.EXIT_MODEL
    assert capsys.readouterr().err == "model error: step cap must be nonnegative, got -3\n"


@pytest.mark.parametrize("argv, out, blocked", [
    (("kappa", "--config", K2), "missing/x.csv", "missing/x.csv"),
    (("tails", "--config", K2, "--samples", 2000, "--dump"), "x.csv", "x.csv.samples.csv"),
])
def test_unwritable_out_is_a_model_error(tmp_path, capsys, argv, out, blocked):
    # no directory for the CSV, or a directory where the dump goes
    (tmp_path / "x.csv.samples.csv").mkdir()
    assert run_cli(*argv, "--out", tmp_path / out) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"model error: cannot write {tmp_path / blocked}: ") and err.count("\n") == 1


def test_simulate_branching_csv(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    assert run_cli("simulate-branching", "--config", K2, "--n", 5000,
                   "--seed", 2, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "block,gap,population,odds_product,prefix_load"
    assert len(lines) > 100
    assert _sha256(out) == "a9198e4b910e88f61bb0609d37fbc25c4714041ea3a27e89e33f224ac497d95d"


def test_tails_report_and_dump(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_cli("tails", "--config", K2, "--samples", 20_000, "--seed", 4,
                   "--threshold", 30, "--dump", "--out", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "hill(top" in text and "P(series > 30)" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "threshold,survival,scaled_survival"
    dump = Path(str(out) + ".samples.csv").read_text().splitlines()
    assert dump[0] == "value" and len(dump) == 20_002
    # the same bytes as csv.writer rows of the same samples (%.17g round-trips)
    samples = [float(v) for v in dump[1:-1]]
    rendered = tmp_path / "rendered.csv"
    _csv_writer_file(rendered, ["value"], [(f"{v:.17g}",) for v in samples],
                     dump[-1].split("=")[1].split()[0], 4)
    assert Path(str(out) + ".samples.csv").read_bytes() == rendered.read_bytes()


def test_samples_writer_matches_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_DUMP_CHUNK", 3)  # chunks end mid-array
    values = np.array([0.1, -2.5e-300, 5e-324, 1e300, np.inf, 3.0, 1 / 3, 2.0**60])
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _csv_writer_file(want, ["value"], [(f"{v:.17g}",) for v in values], "abc", 9)
    cli._write_samples(got, values, "abc", 9)
    assert got.read_bytes() == want.read_bytes()


def test_csv_writer_quotes_every_regime_as_csv_writer_does(tmp_path):
    # limit-check's rows: string columns, one of them a regime name that may
    # hold a comma, and floats; an int column as simulate-walk writes it
    regimes = ["(0,1)", "{1}", "(1,2)", "{2}", ""]
    columns = [["T", "X", "T", "X", "T"], ["summary"] * 4 + ["sample"],
               [1.5, -2.25e-300, np.inf, 1 / 3, 7.0], [0.1, 0.2, 0.3, np.nan, 5e-324],
               regimes, list(range(5))]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _csv_writer_file(want, ["side", "record", "x", "y", "regime", "i"],
                     [(a, b, f"{x:.10g}", f"{y:.10g}", r, i) for a, b, x, y, r, i in zip(*columns)],
                     "abc", 9)
    cli._write_csv(got, ["side", "record", "x", "y", "regime", "i"], "%s,%s,%.10g,%.10g,%s,%d",
                   columns, "abc", 9)
    assert got.read_bytes() == want.read_bytes()
    assert b',"(0,1)",' in got.read_bytes()
    cli._write_csv(got, ["block"], "%d", [[]], "abc", 9)  # no rows: header and comment
    _csv_writer_file(want, ["block"], [], "abc", 9)
    assert got.read_bytes() == want.read_bytes()


def test_tails_dump_without_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("tails", "--config", K2, "--samples", 1000, "--dump")
    assert err.value.code == 64
    assert "--out" in capsys.readouterr().err


def _dump_matches_percent_operator(path, values):
    """``_write_samples`` rows equal ``"%.17g" % v``, value by value."""
    cli._write_samples(path, values, "abc", 9)
    rows = path.read_bytes().split(b"\r\n")
    assert rows[0] == b"value" and rows[-1] == b"# config_hash=abc seed=9\n"
    assert len(rows) == len(values) + 2
    for v, row in zip(values.tolist(), rows[1:-1]):
        assert row == ("%.17g" % v).encode(), v


CHUNKS = pytest.mark.parametrize("chunk", [3, cli._DUMP_CHUNK])


@CHUNKS
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.one_of(st.floats(), st.floats(1.0, 1e16)), max_size=20))
def test_samples_writer_oracle_any_double(tmp_path, monkeypatch, chunk, values):
    # st.floats() draws negatives, subnormals, +-0.0, inf, nan and values >= 1e16
    monkeypatch.setattr(cli, "_DUMP_CHUNK", chunk)
    _dump_matches_percent_operator(tmp_path / "dump.csv", np.array(values, dtype=float))


@CHUNKS
def test_samples_writer_oracle_ties_and_decades(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_DUMP_CHUNK", chunk)
    j = np.arange(17)
    values = np.concatenate([
        1 + np.arange(2**14) / 2**17,  # odd j: halfway between two 17-digit decimals
        10.0**j, np.nextafter(10.0**j, 0), [9999999999999998.0, 1e16],
    ])
    _dump_matches_percent_operator(tmp_path / "dump.csv", values)


def test_samples_writer_oracle_full_dump(tmp_path):
    from rwre import tails
    from rwre._rng import derive_rng
    import chains
    values = tails.sample_perpetuity(chains.chain_mk_k2(), 10**6, derive_rng(0, 0))
    _dump_matches_percent_operator(tmp_path / "dump.csv", values)


def test_limit_check_summary_rows(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    assert run_cli("limit-check", "--config", SUB1, "--n", 300, "--replicas", 1200,
                   "--seed", 6, "--side", "T", "--out", out) == 0
    text = capsys.readouterr().out
    assert "T-side regime (0,1)" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "side,record,x_or_b,cdf_or_ks,regime"
    assert lines[-2].startswith("T,summary,")
    assert lines[-1].startswith("# config_hash=")


# sha256 of `limit-check --n 1000 --replicas 1000 --side both` by (model, seed),
# kept out of the test ids so that a re-pin renames no test
LIMIT_CHECK_GOLDEN = {
    ("nonarith-sub1", 3): "9ddd2da1168f7e7f668abf2606e24397fe64f2f76d2006a925cb7349568de0ff",
    # index one: fit_b runs on both sides
    ("chain-mk-k1", 7): "fc2cd1652e1ec6546f4d8e5ac6d7977e7fb1384f7468dde97a73a291e11c9864",
    # boundary index: the jointly fitted shift on T, its transfer to X
    ("nonarith-k2", 3): "218ca2a90927894fd917a3892c177378fc174b6a517304563c4d456db81365d1",
}


@pytest.mark.parametrize("model, seed", list(LIMIT_CHECK_GOLDEN))
def test_limit_check_csv_golden(model, seed, tmp_path):
    out = tmp_path / "limit.csv"
    assert run_cli("limit-check", "--config", MODELS / f"{model}.toml", "--n", 1000,
                   "--replicas", 1000, "--side", "both", "--seed", seed, "--out", out) == 0
    assert _sha256(out) == LIMIT_CHECK_GOLDEN[model, seed]


def _perfbench_checks():
    """``perfbench/checks.py``, loaded by path without importing the harness."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", MODELS.parent / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("model, regime", [
    ("nonarith-sub1", "(0,1)"), ("chain-mk-k1", "{1}"), ("nonarith-k2", "{2}"),
])
def test_limit_check_summary_line_parses(model, regime, capsys):
    # the benchmark reads each side's verdict off the summary line
    assert run_cli("limit-check", "--config", MODELS / f"{model}.toml", "--n", 100,
                   "--replicas", 1000, "--side", "both", "--seed", 1) == 0
    out = capsys.readouterr().out
    assert out.count(f"-side regime {regime}: b = ") == 2
    verdicts = _perfbench_checks().verdicts(out)
    assert set(verdicts) == {"T", "X"}
    if regime == "{1}":
        assert verdicts == {"T": "n/a", "X": "n/a"}
    else:
        assert set(verdicts.values()) <= {"pass", "FAIL"}


def test_limit_check_boundary_index_reports_shift(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    assert run_cli("limit-check", "--config", NONARITH_K2, "--n", 300, "--replicas",
                   1200, "--seed", 6, "--side", "T", "--out", out) == 0
    text = capsys.readouterr().out
    assert "T-side regime {2}: b = " in text and ", shift = " in text
    lines = out.read_text().splitlines()
    assert lines[0] == "side,record,x_or_b,cdf_or_ks,regime"
    assert lines[-2].startswith("T,summary,") and lines[-2].endswith(",{2}")


def test_limit_check_x_side_passes_step_cap(monkeypatch, capsys):
    caps = []
    sampler = walksim.annealed_hitting_sample

    def spy(*args, step_cap=None, **kwargs):
        caps.append(step_cap)
        return sampler(*args, step_cap=step_cap, **kwargs)

    monkeypatch.setattr(walksim, "annealed_hitting_sample", spy)
    assert run_cli("limit-check", "--config", SUB1, "--n", 100, "--replicas", 1200,
                   "--seed", 6, "--side", "X", "--step-cap", 10**7) == 0
    assert caps == [10**7]
    assert "X-side regime (0,1)" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["T", "X", "both"])
def test_limit_check_rejects_step_cap_below_target(monkeypatch, capsys, side):
    # a walk to n takes at least n steps, so a cap below n censors every hitting time
    calls = []
    monkeypatch.setattr(walksim, "annealed_hitting_sample", lambda *a, **k: calls.append(a))
    assert run_cli("limit-check", "--config", NONARITH_K2, "--n", 1000, "--replicas", 1000,
                   "--seed", 3, "--side", side, "--step-cap", 999) == 1
    assert "step cap 999 is below the target n = 1000" in capsys.readouterr().err
    assert calls == []


def test_limit_check_names_the_cap_when_censoring_starves_the_fit(capsys):
    # nonarith-sub1 has tail index ~0.67: a cap of 1e5 at n = 100 censors dozens of 1000
    assert run_cli("limit-check", "--config", SUB1, "--n", 100, "--replicas", 1000,
                   "--seed", 3, "--step-cap", 10**5) == 1
    err = capsys.readouterr().err
    assert re.search(r"step cap 100000 censored [1-9]\d* of 1000 hitting times; "
                     r"the fit needs at least 1000 uncensored", err), err


def test_limit_check_step_cap_enters_config_hash(tmp_path):
    # the cap decides which hitting times are censored, so it is part of the
    # config; 1200 replicas leave the fit its 1000 samples after the few
    # hitting times of the tail (index ~0.67) that a cap of 1e7 censors
    def hash_line(*cap):
        out = tmp_path / "limit.csv"
        assert run_cli("limit-check", "--config", SUB1, "--n", 100, "--replicas", 1200,
                       "--seed", 3, "--out", out, *cap) == 0
        return out.read_text().splitlines()[-1]

    conf = cli._config_hash(SUB1, {"n": 100, "replicas": 1200, "side": "T"})
    plain = f"# config_hash={conf} seed=3"
    assert hash_line() == plain
    capped = {hash_line("--step-cap", cap) for cap in (10**7, 10**8)}
    assert len(capped) == 2 and plain not in capped


def test_limit_check_both_sides_solve_the_speed_once(monkeypatch, capsys):
    # the X side reads the speed off the T report
    calls = []
    solve = limitlaws.speed.compute_speed
    monkeypatch.setattr(limitlaws.speed, "compute_speed",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    assert run_cli("limit-check", "--config", NONARITH_K2, "--n", 100, "--replicas", 1000,
                   "--side", "both", "--seed", 1) == 0
    assert capsys.readouterr().out.count("-side regime {2}: b = ") == 2
    assert len(calls) == 1


def test_traced_round_reads_what_the_tracer_binds(monkeypatch):
    # perfbench's tracer binds parameters by name (n, replicas, n_steps,
    # horizon) and reads result attributes (.steps, .iterations, len()); a
    # rename breaks only a traced benchmark round, so run a small one here
    monkeypatch.syspath_prepend(str(MODELS.parent / "perfbench"))
    import tracer
    from rwre import branching, envmodel

    tr = tracer.Tracer()
    tracer.install_rwre(tr)
    try:
        tr.active = True
        for argv in (("validate", "--config", K2),
                     ("kappa", "--config", K2),
                     ("speed", "--config", K2),
                     ("simulate-walk", "--config", K2, "--n", 30, "--replicas", 60),
                     ("simulate-branching", "--config", K2, "--n", 2000),
                     ("tails", "--config", K2, "--samples", 2000, "--threshold", 50),
                     ("limit-check", "--config", NONARITH_K2, "--n", 100,
                      "--replicas", 1000, "--side", "both")):
            assert run_cli(*argv) == 0
        branching.branching_vs_walk_check(envmodel.load_model(K2), 20, 100, 0)
        tr.active = False
        metrics = tracer.layer_metrics(tr.spans, tr.counts)
    finally:
        tr.uninstall()
    assert all(np.isfinite(value) for value, _ in metrics.values())
    for name in ("walksim.run_to_hit.steps", "branching.block_products.blocks",
                 "spectral.power_iterations"):
        assert metrics[name][0] > 0, name


@pytest.mark.parametrize("config, n, replicas", [
    (NONARITH_K2, 1, 1000),  # sqrt(n log n) = 0: the fit saw NaN
    (str(MODELS / "chain-mk-k1.toml"), 1, 1000),  # n / log(n)**2 divided by zero
    (SUB1, 10, 0),
    (SUB1, 0, 1000),
    (SUB1, -3, 1000),
])
def test_limit_check_rejects_small_runs(config, n, replicas, capsys):
    assert run_cli("limit-check", "--config", config, "--n", n, "--replicas", replicas,
                   "--side", "both") == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: limit check needs") and "Traceback" not in err


def test_log_env_var_does_not_change_outputs(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("kappa", "--config", K2, "--out", a)
    monkeypatch.setenv("RWRE_LOG", "debug")
    run_cli("kappa", "--config", K2, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_and_no_state_carried_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = [("kappa", "--config", K2, "--out", "{dir}/grid.csv"),
             ("tails", "--config", K2, "--samples", 1000, "--dump"),  # no --out: 64
             ("validate", "--config", K2),
             ("kappa", "--config", K2, "--bogus"),  # unknown flag: 64
             ("kappa", "--config", K2)]

    def outcome(argv, out_dir):
        out_dir.mkdir(exist_ok=True)
        try:
            code = run_cli(*(str(a).format(dir=out_dir) for a in argv))
        except SystemExit as exc:
            code = exc.code
        cap = capsys.readouterr()
        return code, cap.out, cap.err, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    shared = [outcome(argv, tmp_path / f"shared{i}") for i, argv in enumerate(calls)]
    fresh = []
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv, tmp_path / f"fresh{i}"))
    assert [s[0] for s in shared] == [0, 64, 0, 64, 0]
    assert shared[0][3]["grid.csv"].startswith(b"beta,lambda,radius")
    assert shared == fresh
