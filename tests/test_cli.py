import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from rwre import cli, walksim

MODELS = Path(__file__).resolve().parent.parent / "models"
K2 = str(MODELS / "chain-mk-k2.toml")
SUB1 = str(MODELS / "nonarith-sub1.toml")
NONARITH_K2 = str(MODELS / "nonarith-k2.toml")


def run_cli(*argv):
    return cli.run([str(a) for a in argv])


def _sha256(path) -> str:
    """Golden CSV digests: the draw order and the formatting are pinned."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        "1f56869cd953f5f12aea94b6a15f36fc57c5ab4598cf106f80de0354222c6530")


def test_simulate_walk_lockstep_batches_golden(tmp_path):
    # 700 replicas at n = 300 run as lockstep batches of 330, 330 and a
    # scalar batch of 40; the seed spans three 32-bit words
    assert walksim._batch_width(300) == 330 and 40 <= walksim._FINISH_LANES < 330
    out = tmp_path / "walk.csv"
    assert run_cli("simulate-walk", "--config", K2, "--n", 300, "--replicas", 700,
                   "--seed", 2**64 + 5, "--out", out) == 0
    assert _sha256(out) == "e222c715926f6e280a1da44ad4303cd806815f02e39a49d2cd3fe781fb4d4006"


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


def test_simulate_branching_csv(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    assert run_cli("simulate-branching", "--config", K2, "--n", 5000,
                   "--seed", 2, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "block,gap,population,odds_product,prefix_load"
    assert len(lines) > 100
    assert _sha256(out) == "3b9ddbab4f89c020cef82b8e2e0ef4f5e9a769b6711fceb18928e74222fd22db"


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
    cli._write_csv(rendered, ["value"], [(f"{v:.17g}",) for v in samples],
                   dump[-1].split("=")[1].split()[0], 4)
    assert Path(str(out) + ".samples.csv").read_bytes() == rendered.read_bytes()


def test_samples_writer_matches_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_DUMP_CHUNK", 3)  # chunks end mid-array
    values = np.array([0.1, -2.5e-300, 5e-324, 1e300, np.inf, 3.0, 1 / 3, 2.0**60])
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cli._write_csv(want, ["value"], [(f"{v:.17g}",) for v in values], "abc", 9)
    cli._write_samples(got, values, "abc", 9)
    assert got.read_bytes() == want.read_bytes()


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
