import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
verdict = bench_record.verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825, 1.0175


def test_gain_needs_nine_wins_and_a_gap_beyond_the_spread():
    assert verdict(PARENT, [p - 0.2 for p in PARENT], 0.15) == "gain"
    nine = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert verdict(PARENT, nine, 0.15) == "gain"
    eight = [p - 0.2 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert verdict(PARENT, eight, 0.15) == "same"
    # lower on every pair, but by less than the parent's interquartile spread
    assert verdict(PARENT, [p - 0.01 for p in PARENT], 0.15) == "same"


def test_ties_are_not_wins():
    assert verdict(PARENT, list(PARENT), 0.15) == "same"


def test_worse_past_the_relative_bound_only():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], 0.15) == "worse"
    assert verdict(PARENT, [p * 1.1 for p in PARENT], 0.15) == "same"
    assert verdict(PARENT, [p * 1.1 for p in PARENT], 0.05) == "worse"


def test_last_result_reads_the_final_stdout_line():
    stdout = ("# limit-check seed=0 rounds=4 round_cpu_s=[2.05, 2.04] steal_ticks=0 "
              "record=perfbench/out/limit-check-seed0.json\n"
              '{"correct": true, "attempted": 12, "failed": 0, "metrics": '
              '{"walksim.position.ns_per_lane_step": {"value": 9.5, "unit": "ns"}}}\n')
    out = bench_record.last_result(stdout)
    assert out["correct"] is True and out["failed"] == 0
    assert out["metrics"]["walksim.position.ns_per_lane_step"] == {"value": 9.5, "unit": "ns"}


def test_layers_summarise_the_metrics_every_traced_run_reports():
    runs = [{"seed": 0, "correct": True, "failed": 0, "a.ns": 3.0, "b.calls": 2},
            {"seed": 1, "correct": True, "failed": 0, "a.ns": 1.0},
            {"seed": 2, "correct": False, "failed": 1, "a.ns": 2.0, "b.calls": 2}]
    names = bench_record.layer_names(runs)
    assert names == ["a.ns"]
    table = bench_record.summary(runs, names)
    assert table["a.ns"] == 2.0 and table["quartiles"]["a.ns"] == [1.5, 2.5]
    assert [(r["correct"], r["failed"]) for r in table["runs"]] == [(True, 0), (True, 0),
                                                                    (False, 1)]


SYNTHETIC = '''"""Module docstring,
two lines."""

import os  # counted: code with a comment


class K:
    """Class docstring."""

    # a comment alone
    x = """a string that is not a docstring,
    but code on both lines"""

    def f(self):
        \'\'\'One-line docstring.\'\'\'
        return (1,

                2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # code: the import, the class line, both lines of x, the def and the
    # return's two lines (the blank line inside its parentheses is not code)
    assert bench_record.code_lines(SYNTHETIC) == 7
    pkg = tmp_path / "src" / "rwre"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(SYNTHETIC)
    (pkg / "b.py").write_text("# only a comment\n\nvalue = 1\n")
    assert bench_record.src_code_lines(tmp_path) == 8
    assert bench_record.src_lines(tmp_path) == SYNTHETIC.count("\n") + 3
