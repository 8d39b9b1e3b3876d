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
